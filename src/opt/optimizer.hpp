#pragma once
// Spot-weight optimization: projected gradient descent with backtracking
// line search over non-negative spot weights.
//
// This is the downstream consumer that motivates the paper: each iteration
// computes dose = D·x (the paper's kernel) and gradient = D^T (∂f/∂dose)
// (the same kernel on the transposed matrix), so dose-calculation throughput
// directly bounds planning time.  Both products run through DoseEngine on
// the simulated GPU; the run is deterministic, and because the engine's
// kernel is schedule-independent, re-running a plan reproduces it bitwise.

#include <cstdint>
#include <vector>

#include "common/timer.hpp"
#include "gpusim/device.hpp"
#include "kernels/dose_engine.hpp"
#include "opt/objective.hpp"
#include "sparse/csr.hpp"

namespace pd::opt {

/// Search-direction strategy.  Real treatment-planning systems (RayStation's
/// optimizer included) use quasi-Newton methods; L-BFGS needs far fewer
/// iterations than steepest descent on the ill-conditioned quadratic
/// objectives of planning — each saved iteration is one fewer forward +
/// transposed SpMV pair.
enum class OptimizerMethod {
  kProjectedGradient,
  kLbfgs,  ///< Projected L-BFGS (two-loop recursion + non-negativity projection).
};

struct OptimizerConfig {
  OptimizerMethod method = OptimizerMethod::kProjectedGradient;
  unsigned max_iterations = 50;
  double initial_step = 1.0;
  double step_shrink = 0.5;
  unsigned max_backtracks = 20;
  unsigned lbfgs_history = 8;        ///< Stored (s, y) pairs.
  double gradient_tolerance = 1e-8;  ///< Stop when ||proj grad||_inf is below.
  kernels::DoseEngine::Mode mode = kernels::DoseEngine::Mode::kHalfDouble;
  /// The inner SpMV loop never reads traffic counters, so the engines default
  /// to functional-only execution (no cache simulation) — dose values and the
  /// optimization trajectory are identical to the serial engine's.
  gpusim::EngineOptions engine{gpusim::TraceMode::kFunctionalOnly, 0};
  /// The inner loop defaults to the native backend: bitwise-identical dose
  /// (so the trajectory is unchanged), much faster wall-clock.  Set kGpusim
  /// to route every product through the simulator instead.
  kernels::DoseEngine::Backend backend = kernels::DoseEngine::Backend::kNative;
  /// Native-backend threads (0 = all hardware threads); any value yields the
  /// same bits.
  unsigned native_threads = 0;
};

struct OptimizerResult {
  std::vector<double> spot_weights;
  std::vector<double> dose;
  std::vector<double> objective_history;  ///< One value per accepted iterate.
  unsigned iterations = 0;
  bool converged = false;
  /// Forward + transposed products performed.  Batch-aware: a compute_batch
  /// of K vectors counts K products (one per dose), even though it traverses
  /// the matrix once — keeping throughput numbers comparable across
  /// backends and batching strategies.
  std::uint64_t spmv_count = 0;
  /// Wall-clock seconds spent building engines (matrix copies, transposes,
  /// precision conversions) before the first iteration, plus any engines
  /// built lazily during the run.
  double setup_seconds = 0.0;
  /// Never incremented: every forward product is a full compute.  Kept
  /// only because dosebench/src/opt_probe.cpp reads it and reports it as
  /// opt.delta_products; it goes once that probe drops the read.
  std::uint64_t delta_spmv_count = 0;
};

class PlanOptimizer {
 public:
  /// D is the dose deposition matrix (rows = voxels, cols = spots); the
  /// optimizer builds forward and transposed engines on `device`.
  PlanOptimizer(const sparse::CsrF64& D, DoseObjective objective,
                gpusim::DeviceSpec device, OptimizerConfig config = {});

  OptimizerResult optimize();

 private:
  DoseObjective objective_;
  OptimizerConfig config_;
  WallTimer setup_timer_;  ///< Declared before the engines to time their
                           ///< construction (members initialize in order).
  kernels::DoseEngine forward_;
  kernels::DoseEngine transpose_;
  double setup_seconds_ = 0.0;
};

}  // namespace pd::opt
