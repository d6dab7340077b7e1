#pragma once
// Execution-configuration tuners.
//
// Two layers, both rooted in the paper's §V-A observation that the right
// execution configuration is an empirical question:
//  * tune_block_size — the paper's Figure 4 experiment: sweep
//    threads-per-block, measure each launch on the simulated device, pick
//    the highest modeled GFLOP/s.
//  * autotune_fast_tier — the fast tier's autotuner and its only format
//    chooser: enumerate candidate compressed containers (rsformat, float
//    SELL-C-σ, quantized SELL-C-σ over C ∈ {8,16,32,64} ×
//    σ ∈ {256,1024,4096,rows}), rank them with a deterministic streamed-bytes
//    model (fast_candidate_order), then micro-benchmark the finalists (and
//    the native thread count) on the actual matrix and return the winning
//    TunedConfig.  With trials == 0 the measurement stages are skipped and
//    the byte-model winner is returned — fully deterministic, which is what
//    the CLI's `spmv --format auto`, the service's engine cache and the CI
//    tuner-determinism check use.  Measured runs keep a hysteresis margin: a
//    candidate must beat a model-preferred rival by >10% wall-clock to
//    override the deterministic order, so quiet machines reproduce the same
//    config run to run.
//    The tuner only ever touches fast-tier state (engine tier/format/sell
//    geometry are restored on exit) — Tier::kBitwise results stay
//    byte-for-byte unchanged whether or not a config was tuned or applied.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "gpusim/perf.hpp"
#include "kernels/dose_engine.hpp"
#include "kernels/spmv_common.hpp"

namespace pd::kernels {

struct TunePoint {
  unsigned threads_per_block = 0;
  gpusim::PerfEstimate estimate;
};

struct TuneResult {
  std::vector<TunePoint> points;
  unsigned best_threads_per_block = 0;

  const TunePoint& best() const {
    for (const TunePoint& p : points) {
      if (p.threads_per_block == best_threads_per_block) {
        return p;
      }
    }
    throw pd::Error("TuneResult: empty sweep");
  }
};

/// The paper's sweep: 32..1024 threads per block.
inline std::vector<unsigned> default_block_sizes() {
  return {32, 64, 128, 256, 512, 1024};
}

/// `run_at(tpb)` must launch the kernel with that block size and return the
/// SpmvRun; `mean_work_per_warp` feeds the perf model (see gpusim::PerfInput).
template <typename RunFn>
TuneResult tune_block_size(const gpusim::DeviceSpec& spec, RunFn&& run_at,
                           double mean_work_per_warp,
                           std::vector<unsigned> candidates = default_block_sizes()) {
  PD_CHECK_MSG(!candidates.empty(), "tune_block_size: no candidates");
  TuneResult result;
  double best_gflops = -1.0;
  for (const unsigned tpb : candidates) {
    const SpmvRun run = run_at(tpb);
    gpusim::PerfInput in;
    in.stats = run.stats;
    in.config = run.config;
    in.precision = run.precision;
    in.mean_work_per_warp = mean_work_per_warp;
    TunePoint point;
    point.threads_per_block = tpb;
    point.estimate = gpusim::estimate_performance(spec, in);
    if (point.estimate.gflops > best_gflops) {
      best_gflops = point.estimate.gflops;
      result.best_threads_per_block = tpb;
    }
    result.points.push_back(point);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Fast-tier autotuner (fast-tier v2).
// ---------------------------------------------------------------------------

/// One candidate the autotuner considered (emitted into bench JSON).
struct TuneCandidate {
  DoseEngine::FastFormat format = DoseEngine::FastFormat::kRsFormat;
  std::uint32_t sell_c = 0;       ///< 0 for rsformat.
  std::uint32_t sell_sigma = 0;   ///< resolved σ (rows rounded up); 0 for rsformat.
  std::uint64_t streamed_bytes = 0;  ///< byte-model estimate per product.
  double us_per_product = 0.0;    ///< measured wall-clock; 0 = model-only.
  bool measured = false;
};

/// The winning configuration.  Everything the engine needs to run the fast
/// tier at this matrix's best-known operating point; cached per plan in
/// EngineCache (service) so a hot plan is tuned exactly once.
struct TunedConfig {
  DoseEngine::FastFormat format = DoseEngine::FastFormat::kRsFormat;
  std::uint32_t sell_c = 32;       ///< SELL chunk height (sell formats).
  std::uint32_t sell_sigma = 1024; ///< SELL sort window (resolved, > 0).
  unsigned fast_threads = 1;       ///< native threads for fast-tier computes.
  std::uint64_t streamed_bytes = 0;
  double us_per_product = 0.0;     ///< winner's measured time (0 = model-only).
  unsigned trials = 0;             ///< measurement reps used (0 = model-only).
  std::vector<TuneCandidate> candidates;  ///< full sweep, model-rank order.
};

/// Decision-field equality (timings excluded) — what the determinism check
/// compares across repeated tunes of the same matrix.
inline bool same_decision(const TunedConfig& a, const TunedConfig& b) {
  return a.format == b.format && a.sell_c == b.sell_c &&
         a.sell_sigma == b.sell_sigma && a.fast_threads == b.fast_threads;
}

struct TuneOptions {
  /// Wall-clock reps per measured candidate; 0 = byte-model only, fully
  /// deterministic (the mode the CI determinism check pins).
  unsigned trials = 3;
};

/// The byte model's ranking, and the fast tier's one format preference: all
/// fast kernels are DRAM-bound, so fewer streamed bytes per product rank
/// first.  Ties go to rsformat (no padding, no permutation scatter), then
/// the quantized SELL-C-σ container (same layout as the float one, half the
/// slot bytes, so a tie means the float container wasted padding), then
/// float SELL-C-σ; then the smaller chunk height and sort window.
bool fast_candidate_order(const TuneCandidate& a, const TuneCandidate& b);

/// Streamed bytes of a hypothetical SELL-C-σ container with the given
/// geometry, computed from row lengths alone (no build): replicates the
/// builder's σ-window descending sort + per-chunk padding.  `row_nnz` must
/// already be compacted for the quantized container (non-empty rows only).
std::uint64_t sellcs_model_bytes(const std::vector<std::uint32_t>& row_nnz,
                                 std::uint64_t num_cols, std::uint32_t C,
                                 std::uint32_t sigma, bool quantized);

/// Run the autotuner on the engine's stored matrix.  Builds fast containers
/// as needed (they stay cached on the engine), restores the engine's
/// tier/format/sell-geometry on exit, and never perturbs Tier::kBitwise
/// results.  Throws nothing beyond allocation/configuration errors.
TunedConfig autotune_fast_tier(DoseEngine& engine,
                               const TuneOptions& opts = {});

/// Apply a TunedConfig to an engine: sell geometry, fast-tier thread count,
/// and the format FastFormat::kAuto resolves to.  Does not switch tiers.
void apply_tuned(DoseEngine& engine, const TunedConfig& config);

}  // namespace pd::kernels
