#pragma once
// DoseEngine — the library's high-level public API.
//
// Wraps everything a treatment-planning optimizer needs: take a dose
// deposition matrix once, choose a precision mode and device, then compute
// dose = D · spot_weights repeatedly (once per optimizer iteration).  The
// default mode is the paper's mixed half/double kernel, which satisfies both
// RayStation requirements from §II-D: double-precision vectors and bitwise
// run-to-run reproducibility.
//
// Two execution backends share the engine's storage and produce bitwise
// identical dose vectors (docs/native_backend.md):
//  * Backend::kGpusim — the simulated GPU, with traffic counters and the
//    performance model (the differential oracle);
//  * Backend::kNative — host-native scalar row kernels replicating the warp
//    kernels' exact accumulation orders, multithreaded over an nnz-balanced
//    row partition.  No counters, but much faster wall-clock — the backend
//    optimizer inner loops run on.
//
// Orthogonal to the backend axis, the engine exposes two accuracy *tiers*
// (docs/fast_tier.md):
//  * Tier::kBitwise (default) — everything above: bitwise run-to-run and
//    cross-backend reproducible, the differential oracle.
//  * Tier::kFast — SpMV executed directly on compressed storage (fused
//    rsformat decompress-SpMV or a native SELL-C-σ kernel), streaming far
//    fewer bytes than CSR.  Host-native only, verified against the bitwise
//    tier with a derived tolerance bound instead of bit equality.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fp16/half.hpp"
#include "gpusim/device.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/perf.hpp"
#include "kernels/adaptive_csr.hpp"
#include "kernels/delta_spmv.hpp"
#include "kernels/native_backend.hpp"
#include "kernels/rowsplit_csr.hpp"
#include "kernels/spmv_common.hpp"
#include "rsformat/rsmatrix.hpp"
#include "sparse/csr.hpp"
#include "sparse/sellcs.hpp"
#include "sparse/stats.hpp"

namespace pd::kernels {

class DoseEngine {
 public:
  enum class Mode {
    kHalfDouble,  ///< 16-bit matrix, 64-bit vectors (the paper's kernel).
    kSingle,      ///< everything binary32.
    kDouble,      ///< everything binary64 (reference-quality).
  };

  enum class Backend {
    kGpusim,  ///< simulated GPU: counters + perf model, slow wall-clock.
    kNative,  ///< host-native, bitwise identical dose, no counters.
  };

  enum class Tier {
    kBitwise,  ///< default: bitwise-reproducible CSR kernels (the oracle).
    kFast,     ///< compute on compressed storage; tolerance-verified.
  };

  enum class FastFormat {
    kRsFormat,  ///< fused decompress-SpMV on the 16-bit delta streams.
    kSellCs,    ///< native SELL-C-σ kernel (float values, SIMD gathers).
    kSellCsQ,   ///< quantized SELL-C-σ (u16 values + per-column scale,
                ///< empty rows compacted out; needs <= 65536 columns).
    kAuto,      ///< resolve at set_tier time: the tuned format when a
                ///< TunedConfig was applied (kernels/tuner.hpp), else
                ///< kRsFormat.  fast_format() reports the resolved format.
  };

  /// Accuracy contract for compute_delta / apply_delta
  /// (docs/delta_engine.md) — the delta analogue of the tier axis.
  enum class DeltaMode {
    kBitwise,  ///< recompute affected rows in the bitwise tier's order;
               ///< result bitwise equal to a full compute of the new weights.
    kFast,     ///< scatter-add D[:,j]·Δw_j; verified by a derived bound.
  };

  /// What the most recent delta update actually touched.
  struct DeltaRun {
    DeltaMode mode = DeltaMode::kBitwise;
    std::uint64_t changed_cols = 0;  ///< bitwise-changed weight entries.
    std::uint64_t delta_nnz = 0;     ///< nnz of the changed columns (|Δw| work).
    std::uint64_t touched_rows = 0;  ///< dose rows written.
  };

  using Family = SpmvFamily;

  /// Takes ownership of the (double-precision) dose deposition matrix and
  /// prepares the storage for `mode` on a simulated `device`.  `family`
  /// selects the SpMV kernel family (host-side analysis for rowsplit /
  /// adaptive runs here); `backend` selects who executes it.
  DoseEngine(sparse::CsrF64 matrix, gpusim::DeviceSpec device,
             Mode mode = Mode::kHalfDouble,
             unsigned threads_per_block = kDefaultVectorTpb,
             Family family = Family::kVector,
             Backend backend = Backend::kGpusim);

  DoseEngine(const DoseEngine&) = delete;
  DoseEngine& operator=(const DoseEngine&) = delete;
  DoseEngine(DoseEngine&&) = default;
  ~DoseEngine();

  std::uint64_t num_voxels() const { return stats_.rows; }
  std::uint64_t num_spots() const { return stats_.cols; }
  const sparse::MatrixStats& stats() const { return stats_; }
  Mode mode() const { return mode_; }
  Family family() const { return family_; }

  Backend backend() const { return backend_; }
  /// Switch backends between computes; dose bits do not change.
  void set_backend(Backend backend) { backend_ = backend; }

  /// Thread count for the native backend (default 1; 0 = all hardware
  /// threads).  Bitwise-tier results are bitwise identical for every thread
  /// count; fast-tier results are run-to-run deterministic per thread count
  /// (docs/fast_tier.md).
  void set_native_threads(unsigned threads) { native_.set_threads(threads); }
  unsigned native_threads() const { return native_.requested_threads(); }

  /// Select the accuracy tier for subsequent computes.  Switching to
  /// Tier::kFast builds the compressed storage for `format` on first use
  /// (cached thereafter; throws pd::Error for kRsFormat if the stored matrix
  /// has negative values).  The fast tier executes host-native regardless of
  /// backend() — there is no simulated fast kernel, so gpusim counters and
  /// simcheck do not apply to it.  Switching tiers never perturbs the
  /// bitwise tier's bits.
  void set_tier(Tier tier, FastFormat format = FastFormat::kRsFormat);
  Tier tier() const { return tier_; }
  FastFormat fast_format() const { return fast_format_; }

  /// SELL-C-σ geometry for subsequently built fast containers (both the
  /// float and the quantized one).  Changing it drops the cached SELL
  /// containers so the next set_tier rebuilds them; the rsformat container
  /// and every bitwise-tier structure are untouched.  `sigma == 0` means
  /// "all rows" (resolved to the row count rounded up to a multiple of C);
  /// otherwise σ must be a positive multiple of C.
  void set_fast_sell_config(std::uint32_t chunk_height, std::uint32_t sigma);
  std::uint32_t fast_sell_c() const { return fast_sell_c_; }
  std::uint32_t fast_sell_sigma() const { return fast_sell_sigma_; }

  /// Thread count for *fast-tier* computes only (same semantics as
  /// set_native_threads; 0 = all hardware threads).  Until called, the fast
  /// tier follows set_native_threads.  The bitwise tier never reads this —
  /// a tuned fast configuration cannot perturb the oracle.
  void set_fast_threads(unsigned threads);
  /// Back to "fast tier follows set_native_threads".
  void clear_fast_threads() { fast_threads_set_ = false; }
  bool fast_threads_overridden() const { return fast_threads_set_; }
  unsigned fast_threads() const { return fast_native_.requested_threads(); }

  /// What FastFormat::kAuto resolves to (kernels/tuner.hpp applies the
  /// tuned format here).  Must be a concrete format, not kAuto.
  void set_auto_fast_format(FastFormat format);
  FastFormat auto_fast_format() const { return auto_fast_format_; }

  /// Fast-tier storage accessors (built by set_tier; throw if absent).
  const rsformat::RsMatrix& fast_rs_matrix() const;
  const sparse::SellCsMatrix<float>& fast_sell_matrix() const;
  const sparse::SellCsQMatrix& fast_sellq_matrix() const;

  /// The matrix the selected mode actually computes with, widened to double
  /// (exact: half and float embed in double).  This is what the fast tier
  /// compresses and what the tolerance bound is derived against.
  sparse::CsrF64 stored_matrix_as_double() const;

  /// Compute the dose vector for the given spot weights.  `schedule_seed`
  /// permutes GPU block scheduling; the result is independent of it (that is
  /// the reproducibility guarantee — asserted in tests).
  std::vector<double> compute(std::span<const double> spot_weights,
                              std::uint64_t schedule_seed = 0);

  /// Compute `batch` dose vectors for `batch` weight vectors stored
  /// back-to-back in `weights` (batch × num_spots doubles), traversing the
  /// matrix once for the whole batch where the family supports it (vector
  /// family on both backends; other families fall back to per-vector
  /// launches).  Column j is bitwise identical to compute(weights_j).
  std::vector<std::vector<double>> compute_batch(
      std::span<const double> weights, std::size_t batch,
      std::uint64_t schedule_seed = 0);

  /// Update `dose` (a dose vector previously computed for `base_weights` by
  /// the bitwise tier) in place to the dose for `new_weights`, touching only
  /// what the weight change reaches (docs/delta_engine.md).  Takes the full
  /// new weight vector, not Δw: changed columns are detected by *bit*
  /// comparison, which is what makes the kBitwise contract exact.
  ///
  ///  * DeltaMode::kBitwise — recomputes exactly the rows reachable from the
  ///    changed columns, replaying the engine's per-row reduction order; the
  ///    updated dose is bitwise identical to compute(new_weights).  Executes
  ///    host-native regardless of backend() (like the fast tier, there is no
  ///    simulated delta kernel); bits are invariant across thread counts.
  ///  * DeltaMode::kFast — dose += Σ_j D[:,j]·Δw_j over the changed columns;
  ///    cost ∝ nnz of the changed columns, verified by a derived per-row
  ///    bound (tests/test_delta_engine.cpp).
  ///
  /// Builds the CSC sidecar on first use (cached for the engine's lifetime).
  void apply_delta(std::span<double> dose, std::span<const double> base_weights,
                   std::span<const double> new_weights,
                   DeltaMode mode = DeltaMode::kBitwise);

  /// Copying form: returns the new dose, `base_dose` untouched.
  std::vector<double> compute_delta(std::span<const double> base_dose,
                                    std::span<const double> base_weights,
                                    std::span<const double> new_weights,
                                    DeltaMode mode = DeltaMode::kBitwise);

  /// The column-major sidecar (built lazily on first access).
  const CscSidecar& csc_sidecar();

  /// Touch counts of the most recent apply_delta / compute_delta.
  const DeltaRun& last_delta() const { return last_delta_; }

  /// Select how the simulated GPU executes launches (serial or
  /// functional-only — see gpusim/launch.hpp).  Dose values are identical
  /// in both modes; traffic counters are zero under functional-only.
  void set_engine_options(const gpusim::EngineOptions& opts);
  const gpusim::EngineOptions& engine_options() const;

  /// Run subsequent gpusim computes under the simcheck analyzer
  /// (docs/simcheck.md).  Dose bits and counters are unchanged; findings
  /// accumulate in check_report().  Also enabled automatically when the
  /// PROTONDOSE_SIMCHECK environment variable is set at construction.
  /// Checking never applies to the native backend (no simulation there).
  void enable_check(
      const gpusim::CheckConfig& cfg = gpusim::CheckConfig::all());
  void disable_check();
  bool check_enabled() const;
  const gpusim::CheckReport& check_report() const;

  /// Counters and launch geometry of the most recent gpusim compute().
  /// Native computes record no counters, so this throws until a gpusim
  /// launch has run.
  const SpmvRun& last_run() const;

  /// Modeled performance of the most recent gpusim compute() on this device.
  gpusim::PerfEstimate last_estimate() const;

 private:
  template <typename MatV, typename Acc>
  void execute(const sparse::CsrMatrix<MatV>& A, std::span<const Acc> x,
               std::span<Acc> y, std::uint64_t schedule_seed);
  template <typename MatV, typename Acc>
  void execute_batch(const sparse::CsrMatrix<MatV>& A,
                     std::span<const Acc* const> xs, std::span<Acc* const> ys,
                     std::uint64_t schedule_seed);
  void ensure_fast_storage(FastFormat format);
  void compute_fast(std::span<const double> x, std::span<double> y);
  void ensure_delta_context();
  template <typename MatV, typename Acc>
  void delta_recompute_rows(const sparse::CsrMatrix<MatV>& A,
                            std::span<const Acc> x,
                            std::span<const std::uint32_t> rows,
                            std::span<double> dose);

  Mode mode_;
  Family family_;
  Backend backend_;
  unsigned threads_per_block_;
  sparse::MatrixStats stats_;
  sparse::CsrMatrix<pd::Half> half_matrix_;  ///< kHalfDouble storage.
  sparse::CsrF32 single_matrix_;             ///< kSingle storage.
  sparse::CsrF64 double_matrix_;             ///< kDouble storage.
  Tier tier_ = Tier::kBitwise;
  FastFormat fast_format_ = FastFormat::kRsFormat;
  FastFormat auto_fast_format_ = FastFormat::kRsFormat;
  std::uint32_t fast_sell_c_ = 32;
  std::uint32_t fast_sell_sigma_ = 1024;
  /// Fast-tier containers, built lazily from stored_matrix_as_double() and
  /// cached until the geometry changes (unique_ptr doubles as "built" flag).
  std::unique_ptr<rsformat::RsMatrix> rs_matrix_;
  std::unique_ptr<sparse::SellCsMatrix<float>> sell_matrix_;
  std::unique_ptr<sparse::SellCsQMatrix> sellq_matrix_;
  RowSplitPlan rowsplit_plan_;               ///< kRowSplit analysis.
  std::vector<AdaptiveWorkItem> adaptive_worklist_;  ///< kAdaptive analysis.
  /// CSC sidecar + row→work-item maps + scratch for the delta path, built
  /// lazily on the first apply_delta / csc_sidecar() and cached.
  std::unique_ptr<DeltaContext> delta_;
  DeltaRun last_delta_;
  std::unique_ptr<gpusim::Gpu> gpu_;
  NativeExecutor native_;
  /// Fast-tier executor, used instead of native_ once set_fast_threads ran
  /// (a tuned thread count must never leak into the bitwise tier).
  NativeExecutor fast_native_;
  bool fast_threads_set_ = false;
  SpmvRun last_run_;
  bool has_run_ = false;
};

}  // namespace pd::kernels
