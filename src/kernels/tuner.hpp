#pragma once
// Execution-configuration tuners.
//
// Two layers, both rooted in the paper's §V-A observation that the right
// execution configuration is an empirical question:
//  * tune_block_size — the paper's Figure 4 experiment: sweep
//    threads-per-block, measure each launch on the simulated device, pick
//    the highest modeled GFLOP/s.
//  * autotune_fast_tier — the fast tier's measurement-driven autotuner
//    (fast-tier v2): enumerate candidate compressed containers (rsformat,
//    float SELL-C-σ, quantized SELL-C-σ over C ∈ {8,16,32,64} ×
//    σ ∈ {256,1024,4096,rows}), rank them with a deterministic streamed-bytes
//    model, then micro-benchmark the finalists (plus native thread count and
//    batch width) on the actual matrix and return the winning TunedConfig.
//    With trials == 0 the measurement stage is skipped and the byte-model
//    winner is returned — fully deterministic, which is what the CI
//    tuner-determinism check pins (PROTONDOSE_TUNER_TRIALS=0).  Measured
//    runs keep a hysteresis margin: a candidate must beat a model-preferred
//    rival by >10% wall-clock to override the deterministic order, so quiet
//    machines reproduce the same config run to run.
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

/// Fast-tier format recommendation (docs/fast_tier.md).  All fast kernels
/// are DRAM-bound like everything else in this codebase, so the chooser
/// picks whichever container streams fewer bytes per product.  Ties break
/// toward rsformat first (no padding, no permutation scatter), then the
/// quantized SELL-C-σ container before the float one (same layout, smaller
/// error surface won't flip but the u16 values halve the slot traffic, so a
/// tie means the float container wasted padding).  Callers feed it
/// *_streamed_bytes() from the built containers — or estimates, before
/// paying for the build; pass sellcsq_bytes == 0 when the quantized
/// container is unavailable (e.g. > 65536 columns).
struct FastFormatChoice {
  std::uint64_t rsformat_bytes = 0;
  std::uint64_t sellcs_bytes = 0;
  std::uint64_t sellcsq_bytes = 0;  ///< 0 = quantized container unavailable.
  DoseEngine::FastFormat format = DoseEngine::FastFormat::kRsFormat;

  bool prefer_rsformat() const {
    return format == DoseEngine::FastFormat::kRsFormat;
  }

  std::uint64_t chosen_bytes() const {
    switch (format) {
      case DoseEngine::FastFormat::kSellCs:
        return sellcs_bytes;
      case DoseEngine::FastFormat::kSellCsQ:
        return sellcsq_bytes;
      default:
        return rsformat_bytes;
    }
  }

  double ratio_vs(std::uint64_t csr_bytes) const {
    return csr_bytes == 0 ? 0.0
                          : static_cast<double>(chosen_bytes()) /
                                static_cast<double>(csr_bytes);
  }
};

inline FastFormatChoice choose_fast_format(std::uint64_t rsformat_bytes,
                                           std::uint64_t sellcs_bytes,
                                           std::uint64_t sellcsq_bytes = 0) {
  FastFormatChoice c;
  c.rsformat_bytes = rsformat_bytes;
  c.sellcs_bytes = sellcs_bytes;
  c.sellcsq_bytes = sellcsq_bytes;
  c.format = DoseEngine::FastFormat::kRsFormat;
  std::uint64_t best = rsformat_bytes;
  // Strict < keeps the tie order rsformat > quantized > float.
  if (sellcsq_bytes != 0 && sellcsq_bytes < best) {
    c.format = DoseEngine::FastFormat::kSellCsQ;
    best = sellcsq_bytes;
  }
  if (sellcs_bytes < best) {
    c.format = DoseEngine::FastFormat::kSellCs;
  }
  return c;
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
  std::size_t batch_width = 1;     ///< probed batch width (1 = unprobed/no win).
  double batched_speedup = 0.0;    ///< measured K-batch speedup (0 = unprobed).
  std::uint64_t streamed_bytes = 0;
  double us_per_product = 0.0;     ///< winner's measured time (0 = model-only).
  unsigned trials = 0;             ///< measurement reps used (0 = model-only).
  std::vector<TuneCandidate> candidates;  ///< full sweep, model-rank order.
};

/// Decision-field equality (timings excluded) — what the determinism check
/// compares across repeated tunes of the same matrix.
inline bool same_decision(const TunedConfig& a, const TunedConfig& b) {
  return a.format == b.format && a.sell_c == b.sell_c &&
         a.sell_sigma == b.sell_sigma && a.fast_threads == b.fast_threads &&
         a.batch_width == b.batch_width;
}

struct TuneOptions {
  /// SELL-C-σ geometry sweep; σ == 0 means "all rows" (resolved to the row
  /// count rounded up to a multiple of C).
  std::vector<std::uint32_t> chunk_heights = {8, 16, 32, 64};
  std::vector<std::uint32_t> sort_windows = {256, 1024, 4096, 0};
  /// Native thread counts to measure for the winning format (0 = all
  /// hardware threads).  The first entry is the deterministic default.
  std::vector<unsigned> thread_candidates = {1, 0};
  /// Wall-clock reps per measured candidate; 0 = byte-model only, fully
  /// deterministic (the mode the CI determinism check pins).
  unsigned trials = 3;
  /// How many model-ranked finalists get measured (trials > 0).
  std::size_t measure_finalists = 3;
  /// When > 1 and the winner is rsformat, probe compute_batch at this width
  /// against looped single products and record the speedup.
  std::size_t probe_batch = 1;
};

/// TuneOptions with `trials` overridden by the PROTONDOSE_TUNER_TRIALS
/// environment variable when set (the CI determinism pin).
TuneOptions tune_options_from_env();

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
