#include "kernels/tuner.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "kernels/rsformat_spmv.hpp"
#include "kernels/sellcs_spmv.hpp"

namespace pd::kernels {

namespace {

using FastFormat = DoseEngine::FastFormat;

// The tie order of fast_candidate_order.
int format_rank(FastFormat f) {
  switch (f) {
    case FastFormat::kRsFormat:
      return 0;
    case FastFormat::kSellCsQ:
      return 1;
    default:
      return 2;
  }
}

// The candidate grid: SELL-C-σ chunk heights and sort windows (σ == 0 means
// "all rows", resolved to the row count rounded up to a multiple of C).
constexpr std::uint32_t kChunkHeights[] = {8, 16, 32, 64};
constexpr std::uint32_t kSortWindows[] = {256, 1024, 4096, 0};
// Native thread counts measured for the winning format (0 = all hardware
// threads); the first is the deterministic default.
constexpr unsigned kThreadCandidates[] = {1, 0};
// How many model-ranked finalists get measured (trials > 0).
constexpr std::size_t kMeasureFinalists = 3;

std::uint32_t resolve_rows_sigma(std::uint64_t rows, std::uint32_t C) {
  const std::uint64_t up =
      (std::max<std::uint64_t>(rows, 1) + C - 1) / C * C;
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(
      up, std::numeric_limits<std::uint32_t>::max() / C * C));
}

// Switch the engine to the candidate's fast configuration (building the
// container if needed) and return the wall-clock of the fastest of `trials`
// products of an all-ones weight vector.  One warmup rep primes the
// container build and the thread pool out of the measurement.
double measure_candidate(DoseEngine& engine, const TuneCandidate& cand,
                         unsigned trials) {
  if (cand.format != FastFormat::kRsFormat) {
    engine.set_fast_sell_config(cand.sell_c, cand.sell_sigma);
  }
  engine.set_tier(DoseEngine::Tier::kFast, cand.format);
  const std::vector<double> x(engine.num_spots(), 1.0);
  (void)engine.compute(x);
  double best_us = std::numeric_limits<double>::infinity();
  for (unsigned t = 0; t < trials; ++t) {
    const auto start = std::chrono::steady_clock::now();
    (void)engine.compute(x);
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    best_us = std::min(best_us, us);
  }
  return best_us;
}

// A measured rival must beat the model-preferred incumbent by more than
// this margin to override the deterministic order (run-to-run stability on
// quiet machines; see header).
constexpr double kHysteresis = 0.10;

}  // namespace

bool fast_candidate_order(const TuneCandidate& a, const TuneCandidate& b) {
  if (a.streamed_bytes != b.streamed_bytes) {
    return a.streamed_bytes < b.streamed_bytes;
  }
  if (format_rank(a.format) != format_rank(b.format)) {
    return format_rank(a.format) < format_rank(b.format);
  }
  if (a.sell_c != b.sell_c) {
    return a.sell_c < b.sell_c;
  }
  return a.sell_sigma < b.sell_sigma;
}

std::uint64_t sellcs_model_bytes(const std::vector<std::uint32_t>& row_nnz,
                                 std::uint64_t num_cols, std::uint32_t C,
                                 std::uint32_t sigma, bool quantized) {
  PD_CHECK_MSG(C > 0 && sigma > 0 && sigma % C == 0,
               "sellcs_model_bytes: σ must be a positive multiple of C");
  // Replicate the builder: descending sort inside σ windows, then each
  // C-chunk pads to its longest row.  Only the length multiset matters.
  std::vector<std::uint32_t> lens = row_nnz;
  const std::uint64_t rows = lens.size();
  for (std::uint64_t w = 0; w < rows; w += sigma) {
    const std::uint64_t end = std::min<std::uint64_t>(w + sigma, rows);
    std::sort(lens.begin() + static_cast<std::ptrdiff_t>(w),
              lens.begin() + static_cast<std::ptrdiff_t>(end),
              std::greater<std::uint32_t>());
  }
  std::uint64_t slots = 0;
  for (std::uint64_t c0 = 0; c0 < rows; c0 += C) {
    // σ is a multiple of C, so a chunk never straddles a window boundary and
    // the group's first (descending-sorted) length is its padded width.
    slots += static_cast<std::uint64_t>(lens[c0]) * C;
  }
  const std::uint64_t chunks = (rows + C - 1) / C;
  const std::uint64_t shared = (chunks + 1) * 8   // chunk_ptr
                               + chunks * 4       // chunk_width
                               + rows * 4;        // row_perm
  if (quantized) {
    return shared + num_cols * 4  // col_scale
           + slots * (2 + 2);     // u16 qvalue + u16 col_idx
  }
  return shared + slots * (4 + 4);  // f32 value + u32 col_idx
}

TunedConfig autotune_fast_tier(DoseEngine& engine, const TuneOptions& opts) {
  // Snapshot fast-tier state; restored on every exit path.  The bitwise tier
  // owns none of this, so the tuner cannot perturb the oracle.
  struct Restore {
    DoseEngine& engine;
    DoseEngine::Tier tier;
    FastFormat format;
    std::uint32_t sell_c, sell_sigma;
    bool fast_threads_set;
    unsigned fast_threads;
    ~Restore() {
      try {
        engine.set_fast_sell_config(sell_c, sell_sigma);
        if (fast_threads_set) {
          engine.set_fast_threads(fast_threads);
        } else {
          engine.clear_fast_threads();
        }
        engine.set_tier(tier, format);
      } catch (...) {
        // Best-effort: restoring must not turn an in-flight exception into
        // std::terminate.
      }
    }
  } restore{engine,
            engine.tier(),
            engine.fast_format(),
            engine.fast_sell_c(),
            engine.fast_sell_sigma(),
            engine.fast_threads_overridden(),
            engine.fast_threads()};

  const sparse::CsrF64 wide = engine.stored_matrix_as_double();
  const std::uint64_t rows = wide.num_rows;
  bool nonneg = true;
  for (const double v : wide.values) {
    nonneg = nonneg && v >= 0.0;
  }
  std::vector<std::uint32_t> all_lens(rows);
  std::vector<std::uint32_t> stored_lens;
  stored_lens.reserve(rows);
  for (std::uint64_t r = 0; r < rows; ++r) {
    all_lens[r] = static_cast<std::uint32_t>(wide.row_nnz(r));
    if (all_lens[r] > 0) {
      stored_lens.push_back(all_lens[r]);
    }
  }
  const bool sellq_ok = nonneg && wide.num_cols <= (std::uint64_t{1} << 16);

  TunedConfig config;
  config.trials = opts.trials;

  // --- Stage 1: deterministic streamed-bytes model over the full grid. ---
  std::vector<TuneCandidate> candidates;
  if (nonneg) {
    // rsformat has no geometry knob; its exact bytes need the real container
    // (escape count), which set_tier builds once and the engine keeps.
    engine.set_tier(DoseEngine::Tier::kFast, FastFormat::kRsFormat);
    TuneCandidate rs;
    rs.format = FastFormat::kRsFormat;
    rs.streamed_bytes = rsformat_streamed_bytes(engine.fast_rs_matrix());
    candidates.push_back(rs);
  }
  for (const std::uint32_t C : kChunkHeights) {
    for (const std::uint32_t sigma_raw : kSortWindows) {
      const std::uint32_t sigma =
          sigma_raw == 0 ? resolve_rows_sigma(rows, C)
                         : (sigma_raw / C) * C;  // snap to a multiple of C
      if (sigma == 0) {
        continue;  // window smaller than a chunk: not a real configuration.
      }
      TuneCandidate fl;
      fl.format = FastFormat::kSellCs;
      fl.sell_c = C;
      fl.sell_sigma = sigma;
      fl.streamed_bytes =
          sellcs_model_bytes(all_lens, wide.num_cols, C, sigma, false);
      candidates.push_back(fl);
      if (sellq_ok) {
        TuneCandidate q = fl;
        q.format = FastFormat::kSellCsQ;
        q.streamed_bytes =
            sellcs_model_bytes(stored_lens, wide.num_cols, C, sigma, true);
        candidates.push_back(q);
      }
    }
  }
  PD_CHECK_MSG(!candidates.empty(),
               "autotune_fast_tier: no viable fast format for this matrix");
  std::sort(candidates.begin(), candidates.end(), fast_candidate_order);
  // Duplicate (format, C, σ) pairs can arise from σ snapping; keep the first.
  candidates.erase(
      std::unique(candidates.begin(), candidates.end(),
                  [](const TuneCandidate& a, const TuneCandidate& b) {
                    return a.format == b.format && a.sell_c == b.sell_c &&
                           a.sell_sigma == b.sell_sigma;
                  }),
      candidates.end());

  // --- Stage 2: micro-benchmark the model's finalists (trials > 0). ---
  std::size_t winner = 0;
  if (opts.trials > 0) {
    const std::size_t finalists =
        std::min(kMeasureFinalists, candidates.size());
    for (std::size_t i = 0; i < finalists; ++i) {
      candidates[i].us_per_product =
          measure_candidate(engine, candidates[i], opts.trials);
      candidates[i].measured = true;
      // Model order is the incumbent; a rival must win by > kHysteresis.
      if (i > 0 && candidates[i].us_per_product <
                       candidates[winner].us_per_product * (1.0 - kHysteresis)) {
        winner = i;
      }
    }
  }
  const TuneCandidate& best = candidates[winner];
  config.format = best.format;
  if (best.format != FastFormat::kRsFormat) {
    config.sell_c = best.sell_c;
    config.sell_sigma = best.sell_sigma;
  }
  config.streamed_bytes = best.streamed_bytes;
  config.us_per_product = best.us_per_product;

  // --- Stage 3: native thread count for the winning format. ---
  config.fast_threads = kThreadCandidates[0];
  if (opts.trials > 0) {
    double incumbent_us = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < std::size(kThreadCandidates); ++i) {
      engine.set_fast_threads(kThreadCandidates[i]);
      const double us = measure_candidate(engine, best, opts.trials);
      if (i == 0) {
        incumbent_us = us;
      } else if (us < incumbent_us * (1.0 - kHysteresis)) {
        incumbent_us = us;
        config.fast_threads = kThreadCandidates[i];
      }
    }
    config.us_per_product = incumbent_us;
  }

  config.candidates = std::move(candidates);
  return config;
}

void apply_tuned(DoseEngine& engine, const TunedConfig& config) {
  engine.set_fast_sell_config(config.sell_c, config.sell_sigma);
  engine.set_fast_threads(config.fast_threads);
  engine.set_auto_fast_format(config.format);
}

}  // namespace pd::kernels
