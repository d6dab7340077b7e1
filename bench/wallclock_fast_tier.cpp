// Wallclock of the fast compute tier (docs/fast_tier.md) on the six Table I
// beams: SpMV executed directly on compressed storage versus the bitwise
// native CSR-double kernel.
//
// v2 adds the fast-tier-v2 surface:
//   - quantized SELL-C-sigma (u16 values + per-column scale, u16 col ids,
//     empty-row compaction) at its model-tuned geometry, versus the float
//     SELL-C-32 container;
//   - the batched fused rsformat kernel at K=9 (the optimizer's gradient
//     batch shape) versus 9 looped single-RHS products;
//   - the measurement-driven autotuner's chosen config per beam (default
//     trials).
// All kernel timings are single-thread — the shape the paper's optimizer
// inner loop issues.  Results land in bench_results/wallclock_fast_tier.csv
// and BENCH_formats.json (schema_version 2, gated by
// scripts/check_bench_results.sh).

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "gpusim/simcheck.hpp"
#include "kernels/dose_engine.hpp"
#include "kernels/rsformat_spmv.hpp"
#include "kernels/sellcs_spmv.hpp"
#include "kernels/tuner.hpp"
#include "sparse/random.hpp"

namespace {

using pd::bench::time_per_call;
using pd::kernels::DoseEngine;

constexpr std::size_t kBatchK = 9;

/// Shortest timed span per measurement (seconds).
constexpr double kMinSeconds = 0.2;

std::string fmt(double v, int prec = 3) {
  std::ostringstream os;
  os << std::setprecision(prec) << std::fixed << v;
  return os.str();
}

struct CaseResult {
  std::string beam;
  std::uint64_t csr_bytes = 0;
  std::uint64_t rs_bytes = 0;
  std::uint64_t sell_bytes = 0;
  std::uint64_t sellq_bytes = 0;
  double us_native_csr = 0.0;
  double us_fused_rsformat = 0.0;
  double us_sellcs = 0.0;
  double us_sellcsq = 0.0;
  // Per-product microseconds at K=9: one fused batched launch vs 9 looped
  // single-RHS products on the same rsformat container.
  double us_batched_k9 = 0.0;
  double us_looped_k9 = 0.0;
  // Tuner outcome (chosen fast config for this beam).
  std::string tuned_format;
  unsigned tuned_c = 0;
  std::uint32_t tuned_sigma = 0;
  unsigned tuned_threads = 1;
  std::uint64_t tuned_bytes = 0;
  double rs_ratio() const {
    return static_cast<double>(rs_bytes) / static_cast<double>(csr_bytes);
  }
  double sell_ratio() const {
    return static_cast<double>(sell_bytes) / static_cast<double>(csr_bytes);
  }
  double sellq_vs_sell_ratio() const {
    return static_cast<double>(sellq_bytes) / static_cast<double>(sell_bytes);
  }
  double batched_speedup_k9() const {
    return us_batched_k9 > 0.0 ? us_looped_k9 / us_batched_k9 : 0.0;
  }
};

}  // namespace

int main() {
  const double scale = pd::bench::bench_scale();
  pd::bench::print_banner(
      "wallclock_fast_tier",
      "fast tier v2: compressed-storage compute, quantized SELL, batched "
      "fused rsformat, autotuner",
      scale);
  const auto beams = pd::bench::load_beams(scale);
  const pd::kernels::TuneOptions tune_opts;

  std::vector<CaseResult> results;
  for (const auto& beam : beams) {
    DoseEngine engine(pd::sparse::CsrF64(beam.matrix), pd::gpusim::make_a100(),
                      DoseEngine::Mode::kDouble,
                      pd::kernels::kDefaultVectorTpb,
                      pd::kernels::SpmvFamily::kVector,
                      DoseEngine::Backend::kNative);
    engine.set_native_threads(1);
    pd::Rng rng(4096 + beam.matrix.nnz());
    const std::vector<double> x =
        pd::sparse::random_vector(rng, beam.matrix.num_cols, 0.5, 2.0);

    CaseResult r;
    r.beam = beam.label;
    r.csr_bytes = beam.matrix.bytes();
    r.us_native_csr =
        time_per_call([&] { engine.compute(x); }, kMinSeconds) * 1e6;

    engine.set_tier(DoseEngine::Tier::kFast, DoseEngine::FastFormat::kRsFormat);
    r.rs_bytes = pd::kernels::rsformat_streamed_bytes(engine.fast_rs_matrix());
    r.us_fused_rsformat =
        time_per_call([&] { engine.compute(x); }, kMinSeconds) * 1e6;

    // Batched fused rsformat at K=9 vs 9 looped products (same container,
    // same thread).  Per-product time for both sides.
    {
      const std::size_t spots = engine.num_spots();
      std::vector<double> bw(kBatchK * spots);
      for (double& v : bw) v = rng.uniform(0.5, 2.0);
      r.us_batched_k9 =
          time_per_call([&] { engine.compute_batch(bw, kBatchK); },
                        kMinSeconds) *
          1e6 / static_cast<double>(kBatchK);
      r.us_looped_k9 = time_per_call(
                           [&] {
                             for (std::size_t j = 0; j < kBatchK; ++j) {
                               engine.compute(std::span<const double>(
                                   bw.data() + j * spots, spots));
                             }
                           },
                           kMinSeconds) *
                       1e6 / static_cast<double>(kBatchK);
    }

    engine.set_tier(DoseEngine::Tier::kFast, DoseEngine::FastFormat::kSellCs);
    r.sell_bytes =
        pd::kernels::sellcs_streamed_bytes(engine.fast_sell_matrix());
    r.us_sellcs =
        time_per_call([&] { engine.compute(x); }, kMinSeconds) * 1e6;

    // Autotune (container grid + geometry).  The chosen config is what
    // EngineCache would pin for this plan.
    const pd::kernels::TunedConfig tuned =
        pd::kernels::autotune_fast_tier(engine, tune_opts);
    r.tuned_format = to_string(tuned.format);
    r.tuned_c = tuned.sell_c;
    r.tuned_sigma = tuned.sell_sigma;
    r.tuned_threads = tuned.fast_threads;
    r.tuned_bytes = tuned.streamed_bytes;

    // Quantized SELL at the model-winning quantized geometry (deterministic:
    // the byte model is exact, so this never depends on timing noise).
    unsigned qc = 8;
    std::uint32_t qsigma = 1024;
    for (const pd::kernels::TuneCandidate& cand : tuned.candidates) {
      if (cand.format == DoseEngine::FastFormat::kSellCsQ) {
        qc = cand.sell_c;
        qsigma = cand.sell_sigma;
        break;  // candidates are model-sorted: first quantized is its best
      }
    }
    engine.set_fast_sell_config(qc, qsigma);
    engine.set_tier(DoseEngine::Tier::kFast, DoseEngine::FastFormat::kSellCsQ);
    r.sellq_bytes =
        pd::kernels::sellcs_q_streamed_bytes(engine.fast_sellq_matrix());
    r.us_sellcsq =
        time_per_call([&] { engine.compute(x); }, kMinSeconds) * 1e6;
    results.push_back(r);
  }

  int fused_wins = 0;
  double max_rs_ratio = 0.0;
  double max_sellq_ratio = 0.0;
  double max_batched_speedup = 0.0;
  for (const auto& r : results) {
    fused_wins += r.us_fused_rsformat < r.us_native_csr ? 1 : 0;
    max_rs_ratio = std::max(max_rs_ratio, r.rs_ratio());
    max_sellq_ratio = std::max(max_sellq_ratio, r.sellq_vs_sell_ratio());
    max_batched_speedup =
        std::max(max_batched_speedup, r.batched_speedup_k9());
  }

  pd::TextTable table({"beam", "CSR64 us", "fused rs us", "SELL us",
                       "SELLq us", "K=9 speedup", "rs/CSR64 B",
                       "SELLq/SELL B"});
  std::vector<std::vector<std::string>> csv_rows;
  for (const auto& r : results) {
    table.add_row({r.beam, fmt(r.us_native_csr, 1), fmt(r.us_fused_rsformat, 1),
                   fmt(r.us_sellcs, 1), fmt(r.us_sellcsq, 1),
                   fmt(r.batched_speedup_k9(), 2) + "x",
                   pd::fmt_percent(r.rs_ratio(), 1),
                   pd::fmt_percent(r.sellq_vs_sell_ratio(), 1)});
    csv_rows.push_back(
        {r.beam, std::to_string(r.csr_bytes), std::to_string(r.rs_bytes),
         std::to_string(r.sell_bytes), std::to_string(r.sellq_bytes),
         fmt(r.us_native_csr, 1), fmt(r.us_fused_rsformat, 1),
         fmt(r.us_sellcs, 1), fmt(r.us_sellcsq, 1), fmt(r.us_batched_k9, 1),
         fmt(r.us_looped_k9, 1), fmt(r.batched_speedup_k9(), 3),
         fmt(r.rs_ratio(), 4), fmt(r.sell_ratio(), 4),
         fmt(r.sellq_vs_sell_ratio(), 4), r.tuned_format,
         std::to_string(r.tuned_c), std::to_string(r.tuned_sigma)});
  }
  std::cout << table.str() << "\n";
  std::cout << "fused rsformat decode: "
            << pd::kernels::rsformat_spmv_variant_name()
            << ", SELL-C-32 kernel: "
            << pd::kernels::sellcs_spmv_variant_name(32)
            << ", quantized SELL kernel: "
            << pd::kernels::sellcs_q_spmv_variant_name(32) << "\n";
  std::cout << "fused rsformat beats native CSR-double on " << fused_wins
            << "/" << results.size()
            << " beams (single thread, K=1) while streaming "
            << pd::fmt_percent(max_rs_ratio, 1)
            << " of the CSR-double bytes at worst.\n";
  std::cout << "quantized SELL streams " << pd::fmt_percent(max_sellq_ratio, 1)
            << " of the float SELL container at worst; batched K=9 fused "
               "launch peaks at "
            << fmt(max_batched_speedup, 2) << "x over looped.\n\n";
  pd::bench::write_csv(
      "wallclock_fast_tier",
      {"beam", "csr_double_bytes", "rsformat_bytes", "sellcs_bytes",
       "sellcsq_bytes", "us_native_csr", "us_fused_rsformat", "us_sellcs",
       "us_sellcsq", "us_batched_k9", "us_looped_k9", "batched_speedup_k9",
       "streamed_bytes_ratio", "sellcs_bytes_ratio", "sellcsq_vs_sellcs_ratio",
       "tuned_format", "tuned_chunk_height", "tuned_sort_window"},
      csv_rows);

  std::ofstream json("BENCH_formats.json");
  json << "{\n";
  json << "  \"bench\": \"wallclock_fast_tier\",\n";
  json << "  \"schema_version\": 2,\n";
  json << "  \"scale\": " << scale << ",\n";
  // DoseEngine auto-enables the analyzer under PROTONDOSE_SIMCHECK; the fast
  // tier is host-native so checking cannot perturb it, but brand the record
  // anyway so scripts/check_bench_results.sh treats all BENCH json uniformly.
  json << "  \"simcheck\": "
       << (pd::gpusim::simcheck_env_enabled() ? "true" : "false") << ",\n";
  json << "  \"fused_variant\": \""
       << pd::kernels::rsformat_spmv_variant_name() << "\",\n";
  json << "  \"sellcs_variant\": \""
       << pd::kernels::sellcs_spmv_variant_name(32) << "\",\n";
  json << "  \"sellcsq_variant\": \""
       << pd::kernels::sellcs_q_spmv_variant_name(32) << "\",\n";
  json << "  \"tuner_trials\": " << tune_opts.trials << ",\n";
  json << "  \"batch_k\": " << kBatchK << ",\n";
  json << "  \"cases\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    json << "    {\"beam\": \"" << r.beam << "\""
         << ", \"csr_double_bytes\": " << r.csr_bytes
         << ", \"rsformat_bytes\": " << r.rs_bytes
         << ", \"sellcs_bytes\": " << r.sell_bytes
         << ", \"sellcsq_bytes\": " << r.sellq_bytes
         << ", \"streamed_bytes_ratio\": " << fmt(r.rs_ratio(), 4)
         << ", \"sellcs_bytes_ratio\": " << fmt(r.sell_ratio(), 4)
         << ", \"sellcsq_vs_sellcs_ratio\": "
         << fmt(r.sellq_vs_sell_ratio(), 4)
         << ", \"us_native_csr\": " << fmt(r.us_native_csr, 1)
         << ", \"us_fused_rsformat\": " << fmt(r.us_fused_rsformat, 1)
         << ", \"us_sellcs\": " << fmt(r.us_sellcs, 1)
         << ", \"us_sellcsq\": " << fmt(r.us_sellcsq, 1)
         << ", \"us_batched_k9\": " << fmt(r.us_batched_k9, 1)
         << ", \"us_looped_k9\": " << fmt(r.us_looped_k9, 1)
         << ", \"batched_speedup_k9\": " << fmt(r.batched_speedup_k9(), 4)
         << ", \"tuned\": {\"format\": \"" << r.tuned_format << "\""
         << ", \"chunk_height\": " << r.tuned_c
         << ", \"sort_window\": " << r.tuned_sigma
         << ", \"fast_threads\": " << r.tuned_threads
         << ", \"streamed_bytes\": " << r.tuned_bytes << "}}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"headline\": {\"fused_wins\": " << fused_wins
       << ", \"cases\": " << results.size()
       << ", \"max_streamed_bytes_ratio\": " << fmt(max_rs_ratio, 4)
       << ", \"max_sellcsq_vs_sellcs_ratio\": " << fmt(max_sellq_ratio, 4)
       << ", \"max_batched_speedup_k9\": " << fmt(max_batched_speedup, 4)
       << "}\n";
  json << "}\n";
  std::cout << "wrote BENCH_formats.json\n";
  return 0;
}
