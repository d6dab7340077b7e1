// Wallclock of the native host backend vs the gpusim backend on Liver 1.
//
// The native backend exists so the downstream consumers the paper motivates
// (optimizer / robust-optimizer inner loops, §I-II) stop paying simulator
// overhead for products whose counters they never read — while staying
// bitwise identical to the simulated kernels (tests/test_native_backend.cpp
// enforces it).  This bench records what that buys: dose products per second
// for the native backend at 1/2/4 threads against gpusim functional-only,
// plus the batched multi-scenario traversal (K=9, the robust-planning shape)
// against K looped single products.  The batched kernel is also timed at
// widths 2, 4, 8, 9, 16 (its fixed-width paths) and 17 (its generic path),
// in Half/Double and Single, with each width's median and quartiles over
// interleaved rounds.  Results land in
// bench_results/wallclock_native_backend.csv and BENCH_native.json.

#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "gpusim/simcheck.hpp"
#include "kernels/dose_engine.hpp"
#include "sparse/random.hpp"

namespace {

using pd::bench::time_per_call;
using pd::kernels::DoseEngine;

/// Shortest timed span per measurement (seconds).
constexpr double kMinSeconds = 0.4;

/// Batch widths timed in interleaved rounds, and the headline width.
constexpr std::size_t kWidths[] = {2, 4, 8, 9, 16, 17};
constexpr std::size_t kBatch = 9;
constexpr std::size_t kRounds = 7;
constexpr double kMinSecondsPerRound = 0.25;

/// The precision modes the batch widths are timed in.
const std::pair<const char*, DoseEngine::Mode> kBatchModes[] = {
    {"half_double", DoseEngine::Mode::kHalfDouble},
    {"single", DoseEngine::Mode::kSingle}};

/// One configuration of the interleaved batch rounds: a K-wide
/// compute_batch, or (looped) K single products, in kBatchModes[mode].
struct BatchConfig {
  std::size_t mode = 0;
  std::size_t k = 0;
  bool looped = false;
  pd::bench::Spread spread;  ///< Seconds per call.
};

struct ModeResult {
  std::string name;
  double seconds_per_product = 0.0;
  double speedup_vs_functional = 0.0;
};

std::string fmt(double v, int prec = 3) {
  std::ostringstream os;
  os << std::setprecision(prec) << std::fixed << v;
  return os.str();
}

}  // namespace

int main() {
  const double scale = pd::bench::bench_scale();
  pd::bench::print_banner("wallclock_native_backend",
                          "native host backend vs gpusim (bitwise identical)",
                          scale);
  const auto beams = pd::bench::load_case_beams("liver", scale);
  const auto& beam = beams.front();

  pd::Rng rng(2023);
  const std::vector<double> x =
      pd::sparse::random_vector(rng, beam.matrix.num_cols, 0.5, 2.0);

  auto make_engine = [&](DoseEngine::Backend backend,
                         DoseEngine::Mode mode = DoseEngine::Mode::kHalfDouble) {
    return DoseEngine(pd::sparse::CsrF64(beam.matrix), pd::gpusim::make_a100(),
                      mode, pd::kernels::kDefaultVectorTpb,
                      pd::kernels::SpmvFamily::kVector, backend);
  };

  std::vector<ModeResult> results;
  {
    DoseEngine engine = make_engine(DoseEngine::Backend::kGpusim);
    engine.set_engine_options({pd::gpusim::TraceMode::kFunctionalOnly, 0});
    results.push_back(
        {"gpusim_functional_only",
         time_per_call([&] { engine.compute(x); }, kMinSeconds), 0.0});
  }
  for (const unsigned threads : {1u, 2u, 4u}) {
    DoseEngine engine = make_engine(DoseEngine::Backend::kNative);
    engine.set_native_threads(threads);
    results.push_back(
        {"native_" + std::to_string(threads) + "t",
         time_per_call([&] { engine.compute(x); }, kMinSeconds), 0.0});
  }
  const double functional_s = results.front().seconds_per_product;
  for (auto& r : results) {
    r.speedup_vs_functional = functional_s / r.seconds_per_product;
  }

  // Batched multi-scenario shape: K weight vectors (nominal + error
  // scenarios), one stacked traversal, native on one thread.  The last
  // configuration times K=9 Half/Double as K looped products instead.
  const std::size_t spots = beam.matrix.num_cols;
  const std::vector<double> batch_weights = pd::sparse::random_vector(
      rng, kWidths[std::size(kWidths) - 1] * spots, 0.5, 2.0);
  std::vector<DoseEngine> batch_engines;
  std::vector<BatchConfig> configs;
  for (std::size_t m = 0; m < std::size(kBatchModes); ++m) {
    batch_engines.push_back(
        make_engine(DoseEngine::Backend::kNative, kBatchModes[m].second));
    batch_engines.back().set_native_threads(1);
    for (const std::size_t k : kWidths) {
      configs.push_back({m, k, false, {}});
    }
  }
  const std::size_t widths_end = configs.size();
  configs.push_back({0, kBatch, true, {}});
  const auto samples = pd::bench::interleaved_rounds(
      configs.size(), kRounds, [&](std::size_t i) {
        const BatchConfig& c = configs[i];
        DoseEngine& engine = batch_engines[c.mode];
        if (c.looped) {
          return time_per_call(
              [&] {
                for (std::size_t j = 0; j < c.k; ++j) {
                  engine.compute(std::span<const double>(
                      batch_weights.data() + j * spots, spots));
                }
              },
              kMinSecondsPerRound);
        }
        return time_per_call(
            [&] {
              engine.compute_batch(
                  std::span<const double>(batch_weights.data(), c.k * spots),
                  c.k);
            },
            kMinSecondsPerRound);
      });
  double batched_s = 0.0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    configs[i].spread = pd::bench::spread_of(samples[i]);
    if (i < widths_end && configs[i].mode == 0 && configs[i].k == kBatch) {
      batched_s = configs[i].spread.median;
    }
  }
  const double looped_s = configs.back().spread.median;
  const double batched_speedup = looped_s / batched_s;

  pd::TextTable table({"backend", "ms / product", "speedup vs functional"});
  for (const auto& r : results) {
    table.add_row({r.name, fmt(r.seconds_per_product * 1e3),
                   fmt(r.speedup_vs_functional, 2) + "x"});
  }
  std::cout << table.str() << "\n";
  pd::TextTable widths({"mode", "K", "ms / batch (median)", "IQR/median",
                        "us / product"});
  for (std::size_t i = 0; i < widths_end; ++i) {
    const BatchConfig& c = configs[i];
    widths.add_row({kBatchModes[c.mode].first, std::to_string(c.k),
                    fmt(c.spread.median * 1e3),
                    fmt(c.spread.iqr_over_median(), 3),
                    fmt(c.spread.median / static_cast<double>(c.k) * 1e6, 1)});
  }
  std::cout << widths.str() << kRounds << " interleaved rounds per width, "
            << "each at least " << kMinSecondsPerRound << " s (native, 1 "
            << "thread).\n";
  std::cout << "batched K=" << kBatch << " (" << kBatchModes[0].first
            << "): "
            << fmt(batched_s * 1e3) << " ms vs looped "
            << fmt(looped_s * 1e3) << " ms -> " << fmt(batched_speedup, 2)
            << "x (one matrix traversal for all scenarios)\n";
  std::cout << "every row above produces bitwise-identical dose (see "
               "tests/test_native_backend.cpp)\n\n";

  std::vector<std::vector<std::string>> rows;
  for (const auto& r : results) {
    rows.push_back({beam.label, r.name, fmt(r.seconds_per_product * 1e6, 1),
                    fmt(r.speedup_vs_functional, 3)});
  }
  rows.push_back({beam.label, "native_1t_batched_k9",
                  fmt(batched_s / kBatch * 1e6, 1),
                  fmt(functional_s / (batched_s / kBatch), 3)});
  pd::bench::write_csv("wallclock_native_backend",
                       {"beam", "backend", "us_per_product",
                        "speedup_vs_functional"},
                       rows);

  std::ofstream json("BENCH_native.json");
  json << "{\n";
  json << "  \"bench\": \"wallclock_native_backend\",\n";
  json << "  \"beam\": \"" << beam.label << "\",\n";
  json << "  \"scale\": " << scale << ",\n";
  json << "  \"kernel\": \"vector_csr<half,double> (DoseEngine, kHalfDouble)\",\n";
  // DoseEngine auto-enables the analyzer under PROTONDOSE_SIMCHECK; brand the
  // record so scripts/check_bench_results.sh can reject checked-run numbers.
  json << "  \"simcheck\": "
       << (pd::gpusim::simcheck_env_enabled() ? "true" : "false") << ",\n";
  json << "  \"modes\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    json << "    {\"mode\": \"" << r.name << "\", \"us_per_product\": "
         << fmt(r.seconds_per_product * 1e6, 1)
         << ", \"speedup_vs_functional\": " << fmt(r.speedup_vs_functional, 3)
         << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"batch\": {\"k\": " << kBatch
       << ", \"us_batched\": " << fmt(batched_s * 1e6, 1)
       << ", \"us_looped\": " << fmt(looped_s * 1e6, 1)
       << ", \"batched_speedup\": " << fmt(batched_speedup, 3) << "},\n";
  json << "  \"min_seconds_per_repeat\": " << kMinSecondsPerRound << ",\n";
  json << "  \"batch_widths\": [\n";
  for (std::size_t i = 0; i < widths_end; ++i) {
    const BatchConfig& c = configs[i];
    json << "    {\"mode\": \"" << kBatchModes[c.mode].first
         << "\", \"k\": " << c.k
         << ", \"repeats\": " << c.spread.repeats
         << ", \"us_batched\": " << fmt(c.spread.median * 1e6, 1)
         << ", \"us_q1\": " << fmt(c.spread.q1 * 1e6, 1)
         << ", \"us_q3\": " << fmt(c.spread.q3 * 1e6, 1)
         << ", \"iqr_over_median\": " << fmt(c.spread.iqr_over_median(), 4)
         << "}" << (i + 1 < widths_end ? "," : "") << "\n";
  }
  json << "  ]\n";
  json << "}\n";
  std::cout << "wrote BENCH_native.json\n";
  return 0;
}
