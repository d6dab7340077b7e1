// Wallclock of the native host backend vs the gpusim backend on Liver 1.
//
// The native backend exists so the downstream consumers the paper motivates
// (optimizer / robust-optimizer inner loops, §I-II) stop paying simulator
// overhead for products whose counters they never read — while staying
// bitwise identical to the simulated kernels (tests/test_native_backend.cpp
// enforces it).  This bench records what that buys: dose products per second
// for the native backend at 1/2/4 threads against gpusim functional-only,
// plus the batched multi-scenario traversal (K=9, the robust-planning shape)
// against K looped single products.  Results land in
// bench_results/wallclock_native_backend.csv and BENCH_native.json.

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
#include "sparse/random.hpp"

namespace {

using pd::bench::time_per_call;
using pd::kernels::DoseEngine;

/// Shortest timed span per measurement (seconds).
constexpr double kMinSeconds = 0.4;

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

  auto make_engine = [&](DoseEngine::Backend backend) {
    return DoseEngine(pd::sparse::CsrF64(beam.matrix), pd::gpusim::make_a100(),
                      DoseEngine::Mode::kHalfDouble,
                      pd::kernels::kDefaultVectorTpb,
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

  // Batched multi-scenario shape: K=9 weight vectors (nominal + 8 error
  // scenarios), one stacked traversal vs K looped products, both native.
  constexpr std::size_t kBatch = 9;
  const std::vector<double> batch_weights = pd::sparse::random_vector(
      rng, kBatch * beam.matrix.num_cols, 0.5, 2.0);
  DoseEngine batch_engine = make_engine(DoseEngine::Backend::kNative);
  batch_engine.set_native_threads(1);
  const double batched_s = time_per_call(
      [&] { batch_engine.compute_batch(batch_weights, kBatch); }, kMinSeconds);
  const double looped_s = time_per_call(
      [&] {
        for (std::size_t j = 0; j < kBatch; ++j) {
          batch_engine.compute(std::span<const double>(
              batch_weights.data() + j * beam.matrix.num_cols,
              beam.matrix.num_cols));
        }
      },
      kMinSeconds);
  const double batched_speedup = looped_s / batched_s;

  pd::TextTable table({"backend", "ms / product", "speedup vs functional"});
  for (const auto& r : results) {
    table.add_row({r.name, fmt(r.seconds_per_product * 1e3),
                   fmt(r.speedup_vs_functional, 2) + "x"});
  }
  std::cout << table.str() << "\n";
  std::cout << "batched K=" << kBatch << " (native, 1 thread): "
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
       << ", \"batched_speedup\": " << fmt(batched_speedup, 3) << "}\n";
  json << "}\n";
  std::cout << "wrote BENCH_native.json\n";
  return 0;
}
