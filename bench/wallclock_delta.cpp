// Wallclock of the incremental delta engine (docs/delta_engine.md) on the
// six Table I beams: compute_delta / apply_delta against a full bitwise
// recompute, across changed-weight fractions {0.1%, 1%, 10%}.
//
// The delta path streams only the changed columns' CSC entries (kFast) or
// the affected rows' CSR entries (kBitwise) instead of the whole matrix, so
// cost is proportional to |Δw| nnz.  Two timings per mode: `us_delta_*`
// includes the result-vector copy (the compute_delta API), `us_apply_*` is
// the in-place apply_delta — the shape an incremental-update loop issues.
// In-place timing uses weight alternation (w -> w' -> w -> ...) so every rep
// performs one same-sized update; in bitwise mode the dose returns to the
// exact base bits every second rep.  Results land in
// bench_results/wallclock_delta.csv and BENCH_delta.json (schema-checked by
// scripts/check_bench_results.sh); the headline is the fast-mode in-place
// speedup over full recompute at 1% changed spots on Liver 1 (target >= 5x).

#include <algorithm>
#include <cstdint>
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
#include "kernels/delta_spmv.hpp"
#include "kernels/dose_engine.hpp"
#include "kernels/tuner.hpp"
#include "sparse/random.hpp"

namespace {

using pd::bench::time_per_call;
using pd::kernels::DoseEngine;

/// Shortest timed span per measurement (seconds).
constexpr double kMinSeconds = 0.2;

std::string fmt(double v, int prec = 3) {
  std::ostringstream os;
  os << std::setprecision(prec) << std::fixed << v;
  return os.str();
}

struct CaseResult {
  std::string beam;
  double changed_frac = 0.0;
  std::uint64_t changed_cols = 0;
  std::uint64_t delta_nnz = 0;
  std::uint64_t touched_rows = 0;
  std::uint64_t matrix_nnz = 0;
  double us_full = 0.0;
  double us_delta_bitwise = 0.0;
  double us_delta_fast = 0.0;
  double us_apply_bitwise = 0.0;
  double us_apply_fast = 0.0;
  double bitwise_speedup() const { return us_full / us_apply_bitwise; }
  double fast_speedup() const { return us_full / us_apply_fast; }
};

/// Perturb exactly `k` distinct weights multiplicatively.
std::vector<double> perturb_k(const std::vector<double>& w, std::uint64_t k,
                              pd::Rng& rng) {
  std::vector<double> w_new = w;
  std::vector<std::uint8_t> used(w.size(), 0);
  for (std::uint64_t changed = 0; changed < k;) {
    const std::size_t j = rng.uniform_index(w.size());
    if (used[j] == 0) {
      used[j] = 1;
      w_new[j] = w[j] * 1.1 + 0.01;
      ++changed;
    }
  }
  return w_new;
}

}  // namespace

int main() {
  const double scale = pd::bench::bench_scale();
  pd::bench::print_banner(
      "wallclock_delta",
      "incremental delta engine vs full bitwise recompute", scale);
  const auto beams = pd::bench::load_beams(scale);
  const std::vector<double> fracs = {0.001, 0.01, 0.1};

  std::vector<CaseResult> results;
  double headline_fast = 0.0, headline_bitwise = 0.0;
  std::string headline_beam;
  for (const auto& beam : beams) {
    DoseEngine engine(pd::sparse::CsrF64(beam.matrix), pd::gpusim::make_a100(),
                      DoseEngine::Mode::kHalfDouble,
                      pd::kernels::kDefaultVectorTpb,
                      pd::kernels::SpmvFamily::kVector,
                      DoseEngine::Backend::kNative);
    engine.set_native_threads(1);
    pd::Rng rng(2048 + beam.matrix.nnz());
    const std::vector<double> w =
        pd::sparse::random_vector(rng, beam.matrix.num_cols, 0.5, 2.0);
    const std::vector<double> base = engine.compute(w);
    (void)engine.csc_sidecar();  // build outside the timed region

    for (const double frac : fracs) {
      const std::uint64_t k = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(
                 frac * static_cast<double>(beam.matrix.num_cols)));
      const std::vector<double> w_new = perturb_k(w, k, rng);

      CaseResult r;
      r.beam = beam.label;
      r.changed_frac = frac;
      r.matrix_nnz = beam.matrix.nnz();
      r.us_full =
          time_per_call([&] { engine.compute(w_new); }, kMinSeconds) * 1e6;
      r.us_delta_bitwise = time_per_call(
                               [&] {
                                 engine.compute_delta(
                                     base, w, w_new,
                                     DoseEngine::DeltaMode::kBitwise);
                               },
                               kMinSeconds) *
                           1e6;
      r.changed_cols = engine.last_delta().changed_cols;
      r.delta_nnz = engine.last_delta().delta_nnz;
      r.touched_rows = engine.last_delta().touched_rows;
      r.us_delta_fast = time_per_call(
                            [&] {
                              engine.compute_delta(
                                  base, w, w_new, DoseEngine::DeltaMode::kFast);
                            },
                            kMinSeconds) *
                        1e6;
      // In-place: alternate w -> w_new -> w so every rep is one update of
      // the same footprint and the dose never drifts from reusable state.
      std::vector<double> dose = base;
      bool forward = true;
      const auto alternate = [&](DoseEngine::DeltaMode mode) {
        if (forward) {
          engine.apply_delta(dose, w, w_new, mode);
        } else {
          engine.apply_delta(dose, w_new, w, mode);
        }
        forward = !forward;
      };
      r.us_apply_bitwise =
          time_per_call([&] { alternate(DoseEngine::DeltaMode::kBitwise); },
                        kMinSeconds) *
          1e6;
      dose = base;
      forward = true;
      r.us_apply_fast =
          time_per_call([&] { alternate(DoseEngine::DeltaMode::kFast); },
                        kMinSeconds) *
          1e6;
      results.push_back(r);

      if (frac == 0.01 && headline_beam.empty()) {
        headline_beam = r.beam;
        headline_fast = r.fast_speedup();
        headline_bitwise = r.bitwise_speedup();
      }
    }
  }

  pd::TextTable table({"beam", "frac", "dnnz/nnz", "full us", "bw delta us",
                       "fast delta us", "bw x", "fast x"});
  std::vector<std::vector<std::string>> csv_rows;
  for (const auto& r : results) {
    const double nnz_ratio = static_cast<double>(r.delta_nnz) /
                             static_cast<double>(r.matrix_nnz);
    table.add_row({r.beam, fmt(r.changed_frac, 3), pd::fmt_percent(nnz_ratio, 2),
                   fmt(r.us_full, 1), fmt(r.us_apply_bitwise, 1),
                   fmt(r.us_apply_fast, 1), fmt(r.bitwise_speedup(), 1),
                   fmt(r.fast_speedup(), 1)});
    csv_rows.push_back(
        {r.beam, fmt(r.changed_frac, 4), std::to_string(r.changed_cols),
         std::to_string(r.delta_nnz), std::to_string(r.touched_rows),
         fmt(r.us_full, 2), fmt(r.us_delta_bitwise, 2),
         fmt(r.us_delta_fast, 2), fmt(r.us_apply_bitwise, 2),
         fmt(r.us_apply_fast, 2), fmt(r.bitwise_speedup(), 2),
         fmt(r.fast_speedup(), 2)});
  }
  std::cout << table.str() << "\n";
  std::cout << "delta kernel: " << pd::kernels::delta_spmv_variant_name()
            << "; headline (" << headline_beam << ", 1% changed): fast "
            << fmt(headline_fast, 1) << "x, bitwise "
            << fmt(headline_bitwise, 1) << "x over full recompute.\n\n";
  pd::bench::write_csv(
      "wallclock_delta",
      {"beam", "changed_frac", "changed_cols", "delta_nnz", "touched_rows",
       "us_full", "us_delta_bitwise", "us_delta_fast", "us_apply_bitwise",
       "us_apply_fast", "bitwise_speedup", "fast_speedup"},
      csv_rows);

  std::ofstream json("BENCH_delta.json");
  json << "{\n";
  json << "  \"bench\": \"wallclock_delta\",\n";
  json << "  \"scale\": " << scale << ",\n";
  // The delta path is host-native; brand the record anyway so
  // scripts/check_bench_results.sh treats all BENCH json uniformly.
  json << "  \"simcheck\": "
       << (pd::gpusim::simcheck_env_enabled() ? "true" : "false") << ",\n";
  json << "  \"variant\": \"" << pd::kernels::delta_spmv_variant_name()
       << "\",\n";
  json << "  \"cases\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    json << "    {\"beam\": \"" << r.beam << "\""
         << ", \"changed_frac\": " << fmt(r.changed_frac, 4)
         << ", \"changed_cols\": " << r.changed_cols
         << ", \"delta_nnz\": " << r.delta_nnz
         << ", \"touched_rows\": " << r.touched_rows
         << ", \"us_full\": " << fmt(r.us_full, 2)
         << ", \"us_delta_bitwise\": " << fmt(r.us_delta_bitwise, 2)
         << ", \"us_delta_fast\": " << fmt(r.us_delta_fast, 2)
         << ", \"us_apply_bitwise\": " << fmt(r.us_apply_bitwise, 2)
         << ", \"us_apply_fast\": " << fmt(r.us_apply_fast, 2)
         << ", \"bitwise_speedup\": " << fmt(r.bitwise_speedup(), 2)
         << ", \"fast_speedup\": " << fmt(r.fast_speedup(), 2) << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"headline\": {\"beam\": \"" << headline_beam
       << "\", \"changed_frac\": 0.01, \"fast_speedup\": "
       << fmt(headline_fast, 2)
       << ", \"bitwise_speedup\": " << fmt(headline_bitwise, 2) << "}\n";
  json << "}\n";
  std::cout << "wrote BENCH_delta.json\n";
  return 0;
}
