#pragma once
// Shared infrastructure for the per-table / per-figure benchmark binaries.
//
// Every bench loads the same six Table I beams (through a binary on-disk
// cache so the Monte Carlo generation runs once per scale), runs kernels on
// the simulated device, and reports both a human-readable table and a CSV
// under bench_results/.

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/perf.hpp"
#include "kernels/analytic.hpp"
#include "kernels/spmv_common.hpp"
#include "sparse/csr.hpp"
#include "sparse/stats.hpp"

namespace pd::bench {

struct BenchBeam {
  std::string label;               ///< Table I row name, e.g. "Liver 1".
  sparse::CsrF64 matrix;
  sparse::MatrixStats stats;
  sparse::PaperMatrixInfo paper;   ///< Full-scale published numbers.
};

/// Scale from PROTONDOSE_SCALE (default 1.0 — the repository mini default).
double bench_scale();

/// Load (or generate + cache) all six beams at `scale`.  The cache lives in
/// ./protondose_bench_cache and uses the library's binary matrix format.
std::vector<BenchBeam> load_beams(double scale);

/// Load only the named case's beams ("liver" / "prostate"), same cache.
std::vector<BenchBeam> load_case_beams(const std::string& name, double scale);

/// Measurement of one kernel on one beam: simulator counters + model output.
struct Measurement {
  kernels::KernelKind kind;
  kernels::SpmvRun run;
  gpusim::PerfEstimate estimate;
};

/// Execute the kernel variant on the simulated device and estimate its
/// performance.  threads_per_block == 0 selects the paper's default for the
/// kernel.  Unsupported combinations (e.g. u16 columns on a matrix with more
/// than 65536 columns) return std::nullopt.
std::optional<Measurement> measure_kernel(gpusim::Gpu& gpu,
                                          kernels::KernelKind kind,
                                          const BenchBeam& beam,
                                          unsigned threads_per_block = 0);

/// Wallclock seconds per call of `body()`: untimed warm-up calls for at
/// least `min_seconds / 2` (so worker pools and core clocks reach a steady
/// state whatever ran before), then timed calls until at least 5 have run
/// and at least `min_seconds` have passed.
template <typename Body>
double time_per_call(const Body& body, double min_seconds) {
  const auto seconds_since = [](std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  const auto warm0 = std::chrono::steady_clock::now();
  do {
    body();
  } while (seconds_since(warm0) < 0.5 * min_seconds);
  const auto t0 = std::chrono::steady_clock::now();
  int reps = 0;
  double elapsed = 0.0;
  do {
    body();
    ++reps;
    elapsed = seconds_since(t0);
  } while (reps < 5 || elapsed < min_seconds);
  return elapsed / reps;
}

/// Interleaved rounds: each round calls `run(i)` once for every
/// configuration i in turn, and samples[i][round] keeps what it returned.
/// Round-robin exposes every configuration to the same host drift, which on
/// a shared host moves throughput on a seconds scale, instead of penalizing
/// whichever one ran during a slow stretch.  `run` returns seconds.
template <typename Run>
std::vector<std::vector<double>> interleaved_rounds(std::size_t configs,
                                                    std::size_t rounds,
                                                    const Run& run) {
  std::vector<std::vector<double>> samples(configs);
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < configs; ++i) {
      samples[i].push_back(run(i));
    }
  }
  return samples;
}

/// Each configuration's fastest round of interleaved_rounds (0 for none).
template <typename Run>
std::vector<double> min_over_rounds(std::size_t configs, std::size_t rounds,
                                    const Run& run) {
  std::vector<double> best;
  for (const auto& s : interleaved_rounds(configs, rounds, run)) {
    best.push_back(s.empty() ? 0.0 : *std::min_element(s.begin(), s.end()));
  }
  return best;
}

/// Median and quartiles of repeated measurements, interpolated linearly
/// between order statistics.
struct Spread {
  std::size_t repeats = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;

  /// Interquartile range relative to the median (0 for a zero median).
  double iqr_over_median() const {
    return median == 0.0 ? 0.0 : (q3 - q1) / median;
  }
};
Spread spread_of(std::vector<double> samples);

/// Write rows to bench_results/<name>.csv (directory created on demand).
void write_csv(const std::string& name,
               const std::vector<std::string>& header,
               const std::vector<std::vector<std::string>>& rows);

/// Banner helper: every bench prints what it reproduces and at which scale.
void print_banner(const std::string& title, const std::string& paper_item,
                  double scale);

}  // namespace pd::bench
