// Wallclock throughput of the simulator *itself* — not the modelled device.
//
// Simulator throughput bounds the experiment matrix this reproduction can
// afford: the robust-optimization workloads the paper motivates multiply
// SpMV launch counts by 10-100x.  This bench measures simulated
// warp-instructions/sec and sectors/sec on Liver 1 for each engine mode
// against the retained reference memory path (the seed's sort+unique
// coalescer, per-lane atomics and global-tick cache scan), and records the
// trajectory in BENCH_gpusim.json so regressions and wins show up across
// commits.  The Half/Double kernel runs in every engine mode; the atomic
// GPU Baseline, whose time goes to L2 atomics, runs serially on both memory
// paths.  Each mode is timed in kRounds interleaved rounds and compared with
// its own kernel's reference path; the file records the median and the
// interquartile spread, so a speedup can be told from noise.

#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "fp16/half.hpp"
#include "gpusim/simcheck.hpp"
#include "kernels/baseline_gpu.hpp"
#include "kernels/vector_csr.hpp"
#include "rsformat/rsmatrix.hpp"
#include "sparse/convert.hpp"
#include "sparse/random.hpp"

namespace {

constexpr std::size_t kRounds = 7;
constexpr double kMinSecondsPerRound = 0.4;

enum class Kernel { kHalfDouble, kBaseline };

std::string kernel_name(Kernel k) {
  return k == Kernel::kHalfDouble
             ? "vector_csr<half,double> tpb=512"
             : "baseline_gpu<rsformat> tpb=" +
                   std::to_string(pd::kernels::kDefaultBaselineTpb);
}

struct ModeSpec {
  std::string name;
  Kernel kernel;
  bool reference_path;
  pd::gpusim::EngineOptions engine;
};

struct ModeResult {
  std::string name;
  pd::bench::Spread spread;  ///< Seconds per launch over the rounds.
  double warp_instr_per_sec = 0.0;
  double sectors_per_sec = 0.0;
  double speedup_vs_reference = 0.0;
  pd::gpusim::KernelStats stats;
};

std::string fmt(double v, int prec = 3) {
  std::ostringstream os;
  os << std::setprecision(prec) << std::fixed << v;
  return os.str();
}

std::string fmt_rate(double v) {
  std::ostringstream os;
  os << std::scientific << std::setprecision(3) << v;
  return os.str();
}

}  // namespace

int main() {
  const double scale = pd::bench::bench_scale();
  pd::bench::print_banner("wallclock_sim_throughput",
                          "simulator engine throughput (serial vs functional)",
                          scale);
  const auto beams = pd::bench::load_case_beams("liver", scale);
  const auto& beam = beams.front();

  const auto mh = pd::sparse::convert_values<pd::Half>(beam.matrix);
  pd::Rng rng(2022);
  const std::vector<double> x =
      pd::sparse::random_vector(rng, beam.matrix.num_cols, 0.5, 2.0);
  const auto rs = pd::rsformat::RsMatrix::from_csr(beam.matrix);
  std::vector<double> y(beam.matrix.num_rows);

  const pd::gpusim::EngineOptions serial{pd::gpusim::TraceMode::kSerial, 1};
  const std::vector<ModeSpec> modes = {
      {"serial_reference", Kernel::kHalfDouble, true, serial},
      {"serial", Kernel::kHalfDouble, false, serial},
      {"functional_only", Kernel::kHalfDouble, false,
       {pd::gpusim::TraceMode::kFunctionalOnly, 0}},
      {"baseline_serial_reference", Kernel::kBaseline, true, serial},
      {"baseline_serial", Kernel::kBaseline, false, serial},
  };

  auto launch_once = [&](pd::gpusim::Gpu& gpu, Kernel kernel) {
    if (kernel == Kernel::kBaseline) {
      return pd::kernels::run_baseline_gpu(gpu, rs, x, std::span<double>(y),
                                           pd::kernels::kDefaultBaselineTpb,
                                           /*schedule_seed=*/1)
          .stats;
    }
    return pd::kernels::run_vector_csr<pd::Half, double>(
               gpu, mh, x, std::span<double>(y), 512, /*seed=*/1)
        .stats;
  };

  // Honour PROTONDOSE_SIMCHECK like the engine does, so a checked run is an
  // explicit choice — and is branded as such in BENCH_gpusim.json, where the
  // CI gate rejects it (checked numbers are not comparable across PRs).
  const bool simcheck = pd::gpusim::simcheck_env_enabled();
  if (simcheck) {
    std::cout << "PROTONDOSE_SIMCHECK is set: running with the correctness "
                 "analyzer enabled; numbers are NOT trajectory-comparable.\n\n";
  }

  std::vector<std::unique_ptr<pd::gpusim::Gpu>> gpus;
  for (const auto& mode : modes) {
    auto gpu = std::make_unique<pd::gpusim::Gpu>(pd::gpusim::make_a100());
    gpu->set_reference_memory_path(mode.reference_path);
    gpu->set_engine(mode.engine);
    if (simcheck) {
      gpu->enable_check();
    }
    gpus.push_back(std::move(gpu));
  }

  // Every launch cold-starts the L2, so each reports the same counters.
  std::vector<ModeResult> results(modes.size());
  const auto samples = pd::bench::interleaved_rounds(
      modes.size(), kRounds, [&](std::size_t i) {
        return pd::bench::time_per_call(
            [&] { results[i].stats = launch_once(*gpus[i], modes[i].kernel); },
            kMinSecondsPerRound);
      });
  for (std::size_t i = 0; i < modes.size(); ++i) {
    ModeResult& r = results[i];
    r.name = modes[i].name;
    r.spread = pd::bench::spread_of(samples[i]);
    r.warp_instr_per_sec =
        static_cast<double>(r.stats.compute.warp_arith_instrs) /
        r.spread.median;
    r.sectors_per_sec =
        static_cast<double>(r.stats.traffic.total_sectors()) /
        r.spread.median;
  }
  for (std::size_t i = 0; i < modes.size(); ++i) {
    for (std::size_t ref = 0; ref < modes.size(); ++ref) {
      if (modes[ref].reference_path && modes[ref].kernel == modes[i].kernel) {
        results[i].speedup_vs_reference =
            results[ref].spread.median / results[i].spread.median;
      }
    }
  }

  pd::TextTable table({"engine mode", "ms / launch (median)", "IQR/median",
                       "warp instr/s", "sectors/s", "speedup vs reference"});
  for (const auto& r : results) {
    table.add_row({r.name, fmt(r.spread.median * 1e3),
                   fmt(r.spread.iqr_over_median(), 3),
                   fmt_rate(r.warp_instr_per_sec),
                   r.stats.traffic.total_sectors() == 0
                       ? "n/a (no traffic sim)"
                       : fmt_rate(r.sectors_per_sec),
                   fmt(r.speedup_vs_reference, 2) + "x"});
  }
  std::cout << table.str() << kRounds << " interleaved rounds per mode, each"
            << " at least " << kMinSecondsPerRound << " s of launches.\n";
  std::cout << "functional_only skips the cache model entirely (correctness-"
               "only callers: tests, optimizer inner loops).\n"
            << "baseline_* rows run the atomic GPU Baseline; every speedup is "
               "against its own kernel's reference path.\n\n";

  std::vector<std::vector<std::string>> rows;
  for (const auto& r : results) {
    rows.push_back({beam.label, r.name, fmt(r.spread.median * 1e6, 1),
                    fmt_rate(r.warp_instr_per_sec), fmt_rate(r.sectors_per_sec),
                    fmt(r.speedup_vs_reference, 3)});
  }
  pd::bench::write_csv("wallclock_sim_throughput",
                       {"beam", "mode", "us_per_launch", "warp_instr_per_sec",
                        "sectors_per_sec", "speedup_vs_reference"},
                       rows);

  // Machine-readable trajectory record, consumed by later PRs.
  std::ofstream json("BENCH_gpusim.json");
  json << "{\n";
  json << "  \"bench\": \"wallclock_sim_throughput\",\n";
  json << "  \"beam\": \"" << beam.label << "\",\n";
  json << "  \"scale\": " << scale << ",\n";
  json << "  \"kernel\": \"" << kernel_name(Kernel::kHalfDouble) << "\",\n";
  json << "  \"simcheck\": " << (simcheck ? "true" : "false") << ",\n";
  json << "  \"min_seconds_per_repeat\": " << kMinSecondsPerRound << ",\n";
  json << "  \"warp_instrs_per_launch\": "
       << results.front().stats.compute.warp_arith_instrs << ",\n";
  json << "  \"sectors_per_launch\": "
       << results.front().stats.traffic.total_sectors() << ",\n";
  json << "  \"modes\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    json << "    {\"mode\": \"" << r.name << "\", \"kernel\": \""
         << kernel_name(modes[i].kernel) << "\", \"repeats\": "
         << r.spread.repeats << ", \"us_per_launch\": "
         << fmt(r.spread.median * 1e6, 1)
         << ", \"us_q1\": " << fmt(r.spread.q1 * 1e6, 1)
         << ", \"us_q3\": " << fmt(r.spread.q3 * 1e6, 1)
         << ", \"iqr_over_median\": " << fmt(r.spread.iqr_over_median(), 4)
         << ", \"warp_instr_per_sec\": " << fmt_rate(r.warp_instr_per_sec)
         << ", \"sectors_per_sec\": " << fmt_rate(r.sectors_per_sec)
         << ", \"speedup_vs_reference\": " << fmt(r.speedup_vs_reference, 3)
         << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "wrote BENCH_gpusim.json\n";
  return 0;
}
