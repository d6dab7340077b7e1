// sim_profile: serial-trace gpusim launches of the Fig. 5 kernel set (GPU
// Baseline, Half/Double, Single) on the six Table I beams — the workload
// that regenerates the paper's figures; native kernels do not run in it.
// The 18 launches of a sweep run on four threads, one simulated device
// each, so a sweep averages over the host's cores instead of riding one.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "fp16/half.hpp"
#include "gpusim/device.hpp"
#include "gpusim/launch.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "kernels/baseline_gpu.hpp"
#include "kernels/dose_engine.hpp"
#include "kernels/vector_csr.hpp"
#include "rsformat/rsmatrix.hpp"
#include "sparse/convert.hpp"
#include "sparse/reference.hpp"
#include "workloads.hpp"

namespace dosebench {
namespace {

constexpr int kMinSweeps = 3;
constexpr int kProbeSweeps = 3;  ///< Sweeps of profile_sim.
/// Simulated devices, one per thread; launches spread over them (<= nproc).
constexpr unsigned kSimThreads = 4;

/// One beam's launch operands, built once so every sweep reuses the same
/// buffers (gpusim's cache counters depend on host addresses).
struct Operands {
  std::string name;
  pd::sparse::CsrMatrix<pd::Half> half;
  pd::sparse::CsrF32 single;
  pd::rsformat::RsMatrix rs;
  std::vector<double> x, y_hd, y_base;
  std::vector<float> x32, y32;
  // References (outside set-up time).
  std::vector<double> ref_hd, ref_single, ref_exact, base_bound;
};

/// Counters of one sweep, summed over its launches.
struct SweepCounters {
  std::uint64_t warp_instrs = 0;
  std::uint64_t dram_bytes = 0;
  std::vector<std::uint64_t> per_launch;  // instrs, dram bytes per launch
  bool operator==(const SweepCounters& o) const {
    return warp_instrs == o.warp_instrs && dram_bytes == o.dram_bytes &&
           per_launch == o.per_launch;
  }
};

std::unique_ptr<Operands> build_operands(const Beam& beam, std::uint64_t seed,
                                         std::size_t index) {
  auto op = std::make_unique<Operands>(Operands{
      beam.name, pd::sparse::convert_values<pd::Half>(*beam.matrix),
      pd::sparse::convert_values<float>(*beam.matrix),
      pd::rsformat::RsMatrix::from_csr(*beam.matrix), {}, {}, {}, {}, {}, {}, {},
      {}, {}});
  pd::Rng rng(seed * 0xD1B54A32D192ED03ULL + index);
  op->x = random_weights(rng, beam.matrix->num_cols);
  op->x32.assign(op->x.begin(), op->x.end());
  op->y_hd.assign(beam.matrix->num_rows, 0.0);
  op->y_base.assign(beam.matrix->num_rows, 0.0);
  op->y32.assign(beam.matrix->num_rows, 0.0f);
  return op;
}

/// Native references: the bitwise DoseEngine in the same precision modes,
/// and the exact product with the rsformat storage bound for the baseline.
void build_references(Operands& op, const pd::sparse::CsrF64& m) {
  using pd::kernels::DoseEngine;
  for (const DoseEngine::Mode mode :
       {DoseEngine::Mode::kHalfDouble, DoseEngine::Mode::kSingle}) {
    DoseEngine e(pd::sparse::CsrF64(m), pd::gpusim::make_a100(), mode,
                 pd::kernels::kDefaultVectorTpb, pd::kernels::SpmvFamily::kVector,
                 DoseEngine::Backend::kNative);
    (mode == DoseEngine::Mode::kHalfDouble ? op.ref_hd : op.ref_single) =
        e.compute(op.x);
  }
  op.ref_exact.assign(m.num_rows, 0.0);
  pd::sparse::reference_spmv(m, op.x, op.ref_exact);
  op.base_bound.assign(m.num_rows, 0.0);
  for (std::uint64_t r = 0; r < m.num_rows; ++r) {
    double storage = 0.0, magnitude = 0.0;
    for (auto k = m.row_ptr[r]; k < m.row_ptr[r + 1]; ++k) {
      const std::uint32_t c = m.col_idx[k];
      storage += 1.02 * op.rs.max_abs_error(c) * std::fabs(op.x[c]);
      magnitude += std::fabs(m.values[k] * op.x[c]);
    }
    op.base_bound[r] = storage + 4.0 * static_cast<double>(m.row_nnz(r)) *
                                     0x1p-53 * magnitude;
  }
}

enum class Kernel { kBaseline, kHalfDouble, kSingle };

/// One serial-trace launch of `kernel` on a beam's operands.
pd::kernels::SpmvRun launch(pd::gpusim::Gpu& gpu, Operands& op, Kernel kernel) {
  switch (kernel) {
    case Kernel::kBaseline:
      return pd::kernels::run_baseline_gpu(gpu, op.rs, op.x,
                                           std::span<double>(op.y_base));
    case Kernel::kHalfDouble:
      return pd::kernels::run_vector_csr<pd::Half, double>(
          gpu, op.half, op.x, std::span<double>(op.y_hd),
          pd::kernels::kDefaultVectorTpb);
    case Kernel::kSingle:
      break;
  }
  return pd::kernels::run_vector_csr<float, float>(
      gpu, op.single, op.x32, std::span<float>(op.y32),
      pd::kernels::kDefaultVectorTpb);
}

/// Launch operands for every beam, one simulated device per thread, each
/// warmed up by one launch on the smallest beam, and a sweep's launch list:
/// the kernel set on every beam, largest beams first so the threads, each
/// taking the next launch as it frees up, finish close together.
struct Simulator {
  std::vector<std::unique_ptr<Operands>> ops;
  std::vector<std::unique_ptr<pd::gpusim::Gpu>> gpus;
  std::vector<std::pair<std::size_t, Kernel>> launches;
};

std::unique_ptr<Simulator> make_simulator(const std::vector<Beam>& beams,
                                          std::uint64_t seed) {
  auto sim = std::make_unique<Simulator>();
  sim->ops.resize(beams.size());
  parallel_for(beams.size(), kSimThreads, [&](std::size_t i, unsigned) {
    sim->ops[i] = build_operands(beams[i], seed, i);
  });
  for (unsigned t = 0; t < kSimThreads; ++t) {
    sim->gpus.push_back(std::make_unique<pd::gpusim::Gpu>(pd::gpusim::make_a100()));
    sim->gpus.back()->set_engine({pd::gpusim::TraceMode::kSerial, 0});
    Operands& small = *sim->ops.back();
    (void)pd::kernels::run_vector_csr<pd::Half, double>(
        *sim->gpus.back(), small.half, small.x, std::span<double>(small.y_hd),
        pd::kernels::kDefaultVectorTpb);
  }
  std::vector<std::size_t> order(beams.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return beams[a].matrix->nnz() > beams[b].matrix->nnz();
  });
  for (const std::size_t b : order) {
    for (const Kernel k : {Kernel::kBaseline, Kernel::kHalfDouble, Kernel::kSingle}) {
      sim->launches.emplace_back(b, k);
    }
  }
  return sim;
}

/// One sweep over the simulated devices; its counters go to `counters`.
/// Wall seconds.
double sweep(Simulator& sim, SweepCounters& counters, Tracer& tracer) {
  std::vector<pd::kernels::SpmvRun> runs(sim.launches.size());
  const auto start = Clock::now();
  parallel_for(sim.launches.size(), kSimThreads, [&](std::size_t i, unsigned t) {
    const auto s0 = Clock::now();
    runs[i] = launch(*sim.gpus[t], *sim.ops[sim.launches[i].first],
                     sim.launches[i].second);
    if (tracer.enabled()) tracer.record("sim_launch", s0, Clock::now(), i);
  });
  const double secs = seconds_since(start);
  for (const pd::kernels::SpmvRun& run : runs) {
    counters.warp_instrs += run.stats.compute.warp_arith_instrs;
    counters.dram_bytes += run.stats.traffic.dram_bytes();
    counters.per_launch.push_back(run.stats.compute.warp_arith_instrs);
    counters.per_launch.push_back(run.stats.traffic.dram_bytes());
  }
  return secs;
}

/// A sweep's doses: bitwise equal to the native engine in the same mode;
/// the atomics baseline within the rsformat storage bound.
void check_doses(const Simulator& sim, Verdict& verdict) {
  for (const auto& op : sim.ops) {
    verdict.check(same_bits(op->y_hd, op->ref_hd),
                  "sim_profile: Half/Double gpusim dose != native on " + op->name);
    const std::vector<double> y32(op->y32.begin(), op->y32.end());
    verdict.check(same_bits(y32, op->ref_single),
                  "sim_profile: Single gpusim dose != native on " + op->name);
    bool within = true;
    for (std::size_t r = 0; r < op->y_base.size(); ++r) {
      within &= std::fabs(op->y_base[r] - op->ref_exact[r]) <= op->base_bound[r];
    }
    verdict.check(within, "sim_profile: baseline dose outside bound on " + op->name);
  }
}

void build_all_references(Simulator& sim, const std::vector<Beam>& beams) {
  parallel_for(sim.ops.size(), kSimThreads, [&](std::size_t i, unsigned) {
    build_references(*sim.ops[i], *beams[i].matrix);
  });
}

/// Sweeps, at least `min_sweeps` and until `seconds` have passed, each
/// checked: doses against the references, counters against the first
/// sweep's (`reference`, filled by the first call).  `inject` corrupts the
/// second sweep's dose or counter (self-check).  Seconds per sweep.
std::vector<double> sweeps(Simulator& sim, int min_sweeps, double seconds,
                           const std::string& inject, SweepCounters& reference,
                           Tracer& tracer, Verdict& verdict) {
  std::vector<double> times;
  const auto begin = Clock::now();
  while (times.size() < static_cast<std::size_t>(min_sweeps) ||
         seconds_since(begin) < seconds) {
    SweepCounters c;
    times.push_back(sweep(sim, c, tracer));
    if (times.size() == 2 && inject == "counter") c.warp_instrs += 1;
    if (times.size() == 2 && inject == "dose") {
      Operands& op = *sim.ops.front();
      flip_low_bit(op.y_hd[op.y_hd.size() / 2]);
    }
    check_doses(sim, verdict);
    if (reference.per_launch.empty()) {
      reference = c;
    } else {
      verdict.check(c == reference, "sim_profile: gpusim counters did not repeat");
    }
  }
  return times;
}

void report_sim_layers(Metrics& m, const SweepCounters& c, double sweep_s) {
  m.set("sim.warp_instrs", static_cast<double>(c.warp_instrs), "count");
  m.set("sim.dram_bytes", static_cast<double>(c.dram_bytes), "bytes");
  m.set("sim.minstr_per_s", static_cast<double>(c.warp_instrs) / sweep_s / 1e6,
        "Minstr/s");
}

}  // namespace

void profile_sim(Metrics& m, const std::vector<Beam>& beams,
                 const RunOptions& opts, Tracer& tracer, Verdict& verdict) {
  std::unique_ptr<Simulator> sim = make_simulator(beams, opts.seed);
  build_all_references(*sim, beams);
  SweepCounters reference;
  tracer.enable(true);
  const std::vector<double> times =
      sweeps(*sim, kProbeSweeps, 0.0, "", reference, tracer, verdict);
  tracer.enable(false);
  report_sim_layers(m, reference, median(times));
}

RunResult run_sim_profile(const RunOptions& opts, Verdict& verdict) {
  Tracer tracer;
  RunResult result;

  // Set-up, kSetups times (each frees the previous one first, so peak RSS is
  // one set-up's): generation, launch operands for every beam and the
  // warmed-up simulated devices.
  std::vector<Beam> beams;
  std::unique_ptr<Simulator> sim;
  std::vector<double> setup_s, generate_s;
  for (int s = 0; s < kSetups; ++s) {
    sim.reset();
    beams.clear();
    const auto t0 = Clock::now();
    beams = generate_beams(opts.scale, kSimThreads);
    generate_s.push_back(seconds_since(t0));
    sim = make_simulator(beams, opts.seed);
    setup_s.push_back(seconds_since(t0));
  }
  build_all_references(*sim, beams);

  SweepCounters reference;
  const std::vector<double> times =
      sweeps(*sim, kMinSweeps, opts.seconds, opts.inject, reference, tracer, verdict);
  result.attempted = times.size();
  const double sweep_s = median(times);
  double total_s = 0.0;
  for (const double t : times) total_s += t;
  Metrics& m = result.metrics;
  if (!opts.trace) {
    m.set("setup_s", median(setup_s), "s");
    m.set("latency_p50_ms", sweep_s * 1e3, "ms");
    m.set("products_per_s",
          static_cast<double>(times.size() * sim->launches.size()) / total_s,
          "1/s");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    std::cerr << "sim_profile: sweep seconds:";
    for (const double t : times) std::cerr << " " << t;
    std::cerr << "\n";
    return result;
  }
  tracer.enable(true);
  const std::vector<double> traced =
      sweeps(*sim, kMinSweeps, opts.seconds, "", reference, tracer, verdict);
  tracer.enable(false);
  result.attempted += traced.size();
  sim.reset();
  report_triad(m, opts);
  m.set("cases.generate_s", median(generate_s), "s");
  m.set("trace.overhead_pct", 100.0 * (median(traced) - sweep_s) / sweep_s, "%");
  report_sim_layers(m, reference, sweep_s);
  profile_service(m, beams, opts, tracer, verdict);
  profile_opt(m, beams, opts, tracer, verdict);
  if (!opts.trace_out.empty()) tracer.write(opts.trace_out);
  return result;
}

}  // namespace dosebench
