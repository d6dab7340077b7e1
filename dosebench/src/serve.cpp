// serve_churn: the sharded dose service driven from outside in a closed
// loop — two clients running back-to-back optimizer sessions over a plan
// population 3x the total engine-cache capacity, so engine rebuilds
// (MatrixSource + DoseEngine construction) set the tail.  Every dose is
// checked against a sequential DoseEngine::compute.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "gpusim/device.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "kernels/dose_engine.hpp"
#include "kernels/tuner.hpp"
#include "service/shard_router.hpp"
#include "service/sharded_service.hpp"
#include "workloads.hpp"

namespace dosebench {
namespace {

using pd::kernels::DoseEngine;
using pd::service::DoseResult;
using pd::service::RequestStatus;
using pd::service::ShardedDoseService;
using pd::service::ShardedServiceConfig;
using pd::service::ShardedServiceStats;
using pd::service::Ticket;
using Tier = DoseEngine::Tier;
using FastFormat = DoseEngine::FastFormat;

constexpr std::size_t kPoolPerPlan = 8;    ///< Seeded weight vectors per plan.
constexpr double kDeltaFraction = 0.01;    ///< Spots the calibrated delta changes.
constexpr double kMissMs = 1e9;            ///< Latency of a failed request.
constexpr unsigned kBatchCap = 8;
constexpr double kUlp53 = 0x1p-53;
constexpr double kUlp24 = 0x1p-24;

// Session length, clients and engine-cache size.
constexpr std::size_t kSessionRequests = 12;
constexpr int kClients = 2;
constexpr std::size_t kCachePerShard = 2;
/// A window runs until --seconds have passed and at least this many
/// requests completed, so p99 always rests on >= 10 samples beyond it.
constexpr std::uint64_t kMinRequests = 1000;

/// One matrix's seeded weight pool with its sequential references.
struct PlanData {
  std::string name;
  std::vector<std::vector<double>> base, base_ref;  // full requests
  std::vector<double> variant, variant_ref;         // delta of base[0]
};

/// A bitwise engine built the way the service's engine cache builds one.
std::unique_ptr<DoseEngine> make_engine(pd::sparse::CsrF64 m) {
  auto e = std::make_unique<DoseEngine>(
      std::move(m), pd::gpusim::make_a100(),
      DoseEngine::Mode::kHalfDouble, pd::kernels::kDefaultVectorTpb,
      pd::kernels::SpmvFamily::kVector, DoseEngine::Backend::kNative);
  e->set_native_threads(1);
  return e;
}

/// Per-row |fast - bitwise| bound of docs/fast_tier.md for weights x, for
/// the fast container `e` resolved kAuto to.
std::vector<double> fast_bound(const DoseEngine& e, const std::vector<double>& x) {
  const pd::sparse::CsrF64 wide = e.stored_matrix_as_double();
  std::vector<double> col_err;
  if (e.fast_format() == FastFormat::kSellCsQ) {
    for (std::uint32_t c = 0; c < wide.num_cols; ++c) {
      col_err.push_back(1.02 * e.fast_sellq_matrix().max_abs_error(c));
    }
  } else if (e.fast_format() == FastFormat::kRsFormat) {
    for (std::uint32_t c = 0; c < wide.num_cols; ++c) {
      col_err.push_back(1.02 * e.fast_rs_matrix().max_abs_error(c));
    }
  }
  std::vector<double> bound(wide.num_rows, 0.0);
  for (std::uint64_t r = 0; r < wide.num_rows; ++r) {
    double storage = 0.0;
    double magnitude = 0.0;
    for (auto k = wide.row_ptr[r]; k < wide.row_ptr[r + 1]; ++k) {
      const double ax = std::fabs(x[wide.col_idx[k]]);
      const double err = col_err.empty() ? kUlp24 * std::fabs(wide.values[k])
                                         : col_err[wide.col_idx[k]];
      storage += err * ax;
      magnitude += std::fabs(wide.values[k]) * ax;
    }
    bound[r] = storage + 4.0 * static_cast<double>(wide.row_nnz(r)) * kUlp53 *
                             magnitude;
  }
  return bound;
}

bool within_bound(const std::vector<double>& dose,
                  const std::vector<double>& ref,
                  const std::vector<double>& bound) {
  if (dose.size() != ref.size()) return false;
  for (std::size_t r = 0; r < dose.size(); ++r) {
    if (!(std::fabs(dose[r] - ref[r]) <= bound[r])) return false;
  }
  return true;
}

/// Seeded pools and references for every beam, computed outside the timed
/// window on sequential oracle engines (two beams at a time, each oracle
/// freed when done, to keep the benchmark's own memory out of peak RSS).
std::vector<PlanData> build_plans(const std::vector<Beam>& beams,
                                  std::uint64_t seed) {
  std::vector<PlanData> plans(beams.size());
  parallel_for(beams.size(), 2, [&](std::size_t i, unsigned) {
    PlanData& p = plans[i];
    p.name = beams[i].name;
    pd::Rng rng(seed * 1000003ULL + i);
    std::unique_ptr<DoseEngine> oracle = make_engine(pd::sparse::CsrF64(*beams[i].matrix));
    for (std::size_t k = 0; k < kPoolPerPlan; ++k) {
      p.base.push_back(random_weights(rng, oracle->num_spots()));
      p.base_ref.push_back(oracle->compute(p.base.back()));
    }
    p.variant = perturb_weights(rng, p.base[0], kDeltaFraction);
    p.variant_ref = oracle->compute(p.variant);
  });
  return plans;
}

/// Everything a timed window observed.
struct Observed {
  std::vector<double> latency_ms;  ///< From send time; kMissMs if failed.
  std::vector<double> service_ms;  ///< DoseResult::latency_ms (kOk only).
  std::vector<double> submit_us;   ///< Time inside submit.
  struct Ok {
    std::uint32_t plan;
    std::size_t batch;
    double service_ms;
  };
  std::vector<Ok> ok;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;
};

/// What the clients share: the verdict, the tracer and the self-check's
/// one-shot dose corruption.
struct Shared {
  Verdict& verdict;
  Tracer& tracer;
  std::atomic<bool> corrupt_next{false};
};

/// Counters of the timed window (difference of two stats snapshots).
struct Window {
  std::uint64_t hits = 0, misses = 0, evictions = 0, batches = 0,
                batched_requests = 0;
  std::size_t max_depth = 0;
  std::vector<std::uint64_t> routed;
};

Window snapshot(const ShardedServiceStats& s) {
  Window w;
  for (const auto& shard : s.shards) {
    w.hits += shard.cache.hits;
    w.misses += shard.cache.misses;
    w.evictions += shard.cache.evictions;
    w.batches += shard.batches;
    for (std::size_t k = 0; k < shard.batch_size_counts.size(); ++k) {
      w.batched_requests += shard.batch_size_counts[k] * (k + 1);
    }
    w.max_depth = std::max(w.max_depth, shard.max_queue_depth);
  }
  w.routed = s.routed_per_shard;
  return w;
}

Window minus(const Window& after, const Window& before) {
  Window w;
  w.hits = after.hits - before.hits;
  w.misses = after.misses - before.misses;
  w.evictions = after.evictions - before.evictions;
  w.batches = after.batches - before.batches;
  w.batched_requests = after.batched_requests - before.batched_requests;
  w.max_depth = after.max_depth;
  w.routed = after.routed;
  for (std::size_t i = 0; i < w.routed.size() && i < before.routed.size(); ++i) {
    w.routed[i] -= before.routed[i];
  }
  return w;
}

void report_window(Metrics& m, const Window& w) {
  m.set("queue.batch_mean",
        w.batches ? static_cast<double>(w.batched_requests) /
                        static_cast<double>(w.batches)
                  : 0.0,
        "req");
  m.set("queue.max_depth", static_cast<double>(w.max_depth), "req");
  m.set("cache.misses", static_cast<double>(w.misses), "count");
  m.set("cache.hit_ratio",
        w.hits + w.misses ? static_cast<double>(w.hits) /
                                static_cast<double>(w.hits + w.misses)
                          : 0.0,
        "ratio");
  m.set("cache.evictions", static_cast<double>(w.evictions), "count");
  double total = 0.0, peak = 0.0;
  for (const std::uint64_t r : w.routed) {
    total += static_cast<double>(r);
    peak = std::max(peak, static_cast<double>(r));
  }
  m.set("router.skew",
        total > 0 ? peak / (total / static_cast<double>(w.routed.size())) : 0.0,
        "ratio");
}

void report_latency_layers(Metrics& m, const Observed& o) {
  m.set("router.submit_us_p50", pd::percentile(o.submit_us, 50), "us");
  m.set("router.submit_us_p99", pd::percentile(o.submit_us, 99), "us");
  m.set("queue.service_ms_p50", pd::percentile(o.service_ms, 50), "ms");
  m.set("queue.service_ms_p99", pd::percentile(o.service_ms, 99), "ms");
}

/// Direct calls on engines built with the service's parameters, on the same
/// plans and weights: the traced run's per-layer kernel and build numbers.
/// Every output is checked: bitwise and delta doses against the sequential
/// references, the fast dose against the fast tier's per-row bound.
struct Calibration {
  std::vector<double> build_ms;                  // per plan
  std::vector<std::vector<double>> batch_ms;     // per plan, width 1..cap
  std::vector<double> fast_ms, delta_ms, tuner_ms;
  std::uint64_t fast_bytes = 0, touched_rows = 0;
};

template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(ms_between(t0, Clock::now()));
  }
  return median(t);
}

Calibration calibrate(const std::vector<PlanData>& plans,
                      const std::vector<Beam>& beams, Verdict& verdict) {
  Calibration c;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const PlanData& p = plans[i];
    std::unique_ptr<DoseEngine> fresh;
    std::vector<double> builds;
    for (int r = 0; r < 3; ++r) {
      pd::sparse::CsrF64 copy(*beams[i].matrix);
      fresh.reset();
      const auto t0 = Clock::now();
      fresh = make_engine(std::move(copy));
      builds.push_back(ms_between(t0, Clock::now()));
    }
    c.build_ms.push_back(median(builds));
    DoseEngine& e = *fresh;
    pd::kernels::TuneOptions tune;
    tune.trials = 0;  // model-only, as the service would tune: no drift
    c.tuner_ms.push_back(median_ms(1, [&] {
      pd::kernels::apply_tuned(e, pd::kernels::autotune_fast_tier(e, tune));
    }));
    std::vector<double> widths;
    for (std::size_t k = 1; k <= kBatchCap; ++k) {
      std::vector<double> packed;
      for (std::size_t j = 0; j < k; ++j) {
        const auto& w = p.base[j % kPoolPerPlan];
        packed.insert(packed.end(), w.begin(), w.end());
      }
      std::vector<std::vector<double>> lanes;
      widths.push_back(median_ms(k == 1 ? 7 : 3, [&] {
        lanes = k == 1 ? std::vector<std::vector<double>>{e.compute(p.base[0])}
                       : e.compute_batch(packed, k);
      }));
      bool ok = lanes.size() == k;
      for (std::size_t j = 0; ok && j < k; ++j) {
        ok = same_bits(lanes[j], p.base_ref[j % kPoolPerPlan]);
      }
      verdict.check(ok, "calibration: width-" + std::to_string(k) +
                            " dose mismatch on " + p.name);
    }
    c.batch_ms.push_back(widths);
    e.set_tier(Tier::kFast, FastFormat::kAuto);
    std::vector<double> fast;
    c.fast_ms.push_back(median_ms(7, [&] { fast = e.compute(p.base[0]); }));
    verdict.check(within_bound(fast, p.base_ref[0], fast_bound(e, p.base[0])),
                  "calibration: fast dose outside the per-row bound on " + p.name);
    switch (e.fast_format()) {
      case FastFormat::kSellCsQ: c.fast_bytes += e.fast_sellq_matrix().bytes(); break;
      case FastFormat::kSellCs: c.fast_bytes += e.fast_sell_matrix().bytes(); break;
      default: c.fast_bytes += e.fast_rs_matrix().bytes(); break;
    }
    e.set_tier(Tier::kBitwise);
    std::vector<double> delta;
    c.delta_ms.push_back(median_ms(7, [&] {
      delta = e.compute_delta(p.base_ref[0], p.base[0], p.variant);
    }));
    verdict.check(same_bits(delta, p.variant_ref),
                  "calibration: delta dose mismatch on " + p.name);
    c.touched_rows += e.last_delta().touched_rows;
  }
  return c;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// Service latency of each request minus the calibrated kernel time of its
/// plan at its launch width: the time it spent waiting.
void report_wait(Metrics& m, const Observed& o, const Calibration& c) {
  std::vector<double> wait;
  for (const Observed::Ok& ok : o.ok) {
    if (ok.batch >= 1 && ok.batch <= kBatchCap) {
      wait.push_back(ok.service_ms - c.batch_ms[ok.plan][ok.batch - 1]);
    }
  }
  m.set("queue.wait_ms_p50", median(wait), "ms");
}

void report_builds(Metrics& m, const std::vector<PlanData>& plans,
                   const Calibration& c) {
  for (std::size_t i = 0; i < plans.size(); ++i) {
    m.set("engine.build_ms." + plans[i].name, c.build_ms[i], "ms");
  }
}

void report_kernels(Metrics& m, const std::vector<Beam>& beams,
                    const Calibration& c, double triad_gbps) {
  double bytes = 0.0, secs = 0.0;
  for (std::size_t i = 0; i < beams.size(); ++i) {
    m.set("kernel.w1_ms." + beams[i].name, c.batch_ms[i][0], "ms");
    m.set("kernel.w8_ms." + beams[i].name, c.batch_ms[i][kBatchCap - 1], "ms");
    bytes += hd_product_bytes(*beams[i].matrix);
    secs += c.batch_ms[i][0] / 1e3;
  }
  const double gbps = bytes / secs / 1e9;
  m.set("kernel.gbps", gbps, "GB/s");
  m.set("kernel.ceiling_frac", triad_gbps > 0 ? gbps / triad_gbps : 0.0, "ratio");
  m.set("fast.ms", sum(c.fast_ms), "ms");
  m.set("fast.bytes", static_cast<double>(c.fast_bytes), "bytes");
  m.set("delta.ms", sum(c.delta_ms), "ms");
  m.set("delta.touched_rows", static_cast<double>(c.touched_rows), "count");
  m.set("tuner.ms", sum(c.tuner_ms), "ms");
}

pd::service::MatrixSource source_for(std::shared_ptr<const pd::sparse::CsrF64> m,
                                     Tracer& tracer) {
  return [m = std::move(m), &tracer] {
    ScopedSpan span(tracer, "matrix_source");
    return pd::sparse::CsrF64(*m);
  };
}

/// One churn plan: a name of its own over one of the six matrices.
struct ChurnPlan {
  std::string name;
  std::size_t beam;
  int client;
};

/// The churn population: each client owns one plan per beam (12 plans, 3x
/// the 4 cached engines), named by a deterministic search over the real
/// router so each client has half of its plans on each shard.  A client
/// revisits a plan only after a lap over its other five, by which time the
/// shard has evicted it: every session starts with one engine rebuild.
std::vector<ChurnPlan> churn_names(const std::vector<PlanData>& plans,
                                   std::size_t shards) {
  pd::service::ShardRouterConfig rc;
  rc.shards = shards;
  const pd::service::ShardRouter router(rc);
  std::vector<ChurnPlan> names;
  for (int c = 0; c < kClients; ++c) {
    std::vector<std::size_t> quota(shards, 0);
    for (std::size_t i = 0; i < plans.size(); ++i) {
      for (int k = 0;; ++k) {
        std::string name = plans[i].name + ".c" + std::to_string(c) + "." +
                           std::to_string(k);
        const std::size_t shard = router.placement(name).front();
        if (quota[shard] < plans.size() / shards) {
          ++quota[shard];
          names.push_back({std::move(name), i, c});
          break;
        }
      }
    }
  }
  return names;
}

ShardedServiceConfig churn_config() {
  ShardedServiceConfig c;
  c.shards = 2;
  c.replication = 1;
  c.shard.workers = 1;
  c.shard.batch_cap = kBatchCap;
  c.shard.queue_bound = 1u << 16;
  c.shard.engine_cache_capacity = kCachePerShard;
  c.shard.engine.device = pd::gpusim::make_a100();
  c.shard.engine.mode = DoseEngine::Mode::kHalfDouble;
  c.shard.engine.backend = DoseEngine::Backend::kNative;
  c.shard.engine.native_threads = 1;
  return c;
}

/// One closed-loop window: two clients (this thread and one more), each
/// running back-to-back sessions of kSessionRequests sequential bitwise
/// requests to one plan, walking a fresh seeded shuffle of its own plans
/// every lap, until `seconds` have passed and `min_requests` completed.
/// Each dose is verified as it resolves, then dropped.
Observed closed_loop(ShardedDoseService& svc, const std::vector<PlanData>& plans,
                     const std::vector<ChurnPlan>& names, double seconds,
                     std::uint64_t min_requests, std::uint64_t seed, Shared& sh) {
  std::vector<Observed> per(kClients);
  std::atomic<std::uint64_t> completed{0};
  const auto start = Clock::now();
  const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
  Clock::time_point last_done[kClients] = {start, start};
  auto run_client = [&](int c) {
    pd::Rng rng(seed * 6364136223846793005ULL + static_cast<std::uint64_t>(c));
    Observed& out = per[c];
    std::vector<std::size_t> order;
    for (std::size_t n = 0; n < names.size(); ++n) {
      if (names[n].client == c) order.push_back(n);
    }
    std::uint64_t id = static_cast<std::uint64_t>(c) << 40;
    for (;;) {
      std::shuffle(order.begin(), order.end(), rng);
      for (const std::size_t n : order) {
        const PlanData& p = plans[names[n].beam];
        for (std::size_t q = 0; q < kSessionRequests; ++q) {
          if (Clock::now() >= stop && completed.load() >= min_requests) return;
          const std::size_t k = rng.uniform_index(kPoolPerPlan);
          const auto t0 = Clock::now();
          Ticket t = svc.submit(names[n].name, p.base[k]);
          const auto t1 = Clock::now();
          if (sh.tracer.enabled()) sh.tracer.record("submit", t0, t1, ++id);
          out.submit_us.push_back(ms_between(t0, t1) * 1e3);
          ++out.attempted;
          DoseResult r = t.result.get();
          const auto seen = Clock::now();
          last_done[c] = seen;
          completed.fetch_add(1);
          if (r.status != RequestStatus::kOk) {
            ++out.failed;
            out.latency_ms.push_back(kMissMs);
            continue;
          }
          if (sh.corrupt_next.exchange(false) && !r.dose.empty()) {
            flip_low_bit(r.dose[r.dose.size() / 2]);
          }
          sh.verdict.check(same_bits(r.dose, p.base_ref[k]),
                           "serve_churn: dose mismatch on " + names[n].name);
          out.latency_ms.push_back(ms_between(t0, seen));
          out.service_ms.push_back(r.latency_ms);
          out.ok.push_back({static_cast<std::uint32_t>(names[n].beam),
                            r.batch_size, r.latency_ms});
          if (sh.tracer.enabled()) sh.tracer.record("observe", seen, Clock::now(), id);
        }
      }
    }
  };
  auto client = [&](int c) {
    try {
      run_client(c);
    } catch (const std::exception& e) {
      sh.verdict.check(false, std::string("serve_churn client: ") + e.what());
    }
  };
  std::jthread helper(client, 1);  // joined on every way out
  client(0);
  helper.join();
  Observed all;
  for (Observed& o : per) {
    all.attempted += o.attempted;
    all.failed += o.failed;
    all.latency_ms.insert(all.latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
    all.service_ms.insert(all.service_ms.end(), o.service_ms.begin(), o.service_ms.end());
    all.submit_us.insert(all.submit_us.end(), o.submit_us.begin(), o.submit_us.end());
    all.ok.insert(all.ok.end(), o.ok.begin(), o.ok.end());
  }
  all.wall_s = ms_between(start, std::max(last_done[0], last_done[1])) / 1e3;
  return all;
}

/// A fresh churn service with every plan registered and built once, one
/// request at a time (queues stay one deep, so the max depth in ServiceStats
/// speaks for the timed window; each shard ends holding two plans and
/// first-build costs are paid here).
std::unique_ptr<ShardedDoseService> start_service(
    const std::vector<Beam>& beams, const std::vector<PlanData>& plans,
    const std::vector<ChurnPlan>& names, Tracer& tracer, Verdict& verdict) {
  auto svc = std::make_unique<ShardedDoseService>(churn_config());
  for (const ChurnPlan& n : names) {
    svc->register_plan(n.name, source_for(beams[n.beam].matrix, tracer));
  }
  for (const ChurnPlan& n : names) {
    DoseResult r = svc->submit(n.name, plans[n.beam].base[0]).result.get();
    verdict.check(r.status == RequestStatus::kOk &&
                      same_bits(r.dose, plans[n.beam].base_ref[0]),
                  "serve_churn: warm-up dose mismatch on " + n.name);
  }
  return svc;
}

/// A closed-loop window with the service counters it moved.
std::pair<Observed, Window> run_window(ShardedDoseService& svc,
                                       const std::vector<PlanData>& plans,
                                       const std::vector<ChurnPlan>& names,
                                       double seconds, std::uint64_t min_requests,
                                       std::uint64_t seed, Shared& sh) {
  const Window before = snapshot(svc.stats());
  Observed o = closed_loop(svc, plans, names, seconds, min_requests, seed, sh);
  return {std::move(o), minus(snapshot(svc.stats()), before)};
}

/// The router, queue, cache and kernel layers: what a traced window saw,
/// then the calibration of direct calls on the same plans.
void report_service_layers(Metrics& m, const Observed& o, const Window& w,
                           const std::vector<PlanData>& plans,
                           const std::vector<Beam>& beams, const Tracer& tracer,
                           const RunOptions& opts, Verdict& verdict) {
  const Calibration cal = calibrate(plans, beams, verdict);
  report_latency_layers(m, o);
  report_window(m, w);
  report_wait(m, o, cal);
  m.set("cache.source_ms_p50", median(tracer.durations_ms("matrix_source")), "ms");
  report_builds(m, plans, cal);
  report_kernels(m, beams, cal, median(opts.triad));
}

/// The service probe of the other workloads' traced runs: a window this
/// long (at least kProbeRequests requests) on a service set up once.
constexpr double kProbeSeconds = 3.0;
constexpr std::uint64_t kProbeRequests = 200;

}  // namespace

void profile_service(Metrics& m, const std::vector<Beam>& beams,
                     const RunOptions& opts, Tracer& tracer, Verdict& verdict) {
  Shared sh{verdict, tracer};
  const std::vector<PlanData> plans = build_plans(beams, opts.seed);
  const std::vector<ChurnPlan> names = churn_names(plans, 2);
  auto svc = start_service(beams, plans, names, tracer, verdict);
  tracer.enable(true);
  auto [o, w] = run_window(*svc, plans, names, std::min(opts.seconds, kProbeSeconds),
                           kProbeRequests, opts.seed * 2654435761ULL + 2, sh);
  tracer.enable(false);
  svc.reset();
  report_service_layers(m, o, w, plans, beams, tracer, opts, verdict);
}

RunResult run_serve_churn(const RunOptions& opts, Verdict& verdict) {
  Tracer tracer;
  Shared sh{verdict, tracer};
  RunResult result;

  // Set-up, kSetups times (each frees the previous one first, so peak RSS is
  // one set-up's): generation, then every plan built once by filling the
  // caches.  The weight pool's references are computed once, in the first
  // set-up, and are not set-up time.
  std::vector<Beam> beams;
  std::unique_ptr<ShardedDoseService> svc;
  std::vector<PlanData> plans;
  std::vector<ChurnPlan> names;
  std::vector<double> setup_s, generate_s;
  for (int s = 0; s < kSetups; ++s) {
    svc.reset();
    beams.clear();
    const auto t0 = Clock::now();
    beams = generate_beams(opts.scale, 4);
    generate_s.push_back(seconds_since(t0));
    double refs_s = 0.0;
    if (plans.empty()) {
      const auto r0 = Clock::now();
      plans = build_plans(beams, opts.seed);
      names = churn_names(plans, 2);
      refs_s = seconds_since(r0);
    }
    svc = start_service(beams, plans, names, tracer, verdict);
    setup_s.push_back(seconds_since(t0) - refs_s);
  }

  auto window = [&](std::uint64_t salt) {
    return run_window(*svc, plans, names, opts.seconds, kMinRequests,
                      opts.seed * 2654435761ULL + salt, sh);
  };
  if (!opts.inject.empty()) sh.corrupt_next = (opts.inject == "dose");
  auto [o, win] = window(0);
  result.attempted = o.attempted;
  result.failed = o.failed;
  Metrics& m = result.metrics;
  const double throughput =
      static_cast<double>(o.attempted - o.failed) / o.wall_s;
  if (!opts.trace) {
    m.set("setup_s", median(setup_s), "s");
    m.set("latency_p50_ms", pd::percentile(o.latency_ms, 50), "ms");
    m.set("products_per_s", throughput, "1/s");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    std::cerr << "serve_churn: " << o.attempted << " req, " << win.misses
              << " engine-cache misses, p99 "
              << pd::percentile(o.latency_ms, 99) << " ms\n";
    return result;
  }
  tracer.enable(true);
  auto [to, twin] = window(1);
  tracer.enable(false);
  svc.reset();
  result.attempted += to.attempted;
  result.failed += to.failed;
  report_triad(m, opts);
  m.set("cases.generate_s", median(generate_s), "s");
  const double traced = static_cast<double>(to.attempted - to.failed) / to.wall_s;
  m.set("trace.overhead_pct", 100.0 * (throughput - traced) / throughput, "%");
  report_service_layers(m, to, twin, plans, beams, tracer, opts, verdict);
  profile_opt(m, beams, opts, tracer, verdict);
  profile_sim(m, beams, opts, tracer, verdict);
  if (!opts.trace_out.empty()) tracer.write(opts.trace_out);
  return result;
}

}  // namespace dosebench
