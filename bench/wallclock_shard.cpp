// Wallclock of ShardedDoseService plan-locality scaling on Liver 1.
//
// A clinic-scale optimizer fleet works dozens of plans at once, and the
// per-shard engine cache is the scarce resource: every cache miss rebuilds a
// native engine (format conversion + device setup), which costs many times a
// single dose compute.  The sharded tier's consistent-hash placement
// (src/service/shard_router.*) partitions the plan population so each
// shard's working set fits its cache — the aggregate cache grows with the
// shard count while every request still lands on a shard that already holds
// its plan's engine.
//
// This bench measures exactly that effect: served requests per second for a
// fixed 8-plan round-robin request stream through 1, 2, and 4 shards with
// identical per-shard configuration (1 worker, engine_cache_capacity 4).
// At 1 shard the 8-plan working set cycles through a 4-entry LRU cache and
// every batch rebuilds its engine; at 2+ shards each shard owns at most 4
// plans and the steady state is all cache hits.  The plan names are chosen
// (by deterministic search over the real ShardRouter) so placement is
// balanced at both 2 and 4 shards — the bench isolates cache locality, not
// placement luck.  Every configuration returns bitwise-identical doses
// (verified in-run, and the property battery lives in
// tests/test_shard_router.cpp), so this is purely a throughput trade.
// Results land in bench_results/wallclock_shard.csv and BENCH_shard.json;
// scripts/check_bench_results.sh gates the two headline speedups.

#include <array>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "gpusim/simcheck.hpp"
#include "service/shard_router.hpp"
#include "service/sharded_service.hpp"
#include "sparse/random.hpp"

namespace {

constexpr std::size_t kPlans = 8;
constexpr std::size_t kRequests = 128;  // divisible by kPlans
constexpr std::size_t kRounds = 4;

struct ConfigResult {
  std::size_t shards = 0;
  double req_per_s = 0.0;
  double speedup = 0.0;
  std::uint64_t cache_misses = 0;
  double mean_batch = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

std::string fmt(double v, int prec = 3) {
  std::ostringstream os;
  os << std::setprecision(prec) << std::fixed << v;
  return os.str();
}

/// Plan names whose first-choice placement is balanced at BOTH 2 and 4
/// shards (4+4 and 2+2+2+2).  Deterministic greedy search over the real
/// router: candidate "plan-<k>" is kept iff neither shard quota is full.
std::vector<std::string> pick_plan_names() {
  pd::service::ShardRouterConfig two;
  two.shards = 2;
  pd::service::ShardRouterConfig four;
  four.shards = 4;
  const pd::service::ShardRouter r2(two);
  const pd::service::ShardRouter r4(four);
  std::array<std::size_t, 2> quota2{};
  std::array<std::size_t, 4> quota4{};
  std::vector<std::string> names;
  for (int k = 0; names.size() < kPlans; ++k) {
    std::string name = "plan-" + std::to_string(k);
    const std::size_t s2 = r2.placement(name).front();
    const std::size_t s4 = r4.placement(name).front();
    if (quota2[s2] < kPlans / 2 && quota4[s4] < kPlans / 4) {
      ++quota2[s2];
      ++quota4[s4];
      names.push_back(std::move(name));
    }
  }
  return names;
}

/// One replay through a warmed service: submit the whole stream round-robin
/// across the plans, drain, check every dose arrived kOk.  Returns elapsed
/// seconds; when `doses` is non-null the per-request doses are copied out
/// for the cross-configuration bitwise check.
double replay_once(pd::service::ShardedDoseService& service,
                   const std::vector<std::string>& plans,
                   const std::vector<std::vector<double>>& stream,
                   std::vector<std::vector<double>>* doses = nullptr) {
  std::vector<pd::service::Ticket> tickets;
  tickets.reserve(stream.size());
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    tickets.push_back(service.submit(plans[i % plans.size()], stream[i]));
  }
  service.drain();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (pd::service::Ticket& ticket : tickets) {
    pd::service::DoseResult result = ticket.result.get();
    if (result.status != pd::service::RequestStatus::kOk) {
      throw pd::Error("wallclock_shard: request did not complete kOk");
    }
    if (doses != nullptr) {
      doses->push_back(std::move(result.dose));
    }
  }
  return elapsed;
}

bool bitwise_equal(const std::vector<std::vector<double>>& a,
                   const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    if (std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(double)) !=
        0) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  const double scale = pd::bench::bench_scale();
  pd::bench::print_banner(
      "wallclock_shard",
      "ShardedDoseService plan-locality scaling (served req/s)", scale);
  const auto beams = pd::bench::load_case_beams("liver", scale);
  const auto& beam = beams.front();
  const pd::sparse::CsrF64& matrix = beam.matrix;

  const std::vector<std::string> plans = pick_plan_names();
  pd::Rng rng(2026);
  std::vector<std::vector<double>> stream(kRequests);
  for (auto& weights : stream) {
    weights = pd::sparse::random_vector(rng, matrix.num_cols, 0.5, 2.0);
  }

  // One live service per shard count, identical per-shard configuration.
  // Warmed up front (the warm replay doubles as the bitwise cross-check),
  // then timed in interleaved rounds (pd::bench::min_over_rounds).
  const std::size_t kShardCounts[] = {1, 2, 4};
  std::vector<std::unique_ptr<pd::service::ShardedDoseService>> services;
  std::vector<ConfigResult> results;
  std::vector<std::vector<double>> reference_doses;
  bool bitwise_ok = true;
  for (const std::size_t shards : kShardCounts) {
    pd::service::ShardedServiceConfig config;
    config.shards = shards;
    config.replication = 1;
    config.shard.workers = 1;
    config.shard.batch_cap = 4;
    config.shard.queue_bound = 2 * kRequests;  // hold the replay: no rejects
    config.shard.flush_deadline_ms = 0.5;
    config.shard.engine_cache_capacity = 4;  // 8-plan set fits only sharded
    config.shard.engine.device = pd::gpusim::make_a100();
    config.shard.engine.backend = pd::kernels::DoseEngine::Backend::kNative;
    services.push_back(
        std::make_unique<pd::service::ShardedDoseService>(config));
    for (const std::string& plan : plans) {
      services.back()->register_plan(
          plan, [&matrix] { return pd::sparse::CsrF64(matrix); });
    }
    std::vector<std::vector<double>> doses;
    replay_once(*services.back(), plans, stream, &doses);
    if (reference_doses.empty()) {
      reference_doses = std::move(doses);
    } else if (!bitwise_equal(reference_doses, doses)) {
      bitwise_ok = false;
    }
    ConfigResult r;
    r.shards = shards;
    results.push_back(r);
  }
  if (!bitwise_ok) {
    throw pd::Error("wallclock_shard: doses differ across shard counts");
  }

  const std::vector<double> best_s = pd::bench::min_over_rounds(
      services.size(), kRounds,
      [&](std::size_t i) { return replay_once(*services[i], plans, stream); });
  for (std::size_t i = 0; i < services.size(); ++i) {
    const pd::service::ShardedServiceStats stats = services[i]->stats();
    results[i].req_per_s = static_cast<double>(kRequests) / best_s[i];
    results[i].speedup = results[i].req_per_s / results[0].req_per_s;
    double batch_requests = 0.0;
    double batches = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
    for (const pd::service::ServiceStats& shard : stats.shards) {
      results[i].cache_misses += shard.cache.misses;
      batches += static_cast<double>(shard.batches);
      batch_requests += static_cast<double>(shard.batches) *
                        shard.mean_batch_size();
      p50 = std::max(p50, shard.p50_latency_ms);
      p99 = std::max(p99, shard.p99_latency_ms);
    }
    results[i].mean_batch = batches > 0.0 ? batch_requests / batches : 0.0;
    results[i].p50_ms = p50;
    results[i].p99_ms = p99;
  }
  services.clear();

  const double speedup2 = results[1].speedup;
  const double speedup4 = results[2].speedup;

  pd::TextTable table({"shards", "req/s", "speedup", "cache misses",
                       "mean batch", "p50 ms", "p99 ms"});
  for (const ConfigResult& r : results) {
    table.add_row({std::to_string(r.shards), fmt(r.req_per_s, 1),
                   fmt(r.speedup, 2), std::to_string(r.cache_misses),
                   fmt(r.mean_batch, 2), fmt(r.p50_ms, 2), fmt(r.p99_ms, 2)});
  }
  std::cout << table.str() << "\n";
  std::cout << "headline: " << fmt(speedup2, 2) << "x at 2 shards, "
            << fmt(speedup4, 2)
            << "x at 4 shards served throughput vs 1 shard (8 plans, "
               "per-shard cache 4; doses bitwise identical)\n\n";

  std::vector<std::vector<std::string>> rows;
  for (const ConfigResult& r : results) {
    rows.push_back({beam.label, std::to_string(r.shards), fmt(r.req_per_s, 1),
                    fmt(r.speedup, 3), std::to_string(r.cache_misses),
                    fmt(r.mean_batch, 2), fmt(r.p50_ms, 2),
                    fmt(r.p99_ms, 2)});
  }
  pd::bench::write_csv("wallclock_shard",
                       {"beam", "shards", "req_per_s", "speedup",
                        "cache_misses", "mean_batch", "p50_ms", "p99_ms"},
                       rows);

  std::ofstream json("BENCH_shard.json");
  json << "{\n";
  json << "  \"bench\": \"wallclock_shard\",\n";
  json << "  \"beam\": \"" << beam.label << "\",\n";
  json << "  \"scale\": " << scale << ",\n";
  json << "  \"kernel\": \"ShardedDoseService -> DoseService compute_batch "
          "(native, kHalfDouble)\",\n";
  // DoseEngine auto-enables the analyzer under PROTONDOSE_SIMCHECK; brand the
  // record so scripts/check_bench_results.sh can reject checked-run numbers.
  json << "  \"simcheck\": "
       << (pd::gpusim::simcheck_env_enabled() ? "true" : "false") << ",\n";
  json << "  \"requests\": " << kRequests << ",\n";
  json << "  \"plans\": " << kPlans << ",\n";
  json << "  \"engine_cache_capacity\": 4,\n";
  json << "  \"bitwise_identical\": " << (bitwise_ok ? "true" : "false")
       << ",\n";
  json << "  \"configs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    json << "    {\"shards\": " << r.shards
         << ", \"req_per_s\": " << fmt(r.req_per_s, 1)
         << ", \"speedup\": " << fmt(r.speedup, 3)
         << ", \"cache_misses\": " << r.cache_misses
         << ", \"mean_batch_size\": " << fmt(r.mean_batch, 2)
         << ", \"p50_ms\": " << fmt(r.p50_ms, 2)
         << ", \"p99_ms\": " << fmt(r.p99_ms, 2) << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"headline\": {\"baseline_shards\": 1, "
          "\"speedup_2_shards\": "
       << fmt(speedup2, 3) << ", \"speedup_4_shards\": " << fmt(speedup4, 3)
       << "}\n";
  json << "}\n";
  std::cout << "wrote BENCH_shard.json\n";
  return 0;
}
