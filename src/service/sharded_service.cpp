#include "service/sharded_service.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "sparse/partition.hpp"

namespace pd::service {
namespace {

// Worst-status-wins precedence for merging slice results: a merged request
// is kOk only when every slice is, and a transient refusal (kRejected) never
// masks a terminal failure.
int severity(RequestStatus status) {
  switch (status) {
    case RequestStatus::kOk:
      return 0;
    case RequestStatus::kRejected:
      return 1;
    case RequestStatus::kCancelled:
      return 2;
    case RequestStatus::kDeadlineExpired:
      return 3;
    case RequestStatus::kFailed:
      return 4;
  }
  return 4;
}

}  // namespace

ShardedDoseService::ShardedDoseService(ShardedServiceConfig config)
    : config_(std::move(config)),
      router_(ShardRouterConfig{.shards = config_.shards,
                                .replication = config_.replication,
                                .vnodes = config_.vnodes}) {
  // The router already validated shards/vnodes; mirror its replication clamp
  // so config() reports what routing actually does.
  config_.replication =
      std::clamp<std::size_t>(config_.replication, 1, config_.shards);
  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    shards_.push_back(std::make_unique<DoseService>(config_.shard));
  }
  routed_per_shard_.assign(config_.shards, 0);
}

void ShardedDoseService::register_plan(const std::string& plan,
                                       MatrixSource source) {
  std::lock_guard<pd::Mutex> lock(mu_);
  PD_CHECK_MSG(sliced_.find(plan) == sliced_.end(),
               "register_plan: plan is already registered in sliced mode");
  plans_.insert(plan);
  for (const auto& shard : shards_) {
    shard->register_plan(plan, source);
  }
}

void ShardedDoseService::register_plan_sliced(const std::string& plan,
                                              MatrixSource source,
                                              std::size_t slices) {
  PD_CHECK_MSG(slices >= 1, "register_plan_sliced: need at least one slice");
  PD_CHECK_MSG(config_.shard.engine.family == kernels::SpmvFamily::kVector,
               "register_plan_sliced: row-block slicing is bitwise-safe only "
               "for the warp-per-row (vector) kernel family");
  // Partition outside the lock: the source may be expensive and mu_ is never
  // held across matrix generation.
  const sparse::CsrF64 matrix = source();
  const sparse::RowPartition partition =
      sparse::balanced_row_partition(matrix, slices);
  SlicedPlan entry;
  entry.boundaries = partition.boundaries;
  entry.sub_plans.reserve(slices);
  for (std::size_t i = 0; i < slices; ++i) {
    entry.sub_plans.push_back(plan + "#slice" + std::to_string(i) + "/" +
                              std::to_string(slices));
  }
  std::lock_guard<pd::Mutex> lock(mu_);
  PD_CHECK_MSG(plans_.find(plan) == plans_.end(),
               "register_plan_sliced: plan is already registered whole");
  for (std::size_t i = 0; i < slices; ++i) {
    const std::uint64_t begin = partition.boundaries[i];
    const std::uint64_t end = partition.boundaries[i + 1];
    // Deterministic source => deterministic block: an evicted slice engine
    // rebuilds bit-identical, same as any whole-plan source.
    MatrixSource sub = [source, begin, end]() {
      return sparse::extract_row_block(source(), begin, end);
    };
    for (const auto& shard : shards_) {
      shard->register_plan(entry.sub_plans[i], sub);
    }
  }
  sliced_[plan] = std::move(entry);
}

std::uint64_t ShardedDoseService::encode_id(std::size_t shard,
                                            std::uint64_t inner_id) {
  return ((static_cast<std::uint64_t>(shard) + 1) << 48) |
         (inner_id & ((std::uint64_t{1} << 48) - 1));
}

Ticket ShardedDoseService::resolved_ticket(std::uint64_t id,
                                           DoseResult result) {
  std::promise<DoseResult> promise;
  Ticket ticket;
  ticket.id = id;
  ticket.accepted = false;
  ticket.result = promise.get_future();
  promise.set_value(std::move(result));
  return ticket;
}

template <typename SubmitFn>
ShardedDoseService::Routed ShardedDoseService::route_submit_locked(
    const std::string& plan, RequestPriority priority, SubmitFn&& fn) {
  Routed out;
  std::vector<std::size_t> candidates = router_.route(plan);
  if (candidates.empty()) {
    out.immediate.status = RequestStatus::kFailed;
    out.immediate.error = "sharded service: no active shard";
    ++failed_immediate_;
    return out;
  }
  // Least-loaded first; stable sort keeps ring order as the tie-break so
  // equal-depth routing stays deterministic.  Depths are snapshotted before
  // sorting: workers pop concurrently, and a comparator reading live depths
  // can answer inconsistently mid-sort, which is undefined behavior.
  std::vector<std::pair<std::size_t, std::size_t>> by_depth;
  by_depth.reserve(candidates.size());
  for (const std::size_t shard : candidates) {
    by_depth.emplace_back(shards_[shard]->queue_depth(), shard);
  }
  std::stable_sort(by_depth.begin(), by_depth.end(),
                   [](const std::pair<std::size_t, std::size_t>& a,
                      const std::pair<std::size_t, std::size_t>& b) {
                     return a.first < b.first;
                   });
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    candidates[i] = by_depth[i].second;
  }
  if (priority == RequestPriority::kBulk) {
    const double depth = static_cast<double>(by_depth.front().first);
    const double threshold = config_.bulk_admit_fraction *
                             static_cast<double>(config_.shard.queue_bound);
    if (depth >= threshold) {
      out.immediate.status = RequestStatus::kRejected;
      out.immediate.retry_after_ms =
          shards_[candidates.front()]->retry_after_estimate();
      ++rejected_;
      ++admission_rejected_;
      return out;
    }
  }
  const std::vector<std::size_t> replicas = router_.placement(plan);
  double min_retry = 0.0;
  bool have_retry = false;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const std::size_t shard = candidates[i];
    Ticket ticket = fn(shard);
    if (ticket.accepted) {
      ++accepted_;
      ++routed_per_shard_[shard];
      if (i != 0) {
        ++replica_spills_;
      }
      if (std::find(replicas.begin(), replicas.end(), shard) ==
          replicas.end()) {
        ++rerouted_;
      }
      out.accepted = true;
      out.shard = shard;
      out.ticket = std::move(ticket);
      return out;
    }
    // Refused tickets are resolved synchronously inside submit; get() here
    // never blocks.
    DoseResult refused = ticket.result.get();
    if (refused.status == RequestStatus::kRejected) {
      // Backpressure is per shard: spill to the next replica, remembering
      // the friendliest retry hint in case every one is saturated.
      if (!have_retry || refused.retry_after_ms < min_retry) {
        min_retry = refused.retry_after_ms;
        have_retry = true;
      }
      continue;
    }
    // kFailed (unknown plan, null base...) is plan-level, not shard-level —
    // every shard has the same registrations, so retrying elsewhere would
    // only repeat it.
    out.immediate = std::move(refused);
    ++failed_immediate_;
    return out;
  }
  out.immediate.status = RequestStatus::kRejected;
  out.immediate.retry_after_ms = have_retry ? min_retry : 0.0;
  ++rejected_;
  return out;
}

template <typename SubmitFn>
Ticket ShardedDoseService::submit_whole_locked(const std::string& plan,
                                               RequestPriority priority,
                                               SubmitFn&& fn) {
  Routed routed = route_submit_locked(plan, priority, fn);
  if (!routed.accepted) {
    return resolved_ticket(0, std::move(routed.immediate));
  }
  Ticket out;
  out.id = encode_id(routed.shard, routed.ticket.id);
  out.accepted = true;
  out.result = std::move(routed.ticket.result);
  return out;
}

Ticket ShardedDoseService::submit_sliced_locked(
    const SlicedPlan& sliced, const std::vector<double>& weights,
    const SubmitOptions& options) {
  const std::size_t slices = sliced.sub_plans.size();
  std::vector<SliceTicket> tickets;
  std::vector<std::future<DoseResult>> futures;
  tickets.reserve(slices);
  futures.reserve(slices);
  for (std::size_t i = 0; i < slices; ++i) {
    Routed routed = route_submit_locked(
        sliced.sub_plans[i], options.priority, [&](std::size_t shard) {
          return shards_[shard]->submit(sliced.sub_plans[i], weights, options);
        });
    if (!routed.accepted) {
      // All-or-nothing: cancel the slices already queued and surface the
      // refusal for the whole request — a sliced result is never partial.
      for (const SliceTicket& st : tickets) {
        shards_[st.shard]->cancel(st.inner_id);
      }
      DoseResult refused = std::move(routed.immediate);
      refused.error = "slice " + std::to_string(i) + "/" +
                      std::to_string(slices) + " refused" +
                      (refused.error.empty() ? "" : ": " + refused.error);
      return resolved_ticket(0, std::move(refused));
    }
    tickets.push_back(SliceTicket{routed.shard, routed.ticket.id});
    futures.push_back(std::move(routed.ticket.result));
  }
  const std::uint64_t id = (std::uint64_t{1} << 63) | next_slice_seq_++;
  slice_tickets_[id] = tickets;
  slice_ticket_order_.push_back(id);
  while (slice_ticket_order_.size() > config_.slice_window) {
    slice_tickets_.erase(slice_ticket_order_.front());
    slice_ticket_order_.pop_front();
  }
  // Deferred merge: the gather runs on the caller's get(), on the caller's
  // thread — the router stays threadless and no lock is held while waiting.
  Ticket out;
  out.id = id;
  out.accepted = true;
  out.result = std::async(
      std::launch::deferred,
      [parts = std::move(futures), slices]() mutable {
        std::vector<DoseResult> results;
        results.reserve(parts.size());
        for (auto& part : parts) {
          results.push_back(part.get());
        }
        DoseResult merged;
        merged.status = RequestStatus::kOk;
        std::size_t worst = 0;
        for (std::size_t i = 0; i < results.size(); ++i) {
          if (severity(results[i].status) > severity(merged.status)) {
            merged.status = results[i].status;
            worst = i;
          }
          merged.latency_ms = std::max(merged.latency_ms, results[i].latency_ms);
          merged.batch_size = std::max(merged.batch_size, results[i].batch_size);
          merged.retry_after_ms =
              std::max(merged.retry_after_ms, results[i].retry_after_ms);
        }
        if (merged.status != RequestStatus::kOk) {
          merged.error =
              "slice " + std::to_string(worst) + "/" + std::to_string(slices) +
              ": " + to_string(results[worst].status) +
              (results[worst].error.empty() ? ""
                                            : " (" + results[worst].error + ")");
          return merged;
        }
        // Ordered concatenation over the row partition — bitwise identical
        // to the full-matrix product (sparse/partition.hpp).
        std::size_t rows = 0;
        for (const DoseResult& r : results) {
          rows += r.dose.size();
        }
        merged.dose.reserve(rows);
        for (const DoseResult& r : results) {
          merged.dose.insert(merged.dose.end(), r.dose.begin(), r.dose.end());
        }
        return merged;
      });
  return out;
}

Ticket ShardedDoseService::submit(const std::string& plan,
                                  std::vector<double> weights,
                                  const SubmitOptions& options) {
  std::lock_guard<pd::Mutex> lock(mu_);
  ++submitted_;
  if (const auto it = sliced_.find(plan); it != sliced_.end()) {
    ++sliced_submits_;
    return submit_sliced_locked(it->second, weights, options);
  }
  // The lambda copies the weights per attempt: DoseService::submit consumes
  // its argument even when it refuses, and a spill needs them again.
  return submit_whole_locked(plan, options.priority, [&](std::size_t shard) {
    return shards_[shard]->submit(plan, weights, options);
  });
}

Ticket ShardedDoseService::submit_delta(const std::string& plan,
                                        std::shared_ptr<const DeltaBase> base,
                                        std::vector<double> new_weights,
                                        const DeltaOptions& options) {
  std::lock_guard<pd::Mutex> lock(mu_);
  ++submitted_;
  if (sliced_.find(plan) != sliced_.end()) {
    DoseResult result;
    result.status = RequestStatus::kFailed;
    result.error =
        "sliced plans do not support delta requests (a delta base holds a "
        "full dose, which no single slice shard can update)";
    ++failed_immediate_;
    return resolved_ticket(0, std::move(result));
  }
  return submit_whole_locked(plan, options.priority, [&](std::size_t shard) {
    return shards_[shard]->submit_delta(plan, base, new_weights, options);
  });
}

bool ShardedDoseService::cancel(std::uint64_t id) {
  std::lock_guard<pd::Mutex> lock(mu_);
  ++cancels_routed_;
  if ((id >> 63) != 0) {
    const auto it = slice_tickets_.find(id);
    if (it == slice_tickets_.end()) {
      return false;  // Unknown or past the bookkeeping window.
    }
    bool any = false;
    for (const SliceTicket& st : it->second) {
      any = shards_[st.shard]->cancel(st.inner_id) || any;
    }
    slice_tickets_.erase(it);
    return any;
  }
  const std::uint64_t shard_plus_one = id >> 48;
  if (shard_plus_one == 0 || shard_plus_one > shards_.size()) {
    return false;
  }
  return shards_[shard_plus_one - 1]->cancel(id &
                                             ((std::uint64_t{1} << 48) - 1));
}

void ShardedDoseService::drain() {
  // No mu_: drain blocks on in-flight compute, and routing keeps working
  // while a drain waits.
  for (const auto& shard : shards_) {
    shard->drain();
  }
}

void ShardedDoseService::drain_shard(std::size_t shard) {
  PD_CHECK_MSG(shard < shards_.size(), "drain_shard: shard out of range");
  {
    std::lock_guard<pd::Mutex> lock(mu_);
    router_.set_health(shard, ShardHealth::kDraining);
  }
  // New submits reroute from here on; wait out the queue without holding
  // mu_ (drain blocks on compute, and other shards keep serving).
  shards_[shard]->drain();
  {
    std::lock_guard<pd::Mutex> lock(mu_);
    // resume_shard may have raced the drain; only a still-draining shard
    // parks in kStopped.
    if (router_.health(shard) == ShardHealth::kDraining) {
      router_.set_health(shard, ShardHealth::kStopped);
    }
  }
}

void ShardedDoseService::resume_shard(std::size_t shard) {
  PD_CHECK_MSG(shard < shards_.size(), "resume_shard: shard out of range");
  std::lock_guard<pd::Mutex> lock(mu_);
  router_.set_health(shard, ShardHealth::kActive);
}

ShardHealth ShardedDoseService::shard_health(std::size_t shard) const {
  PD_CHECK_MSG(shard < shards_.size(), "shard_health: shard out of range");
  std::lock_guard<pd::Mutex> lock(mu_);
  return router_.health(shard);
}

ShardedServiceStats ShardedDoseService::stats() const {
  std::lock_guard<pd::Mutex> lock(mu_);
  ShardedServiceStats out;
  out.submitted = submitted_;
  out.accepted = accepted_;
  out.rejected = rejected_;
  out.admission_rejected = admission_rejected_;
  out.failed_immediate = failed_immediate_;
  out.rerouted = rerouted_;
  out.replica_spills = replica_spills_;
  out.sliced_submits = sliced_submits_;
  out.cancels_routed = cancels_routed_;
  out.routed_per_shard = routed_per_shard_;
  out.health.reserve(shards_.size());
  out.oldest_head_age_us.reserve(shards_.size());
  out.shards.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    out.health.push_back(router_.health(s));
    out.shards.push_back(shards_[s]->stats());
    const std::optional<std::uint64_t> age =
        shards_[s]->oldest_ready_head_age_us();
    out.oldest_head_age_us.push_back(age ? static_cast<double>(*age) : -1.0);
  }
  return out;
}

}  // namespace pd::service
