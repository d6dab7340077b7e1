#include "service/dose_service.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace pd::service {
namespace {

// Recent-latency window for the p50/p99 snapshot.  Power of two, bounded so
// a long-lived service never grows it.
constexpr std::size_t kLatencyWindow = 1u << 15;

// BatchQueue exec_key encoding: batches are uniform in tier *and* fast
// format, so one engine reconfiguration covers the whole launch.
std::uint32_t exec_key_for(const SubmitOptions& options) {
  if (options.tier == kernels::DoseEngine::Tier::kBitwise) {
    return 0;
  }
  switch (options.fast_format) {
    case kernels::DoseEngine::FastFormat::kRsFormat:
      return 1;
    case kernels::DoseEngine::FastFormat::kSellCs:
      return 2;
    case kernels::DoseEngine::FastFormat::kSellCsQ:
      return 3;
    case kernels::DoseEngine::FastFormat::kAuto:
      // All kAuto requests on one plan resolve to the same tuned format, so
      // batching them together is still uniform after resolution.
      return 4;
  }
  return 2;
}

// Delta requests get their own key space (top bit) so they never coalesce
// with full computes, split by mode (bit 30) and by the caller's base key —
// requests updating the same base dose batch together.
std::uint32_t delta_exec_key_for(std::uint32_t base_key,
                                 kernels::DoseEngine::DeltaMode mode) {
  const std::uint32_t fast_bit =
      mode == kernels::DoseEngine::DeltaMode::kFast ? 0x40000000u : 0u;
  return 0x80000000u | fast_bit | (base_key & 0x3FFFFFFFu);
}

}  // namespace

const char* to_string(RequestPriority priority) {
  switch (priority) {
    case RequestPriority::kInteractive:
      return "interactive";
    case RequestPriority::kBulk:
      return "bulk";
  }
  return "unknown";
}

const char* to_string(RequestStatus status) {
  switch (status) {
    case RequestStatus::kOk:
      return "ok";
    case RequestStatus::kRejected:
      return "rejected";
    case RequestStatus::kCancelled:
      return "cancelled";
    case RequestStatus::kDeadlineExpired:
      return "deadline_expired";
    case RequestStatus::kFailed:
      return "failed";
  }
  return "unknown";
}

DoseService::DoseService(ServiceConfig config)
    : config_(config),
      cache_(config.engine_cache_capacity, config.engine),
      start_(std::chrono::steady_clock::now()),
      queue_(BatchQueueConfig{
          config.batch_cap, config.queue_bound,
          static_cast<std::uint64_t>(
              std::max(0.0, config.flush_deadline_ms) * 1000.0)}) {
  PD_CHECK_MSG(config_.workers >= 1, "DoseService: workers must be >= 1");
  batch_size_counts_.assign(config_.batch_cap, 0);
  workers_.reserve(config_.workers);
  for (unsigned i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

DoseService::~DoseService() {
  {
    std::lock_guard<pd::Mutex> lock(mu_);
    accepting_ = false;
    draining_ = true;
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  // Workers exit only once the queue is empty and no batch is in flight, so
  // every accepted request has been resolved; nothing to clean up.
}

void DoseService::register_plan(const std::string& plan, MatrixSource source) {
  cache_.register_plan(plan, std::move(source));
}

std::uint64_t DoseService::tick_now() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

double DoseService::elapsed_ms(
    std::chrono::steady_clock::time_point since) const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

double DoseService::retry_after_hint() const {
  // Rough time for the backlog to clear: launches needed to drain the queue
  // times the recent launch cost, floored at one flush deadline.  A hint for
  // clients, not a guarantee.
  const double launches =
      static_cast<double>(queue_.depth() + config_.batch_cap - 1) /
      static_cast<double>(config_.batch_cap);
  const double est = launches * mean_launch_ms_ /
                     static_cast<double>(config_.workers);
  return std::max(config_.flush_deadline_ms, est);
}

Ticket DoseService::submit(const std::string& plan,
                           std::vector<double> weights,
                           const SubmitOptions& options) {
  Pending entry;
  entry.weights = std::move(weights);
  entry.tier = options.tier;
  entry.fast_format = options.fast_format;
  return admit(plan, std::move(entry), exec_key_for(options),
               options.deadline_ms, options.priority, nullptr);
}

Ticket DoseService::submit_delta(const std::string& plan,
                                 std::shared_ptr<const DeltaBase> base,
                                 std::vector<double> new_weights,
                                 const DeltaOptions& options) {
  const bool null_base = base == nullptr;
  const std::uint32_t exec_key =
      null_base ? 0 : delta_exec_key_for(base->key, options.mode);
  Pending entry;
  entry.weights = std::move(new_weights);
  entry.delta_base = std::move(base);
  entry.delta_mode = options.mode;
  return admit(plan, std::move(entry), exec_key, options.deadline_ms,
               options.priority,
               null_base ? "submit_delta: null base" : nullptr);
}

Ticket DoseService::admit(const std::string& plan, Pending entry,
                          std::uint32_t exec_key, double deadline_ms,
                          RequestPriority priority, const char* refusal) {
  Ticket ticket;
  ticket.result = entry.promise.get_future();

  entry.submitted = std::chrono::steady_clock::now();
  const bool known_plan = cache_.has_plan(plan);

  std::unique_lock<pd::Mutex> lock(mu_);
  ticket.id = next_id_++;
  ++submitted_;

  DoseResult immediate;
  if (!accepting_) {
    immediate.status = RequestStatus::kFailed;
    immediate.error = "service is shutting down";
    ++failed_;
  } else if (refusal != nullptr) {
    immediate.status = RequestStatus::kFailed;
    immediate.error = refusal;
    ++failed_;
  } else if (!known_plan) {
    immediate.status = RequestStatus::kFailed;
    immediate.error = "unknown plan '" + plan + "'";
    ++failed_;
  } else {
    const std::uint64_t now = tick_now();
    if (deadline_ms < 0.0) {
      deadline_ms = config_.default_deadline_ms;
    }
    QueuedRequest request;
    request.id = ticket.id;
    request.plan = plan;
    request.enqueue_tick = now;
    request.deadline_tick =
        deadline_ms <= 0.0
            ? 0
            : now + static_cast<std::uint64_t>(deadline_ms * 1000.0) + 1;
    request.exec_key = exec_key;
    request.priority = static_cast<std::uint8_t>(priority);
    if (queue_.submit(std::move(request))) {
      pending_.emplace(ticket.id, std::move(entry));
      max_queue_depth_ = std::max(max_queue_depth_, queue_.depth());
      ticket.accepted = true;
      lock.unlock();
      work_cv_.notify_one();
      return ticket;
    }
    immediate.status = RequestStatus::kRejected;
    immediate.retry_after_ms = retry_after_hint();
    ++rejected_;
  }

  lock.unlock();
  immediate.latency_ms = elapsed_ms(entry.submitted);
  entry.promise.set_value(std::move(immediate));
  return ticket;
}

bool DoseService::cancel(std::uint64_t id) {
  std::unique_lock<pd::Mutex> lock(mu_);
  if (!queue_.cancel(id)) {
    return false;
  }
  const auto it = pending_.find(id);
  PD_CHECK_MSG(it != pending_.end(),
               "DoseService: queued request missing pending state");
  Pending entry = std::move(it->second);
  pending_.erase(it);
  ++cancelled_;
  drain_cv_.notify_all();
  lock.unlock();

  DoseResult result;
  result.status = RequestStatus::kCancelled;
  result.latency_ms = elapsed_ms(entry.submitted);
  entry.promise.set_value(std::move(result));
  return true;
}

void DoseService::resolve_expired(std::uint64_t now) {
  // Caller holds mu_.
  std::vector<QueuedRequest> dead = queue_.expire(now);
  for (QueuedRequest& request : dead) {
    const auto it = pending_.find(request.id);
    PD_CHECK_MSG(it != pending_.end(),
                 "DoseService: expired request missing pending state");
    Pending entry = std::move(it->second);
    pending_.erase(it);
    ++expired_;
    DoseResult result;
    result.status = RequestStatus::kDeadlineExpired;
    result.latency_ms = elapsed_ms(entry.submitted);
    entry.promise.set_value(std::move(result));
  }
  if (!dead.empty()) {
    drain_cv_.notify_all();
  }
}

void DoseService::drain() {
  std::unique_lock<pd::Mutex> lock(mu_);
  draining_ = true;
  work_cv_.notify_all();
  drain_cv_.wait(lock, [this] {
    return queue_.depth() == 0 && in_flight_ == 0;
  });
  if (!stop_) {
    draining_ = false;
  }
}

void DoseService::worker_loop() {
  std::unique_lock<pd::Mutex> lock(mu_);
  for (;;) {
    const std::uint64_t now = tick_now();
    resolve_expired(now);

    std::vector<QueuedRequest> batch = queue_.pop_ready(now, draining_);
    if (!batch.empty()) {
      ++in_flight_;
      execute_batch(lock, std::move(batch));
      --in_flight_;
      work_cv_.notify_all();
      drain_cv_.notify_all();
      continue;
    }

    if (queue_.depth() == 0 && in_flight_ == 0) {
      drain_cv_.notify_all();
      if (stop_) {
        return;
      }
    } else if (stop_ && queue_.depth() == 0) {
      // Another worker owns the last in-flight batch; nothing left to pop.
      return;
    }

    // Attested unpredicated waits: the enclosing for(;;) re-evaluates the
    // full scheduling state (expiry, pop_ready, stop/drain) on every wake,
    // which is the predicate — it just lives a few lines up.
    const std::optional<std::uint64_t> next = queue_.next_event_tick();
    if (!next) {
      work_cv_.wait_unpredicated(lock);
    } else if (*next > now) {
      work_cv_.wait_until(lock,
                          start_ + std::chrono::microseconds(*next));
    } else {
      // Actionable now but not popped (e.g. the plan is busy): wait for the
      // busy mark to clear.
      work_cv_.wait_unpredicated(lock);
    }
  }
}

void DoseService::execute_batch(std::unique_lock<pd::Mutex>& lock,
                                std::vector<QueuedRequest> batch) {
  const std::string plan = batch.front().plan;

  struct Item {
    std::uint64_t id;
    Pending entry;
  };
  std::vector<Item> items;
  items.reserve(batch.size());
  for (QueuedRequest& request : batch) {
    const auto it = pending_.find(request.id);
    PD_CHECK_MSG(it != pending_.end(),
                 "DoseService: popped request missing pending state");
    items.push_back(Item{request.id, std::move(it->second)});
    pending_.erase(it);
  }
  lock.unlock();

  const auto launch_start = std::chrono::steady_clock::now();

  // Acquire (and if evicted, rebuild) the plan's engine.  Holding the
  // shared_ptr across the launch pins the cache entry against eviction.
  std::shared_ptr<kernels::DoseEngine> engine;
  std::string acquire_error;
  try {
    engine = cache_.acquire(plan);
  } catch (const std::exception& e) {
    acquire_error = e.what();
  }

  std::size_t launch_width = 0;
  std::uint64_t ok_count = 0;
  std::uint64_t fail_count = 0;
  std::uint64_t fast_ok = 0;
  std::uint64_t delta_ok = 0;
  std::vector<double> ok_latencies;

  if (!engine) {
    for (Item& item : items) {
      DoseResult result;
      result.status = RequestStatus::kFailed;
      result.error = "engine build failed: " + acquire_error;
      result.latency_ms = elapsed_ms(item.entry.submitted);
      item.entry.promise.set_value(std::move(result));
      ++fail_count;
    }
  } else {
    const std::size_t spots = engine->num_spots();

    // Weight-length validation needs the engine, so it happens here; a bad
    // request fails alone and its batch-mates still launch together.
    std::vector<std::size_t> valid;
    valid.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (items[i].entry.weights.size() == spots) {
        valid.push_back(i);
      } else {
        DoseResult result;
        result.status = RequestStatus::kFailed;
        result.error = "weight vector has " +
                       std::to_string(items[i].entry.weights.size()) +
                       " entries, plan expects " + std::to_string(spots);
        result.latency_ms = elapsed_ms(items[i].entry.submitted);
        items[i].entry.promise.set_value(std::move(result));
        ++fail_count;
      }
    }

    const bool delta_launch =
        !valid.empty() &&
        items[valid.front()].entry.delta_base != nullptr;
    if (delta_launch) {
      // Delta keys are exec_key-disjoint from full computes, so every valid
      // item carries a base.  Each request updates against its own base
      // copy; a bad base (wrong dose/weight length — compute_delta's checks
      // throw) fails alone and its batch-mates still resolve.
      launch_width = valid.size();
      ok_latencies.reserve(launch_width);
      for (const std::size_t i : valid) {
        Item& item = items[i];
        const DeltaBase& base = *item.entry.delta_base;
        DoseResult result;
        try {
          result.dose = engine->compute_delta(base.dose, base.weights,
                                              item.entry.weights,
                                              item.entry.delta_mode);
          result.status = RequestStatus::kOk;
          result.batch_size = launch_width;
          result.latency_ms = elapsed_ms(item.entry.submitted);
          ok_latencies.push_back(result.latency_ms);
          ++ok_count;
        } catch (const std::exception& e) {
          result = DoseResult{};
          result.status = RequestStatus::kFailed;
          result.error = std::string("compute_delta failed: ") + e.what();
          result.latency_ms = elapsed_ms(item.entry.submitted);
          ++fail_count;
        }
        item.entry.promise.set_value(std::move(result));
      }
      delta_ok = 1;
    } else if (!valid.empty()) {
      launch_width = valid.size();
      std::vector<double> weights(spots * launch_width);
      for (std::size_t j = 0; j < launch_width; ++j) {
        const std::vector<double>& w = items[valid[j]].entry.weights;
        std::copy(w.begin(), w.end(), weights.begin() + j * spots);
      }
      // Batches are exec_key-uniform (BatchQueue), so the first valid item's
      // tier speaks for the launch.  Reconfiguring the shared engine is safe
      // here: the plan's busy mark makes this launch its only writer.
      const Pending& head = items[valid.front()].entry;
      const bool fast_launch =
          head.tier == kernels::DoseEngine::Tier::kFast;
      try {
        if (fast_launch) {
          engine->set_tier(kernels::DoseEngine::Tier::kFast,
                           head.fast_format);
        }
        std::vector<std::vector<double>> doses =
            engine->compute_batch(weights, launch_width);
        ok_latencies.reserve(launch_width);
        for (std::size_t j = 0; j < launch_width; ++j) {
          Item& item = items[valid[j]];
          DoseResult result;
          result.status = RequestStatus::kOk;
          result.dose = std::move(doses[j]);
          result.batch_size = launch_width;
          result.latency_ms = elapsed_ms(item.entry.submitted);
          ok_latencies.push_back(result.latency_ms);
          item.entry.promise.set_value(std::move(result));
          ++ok_count;
        }
      } catch (const std::exception& e) {
        for (const std::size_t i : valid) {
          DoseResult result;
          result.status = RequestStatus::kFailed;
          result.error = std::string("compute_batch failed: ") + e.what();
          result.latency_ms = elapsed_ms(items[i].entry.submitted);
          items[i].entry.promise.set_value(std::move(result));
          ++fail_count;
        }
        launch_width = 0;
      }
      // Later launches of this plan (and rebuilt cache entries' peers)
      // expect the default tier; hand the engine back bitwise even when the
      // fast launch threw.  set_tier(kBitwise) cannot throw — it builds
      // nothing.
      if (fast_launch) {
        engine->set_tier(kernels::DoseEngine::Tier::kBitwise);
        if (launch_width > 0) {
          ++fast_ok;
        }
      }
    }
  }

  const double launch_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - launch_start)
                               .count();
  engine.reset();  // unpin before taking the lock back

  lock.lock();
  queue_.mark_idle(plan);
  completed_ += ok_count;
  failed_ += fail_count;
  if (launch_width > 0) {
    ++batches_;
    fast_batches_ += fast_ok;
    delta_batches_ += delta_ok;
    batch_size_counts_[launch_width - 1] += 1;
    mean_launch_ms_ = mean_launch_ms_ == 0.0
                          ? launch_ms
                          : 0.9 * mean_launch_ms_ + 0.1 * launch_ms;
  }
  for (const double latency : ok_latencies) {
    if (latencies_ms_.size() < kLatencyWindow) {
      latencies_ms_.push_back(latency);
    } else {
      latencies_ms_[latency_next_ % kLatencyWindow] = latency;
    }
    ++latency_next_;
  }
}

std::size_t DoseService::queue_depth() const {
  std::lock_guard<pd::Mutex> lock(mu_);
  return queue_.depth();
}

double DoseService::retry_after_estimate() const {
  std::lock_guard<pd::Mutex> lock(mu_);
  return retry_after_hint();
}

std::optional<std::uint64_t> DoseService::oldest_ready_head_age_us() const {
  std::lock_guard<pd::Mutex> lock(mu_);
  const std::uint64_t now = tick_now();
  const std::optional<std::uint64_t> tick =
      queue_.oldest_ready_head_tick(now, draining_);
  if (!tick) {
    return std::nullopt;
  }
  return now - std::min(*tick, now);
}

ServiceStats DoseService::stats() const {
  ServiceStats s;
  {
    std::lock_guard<pd::Mutex> lock(mu_);
    s.submitted = submitted_;
    s.completed = completed_;
    s.rejected = rejected_;
    s.cancelled = cancelled_;
    s.expired = expired_;
    s.failed = failed_;
    s.batches = batches_;
    s.fast_batches = fast_batches_;
    s.delta_batches = delta_batches_;
    s.batch_size_counts = batch_size_counts_;
    s.queue_depth = queue_.depth();
    s.max_queue_depth = max_queue_depth_;
    if (!latencies_ms_.empty()) {
      s.p50_latency_ms = pd::percentile(latencies_ms_, 50.0);
      s.p99_latency_ms = pd::percentile(latencies_ms_, 99.0);
    }
  }
  s.cache = cache_.stats();
  return s;
}

}  // namespace pd::service
