#include "service/engine_cache.hpp"

#include <utility>

#include "common/error.hpp"

namespace pd::service {

EngineCache::EngineCache(std::size_t capacity, EngineParams params)
    : capacity_(capacity), params_(std::move(params)) {
  PD_CHECK_MSG(capacity_ > 0, "EngineCache: capacity must be >= 1");
}

void EngineCache::register_plan(const std::string& plan, MatrixSource source) {
  PD_CHECK_MSG(static_cast<bool>(source),
               "EngineCache: empty MatrixSource for plan '" + plan + "'");
  std::lock_guard<pd::Mutex> lock(mu_);
  Source& registered = sources_[plan];
  registered.fn = std::move(source);
  ++registered.generation;
  entries_.erase(plan);
  // A replaced source may produce a different matrix; its tuning is stale.
  tuned_.erase(plan);
}

bool EngineCache::has_plan(const std::string& plan) const {
  std::lock_guard<pd::Mutex> lock(mu_);
  return sources_.count(plan) != 0;
}

std::shared_ptr<kernels::DoseEngine> EngineCache::acquire(
    const std::string& plan) {
  MatrixSource source;
  std::uint64_t generation = 0;
  {
    std::unique_lock<pd::Mutex> lock(mu_);
    for (;;) {
      const auto entry = entries_.find(plan);
      if (entry != entries_.end()) {
        ++hits_;
        entry->second.last_use = ++use_tick_;
        // The local copy pins the requested engine before the retry below,
        // so a hit can never evict the entry it is about to return.
        std::shared_ptr<kernels::DoseEngine> engine = entry->second.engine;
        // Retry eviction on hits too: an insert that found every candidate
        // pinned leaves the cache over capacity, and without this the
        // overshoot would persist for as long as traffic keeps hitting.
        evict_over_capacity();
        return engine;
      }
      if (building_.count(plan) == 0) {
        break;
      }
      // Another worker is building this plan's engine; share its result
      // instead of generating the matrix twice.  Attested unpredicated
      // wait: the enclosing for(;;) re-checks entries_/building_ on wake.
      build_cv_.wait_unpredicated(lock);
    }
    const auto src = sources_.find(plan);
    PD_CHECK_MSG(src != sources_.end(),
                 "EngineCache: unknown plan '" + plan + "'");
    source = src->second.fn;
    generation = src->second.generation;
    ++misses_;
    building_.insert(plan);
  }

  // Build outside the lock: matrix generation and engine analysis are the
  // expensive parts and must not serialize unrelated plans.
  std::shared_ptr<kernels::DoseEngine> engine;
  try {
    engine = std::make_shared<kernels::DoseEngine>(
        source(), params_.device, params_.mode, params_.threads_per_block,
        params_.family, params_.backend);
    if (params_.backend == kernels::DoseEngine::Backend::kNative) {
      engine->set_native_threads(params_.native_threads);
    } else {
      engine->set_engine_options(params_.engine_options);
    }
    if (params_.autotune) {
      // Tune once per register_plan: a cached config is re-applied to the
      // rebuilt engine without re-measuring, so LRU churn on a hot plan
      // never pays the tuning cost twice.  building_ already serializes
      // same-plan builds, so no two workers can tune one plan concurrently.
      std::shared_ptr<const kernels::TunedConfig> config;
      {
        std::lock_guard<pd::Mutex> lock(mu_);
        const auto it = tuned_.find(plan);
        if (it != tuned_.end()) {
          config = it->second;
        }
      }
      if (config == nullptr) {
        config = std::make_shared<const kernels::TunedConfig>(
            kernels::autotune_fast_tier(*engine, params_.tune_options));
        std::lock_guard<pd::Mutex> lock(mu_);
        if (current(plan, generation)) {
          tuned_[plan] = config;
        }
        ++tunes_;
      }
      kernels::apply_tuned(*engine, *config);
    }
  } catch (...) {
    std::lock_guard<pd::Mutex> lock(mu_);
    building_.erase(plan);
    build_cv_.notify_all();
    throw;
  }

  std::lock_guard<pd::Mutex> lock(mu_);
  building_.erase(plan);
  // A source replaced mid-build leaves this engine to its caller only.
  if (current(plan, generation)) {
    entries_[plan] = Entry{engine, ++use_tick_};
    evict_over_capacity();
  }
  build_cv_.notify_all();
  return engine;
}

bool EngineCache::current(const std::string& plan,
                          std::uint64_t generation) const {
  const auto it = sources_.find(plan);
  return it != sources_.end() && it->second.generation == generation;
}

void EngineCache::evict_over_capacity() {
  while (entries_.size() > capacity_) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.engine.use_count() > 1) {
        continue;  // pinned by an in-flight batch — never destroy under it
      }
      if (victim == entries_.end() ||
          it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    if (victim == entries_.end()) {
      return;  // everything pinned; transient overshoot, retried on every
                // subsequent acquire (hit or miss)
    }
    entries_.erase(victim);
    ++evictions_;
  }
}

std::shared_ptr<const kernels::TunedConfig> EngineCache::tuned_config(
    const std::string& plan) const {
  std::lock_guard<pd::Mutex> lock(mu_);
  const auto it = tuned_.find(plan);
  return it == tuned_.end() ? nullptr : it->second;
}

EngineCacheStats EngineCache::stats() const {
  std::lock_guard<pd::Mutex> lock(mu_);
  EngineCacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.resident = entries_.size();
  s.tunes = tunes_;
  s.tuned_plans = tuned_.size();
  for (const auto& [plan, entry] : entries_) {
    (void)plan;
    if (entry.engine.use_count() > 1) {
      ++s.pinned;
    }
  }
  return s;
}

}  // namespace pd::service
