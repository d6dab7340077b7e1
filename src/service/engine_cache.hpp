#pragma once
// Bounded per-plan DoseEngine cache for DoseService.
//
// Engines are expensive (precision conversion, rowsplit/adaptive analysis,
// simulated-device setup), so the service keeps at most `capacity` of them,
// keyed by plan id, and reconstructs evicted ones from the plan's registered
// MatrixSource on the next miss.  Eviction is LRU with *pinning*: entries
// whose engine is referenced outside the cache (an in-flight batch holds the
// shared_ptr) are never destroyed under the worker — the cache may
// transiently exceed capacity instead, and the next acquire (hit or miss)
// after the pin is released retires the excess entry.
//
// Reproducibility contract: a MatrixSource must be deterministic (same
// matrix bits every call).  DoseEngine's host-side analysis and storage
// conversion are deterministic functions of the matrix, so an engine rebuilt
// after eviction produces bitwise the dose of the evicted one — cache
// churn can never change a result (asserted by the eviction-race test in
// tests/test_service.cpp).

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "common/threadcheck.hpp"
#include "gpusim/device.hpp"
#include "gpusim/launch.hpp"
#include "kernels/dose_engine.hpp"
#include "kernels/tuner.hpp"
#include "service/stats.hpp"
#include "sparse/csr.hpp"

namespace pd::service {

/// Produces a plan's dose deposition matrix on a cache miss.  Must be
/// deterministic and thread-safe (it runs outside the cache lock).
using MatrixSource = std::function<sparse::CsrF64()>;

/// How the cache constructs engines — one policy for every plan, so any two
/// engines for the same plan are interchangeable bit-for-bit.
struct EngineParams {
  gpusim::DeviceSpec device;
  kernels::DoseEngine::Mode mode = kernels::DoseEngine::Mode::kHalfDouble;
  unsigned threads_per_block = kernels::kDefaultVectorTpb;
  kernels::SpmvFamily family = kernels::SpmvFamily::kVector;
  kernels::DoseEngine::Backend backend = kernels::DoseEngine::Backend::kNative;
  unsigned native_threads = 1;
  /// Applied to gpusim-backend engines (functional-only by default: a
  /// serving layer wants dose bits and wall-clock, not traffic counters).
  gpusim::EngineOptions engine_options{gpusim::TraceMode::kFunctionalOnly, 0};
  /// Run the fast-tier autotuner (kernels/tuner.hpp) when a plan's engine is
  /// first built, apply the winning TunedConfig, and cache the config next
  /// to the engine.  The config outlives LRU eviction: rebuilt engines get
  /// the cached config re-applied without re-tuning (a hot plan is tuned
  /// exactly once per register_plan).  Tuning touches only fast-tier state —
  /// Tier::kBitwise doses stay byte-for-byte unchanged.
  bool autotune = false;
  kernels::TuneOptions tune_options{};
};

class EngineCache {
 public:
  EngineCache(std::size_t capacity, EngineParams params);

  /// Register (or replace) a plan's matrix source.  Replacing drops any
  /// cached engine for the plan; a build from the old source still in
  /// flight returns its engine to its own caller but never caches it.
  void register_plan(const std::string& plan, MatrixSource source);

  bool has_plan(const std::string& plan) const;

  /// Get the plan's engine, building it from the MatrixSource on a miss.
  /// Concurrent acquires of the same missing plan build once: later callers
  /// wait for the builder and count as hits.  Throws pd::Error for an
  /// unregistered plan; a throwing MatrixSource propagates to every waiter.
  std::shared_ptr<kernels::DoseEngine> acquire(const std::string& plan);

  /// The plan's cached TunedConfig (EngineParams::autotune), or null when
  /// the plan was never tuned.  Persists across engine eviction; dropped
  /// only by register_plan replacing the plan's source.
  std::shared_ptr<const kernels::TunedConfig> tuned_config(
      const std::string& plan) const;

  EngineCacheStats stats() const;

 private:
  struct Entry {
    std::shared_ptr<kernels::DoseEngine> engine;
    std::uint64_t last_use = 0;
  };

  /// Drop LRU unpinned entries until within capacity (caller holds mu_).
  void evict_over_capacity();
  /// Whether `plan`'s source is still the one registered as `generation`
  /// (caller holds mu_).
  bool current(const std::string& plan, std::uint64_t generation) const;

  const std::size_t capacity_;
  const EngineParams params_;
  // Instrumented primitives (common/threadcheck.hpp).  build_cv_ declares
  // Waiters::kOptional: it only ever has waiters when two workers race to
  // build the same plan's engine, so most runs legitimately notify it
  // without anyone waiting.
  mutable pd::Mutex mu_{"EngineCache.mu"};
  pd::CondVar build_cv_{"EngineCache.build_cv",
                        pd::CondVar::Waiters::kOptional};
  /// A registered source and how many times the plan was (re)registered.
  /// A build publishes its engine and tuning only if the generation it
  /// started from is still current: register_plan cannot reach a build in
  /// flight, so a replaced source must not be cached under the plan.
  struct Source {
    MatrixSource fn;
    std::uint64_t generation = 0;
  };
  std::map<std::string, Source> sources_;
  std::map<std::string, Entry> entries_;
  /// Tuned configs live beside, not inside, entries_: eviction drops the
  /// engine but keeps the config, so the rebuild is apply-only.
  std::map<std::string, std::shared_ptr<const kernels::TunedConfig>> tuned_;
  std::set<std::string> building_;
  std::uint64_t use_tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t tunes_ = 0;
};

}  // namespace pd::service
