#include "common/threadcheck.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>

namespace pd::threadcheck {
namespace detail {

struct Event {
  EventKind kind = EventKind::kLock;
  std::uint32_t thread = 0;
  std::uint32_t object = 0;
  std::uint32_t aux = 0;  ///< wait flavor / notify-all flag
  std::size_t begin = 0;  ///< access range
  std::size_t end = 0;
  bool write = false;
};

struct ObjectInfo {
  ObjectKind kind = ObjectKind::kMutex;
  std::string name;
  std::uint32_t flags = 0;
};

/// The singleton shadow state.  Recording serializes on `mu` — threadcheck
/// is an analyzer, not a production mode, and the serialization also gives
/// the stream a total order consistent with every thread's program order
/// and with real lock-acquisition order (see Mutex::unlock).
struct Context {
  std::mutex mu;
  CheckConfig config;
  bool recording = false;
  std::vector<Event> events;
  std::uint64_t events_dropped = 0;
  std::uint64_t perturbations = 0;
  /// Dense thread indices.  Cleared by reset(), so a recycled OS thread id
  /// cannot inherit a finished thread's vector clock across sessions.
  std::unordered_map<std::thread::id, std::uint32_t> threads;
  /// Registered objects, 1-based (0 = unregistered).  Never cleared while
  /// the process lives: live primitives cache their ids.
  std::vector<ObjectInfo> objects;
  /// Compute-site ids, keyed by the (string-literal) site pointer.
  std::unordered_map<const void*, std::uint32_t> compute_sites;

  std::uint32_t thread_index_locked() {
    const auto id = std::this_thread::get_id();
    const auto it = threads.find(id);
    if (it != threads.end()) {
      return it->second;
    }
    const auto idx = static_cast<std::uint32_t>(threads.size());
    threads.emplace(id, idx);
    return idx;
  }

  void append(Event event) {
    std::lock_guard<std::mutex> lock(mu);
    if (!recording) {
      return;
    }
    if (events.size() >= config.max_events) {
      ++events_dropped;
      return;
    }
    event.thread = thread_index_locked();
    events.push_back(event);
  }
};

namespace {

Context& context() {
  // Never destroyed: a racing recorder that loaded the active pointer just
  // before disable() must still have valid storage to write into.
  static Context* instance = new Context();
  return *instance;
}

std::atomic<Context*> g_active{nullptr};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

bool env_truthy(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr) {
    return false;
  }
  const std::string s(v);
  return s == "1" || s == "true" || s == "on" || s == "yes";
}

// Honor PROTONDOSE_THREADCHECK at startup, exactly as simcheck honors
// PROTONDOSE_SIMCHECK: the whole test suite then runs instrumented and the
// clean-suite gtest environments (tests/test_service.cpp,
// tests/test_delta_engine.cpp) assert a clean report at exit.
const bool g_env_init = [] {
  if (env_enabled()) {
    CheckConfig config;
    config.schedule_seed = env_schedule_seed();
    enable(config);
  }
  return true;
}();

}  // namespace

Context* active() { return g_active.load(std::memory_order_acquire); }

std::uint32_t register_object(std::atomic<std::uint32_t>& slot,
                              ObjectKind kind, const char* name,
                              std::uint32_t flags) {
  Context& ctx = context();
  std::lock_guard<std::mutex> lock(ctx.mu);
  std::uint32_t id = slot.load(std::memory_order_relaxed);
  if (id == 0) {
    ctx.objects.push_back(
        ObjectInfo{kind, name == nullptr ? "" : name, flags});
    id = static_cast<std::uint32_t>(ctx.objects.size());  // 1-based
    slot.store(id, std::memory_order_relaxed);
  }
  return id;
}

void record_lock(Context* ctx, std::uint32_t id) {
  ctx->append(Event{EventKind::kLock, 0, id, 0, 0, 0, false});
}

void record_unlock(Context* ctx, std::uint32_t id) {
  ctx->append(Event{EventKind::kUnlock, 0, id, 0, 0, 0, false});
}

void record_wait_begin(Context* ctx, std::uint32_t cv, std::uint32_t flavor) {
  ctx->append(Event{EventKind::kWaitBegin, 0, cv, flavor, 0, 0, false});
}

void record_wait_end(Context* ctx, std::uint32_t cv) {
  if (ctx == nullptr) {
    return;  // disabled while we were blocked in the wait
  }
  ctx->append(Event{EventKind::kWaitEnd, 0, cv, 0, 0, 0, false});
}

void record_notify(Context* ctx, std::uint32_t cv, bool all) {
  ctx->append(Event{EventKind::kNotify, 0, cv, all ? 1u : 0u, 0, 0, false});
}

void record_access(Context* ctx, std::uint32_t obj, std::size_t begin,
                   std::size_t end, bool write) {
  ctx->append(Event{EventKind::kAccess, 0, obj, 0, begin, end, write});
}

void record_compute(Context* ctx, std::uint32_t site) {
  ctx->append(Event{EventKind::kCompute, 0, site, 0, 0, 0, false});
}

void perturb(Context* ctx) {
  std::uint64_t seed;
  {
    std::lock_guard<std::mutex> lock(ctx->mu);
    if (!ctx->recording || ctx->config.schedule_seed == 0) {
      return;
    }
    seed = ctx->config.schedule_seed;
  }
  // Deterministic decision, nondeterministic effect: the (seed, thread,
  // op-count) hash decides *whether* this point yields or stalls, the OS
  // decides what runs instead.  thread_local keeps the op counter free of
  // cross-thread contention.
  thread_local std::uint64_t op_count = 0;
  const std::uint64_t tid =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  const std::uint64_t mix = splitmix64(seed ^ splitmix64(tid) ^ op_count++);
  if ((mix & 0x3F) == 0) {  // 1/64: a real stall, long enough to reorder
    {
      std::lock_guard<std::mutex> lock(ctx->mu);
      ++ctx->perturbations;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  } else if ((mix & 0x7) == 0) {  // 1/8: cheap reschedule point
    {
      std::lock_guard<std::mutex> lock(ctx->mu);
      ++ctx->perturbations;
    }
    std::this_thread::yield();
  }
}

}  // namespace detail

const char* finding_kind_name(FindingKind kind) {
  switch (kind) {
    case FindingKind::kDataRace:
      return "data-race";
    case FindingKind::kLockInversion:
      return "lock-inversion";
    case FindingKind::kUnpredicatedWait:
      return "unpredicated-wait";
    case FindingKind::kNotifyWithoutWaiters:
      return "notify-without-waiters";
    case FindingKind::kLockHeldAcrossCompute:
      return "lock-held-across-compute";
  }
  return "unknown";
}

std::uint64_t Report::count(FindingKind kind) const {
  std::uint64_t n = 0;
  for (const Finding& f : findings) {
    if (f.kind == kind) {
      ++n;
    }
  }
  return n;
}

std::string Report::summary() const {
  std::ostringstream out;
  out << "threadcheck: " << findings.size() << " finding(s)";
  if (suppressed > 0) {
    out << " (+" << suppressed << " suppressed)";
  }
  out << " over " << events << " event(s)";
  if (events_dropped > 0) {
    out << " (" << events_dropped << " dropped past the cap)";
  }
  out << "\n";
  for (const Finding& f : findings) {
    out << "  [" << finding_kind_name(f.kind) << "] " << f.object << ": "
        << f.detail << "\n";
  }
  return out.str();
}

void enable(CheckConfig config) {
  detail::Context& ctx = detail::context();
  {
    std::lock_guard<std::mutex> lock(ctx.mu);
    ctx.config = config;
    ctx.recording = true;
  }
  detail::g_active.store(&ctx, std::memory_order_release);
}

void disable() {
  detail::Context& ctx = detail::context();
  detail::g_active.store(nullptr, std::memory_order_release);
  std::lock_guard<std::mutex> lock(ctx.mu);
  ctx.recording = false;
}

bool enabled() {
  return detail::g_active.load(std::memory_order_acquire) != nullptr;
}

void reset() {
  detail::Context& ctx = detail::context();
  std::lock_guard<std::mutex> lock(ctx.mu);
  ctx.events.clear();
  ctx.events_dropped = 0;
  ctx.perturbations = 0;
  ctx.threads.clear();
}

bool env_enabled() { return detail::env_truthy("PROTONDOSE_THREADCHECK"); }

std::uint64_t env_schedule_seed() {
  const char* v = std::getenv("PROTONDOSE_THREADCHECK_SEED");
  if (v == nullptr) {
    return 0;
  }
  return std::strtoull(v, nullptr, 10);
}

void note_compute(const char* site) {
  if (auto* ctx = threadcheck::detail::active()) {
    std::uint32_t id;
    {
      std::lock_guard<std::mutex> lock(ctx->mu);
      const auto it = ctx->compute_sites.find(site);
      if (it != ctx->compute_sites.end()) {
        id = it->second;
      } else {
        ctx->objects.push_back(detail::ObjectInfo{
            detail::ObjectKind::kComputeSite, site, 0});
        id = static_cast<std::uint32_t>(ctx->objects.size());
        ctx->compute_sites.emplace(site, id);
      }
    }
    detail::record_compute(ctx, id);
  }
}

// ---------------------------------------------------------------------------
// Analysis passes.
// ---------------------------------------------------------------------------

namespace {

using detail::Event;
using detail::EventKind;
using detail::ObjectInfo;
using detail::ObjectKind;

/// Vector clock: clock[t] = the latest operation of thread t known to
/// happen-before the owner's current point.
using VectorClock = std::vector<std::uint64_t>;

void vc_join(VectorClock& into, const VectorClock& from) {
  if (into.size() < from.size()) {
    into.resize(from.size(), 0);
  }
  for (std::size_t i = 0; i < from.size(); ++i) {
    into[i] = std::max(into[i], from[i]);
  }
}

std::uint64_t vc_get(const VectorClock& vc, std::uint32_t t) {
  return t < vc.size() ? vc[t] : 0;
}

void vc_set(VectorClock& vc, std::uint32_t t, std::uint64_t v) {
  if (vc.size() <= t) {
    vc.resize(t + 1, 0);
  }
  vc[t] = v;
}

/// One remembered access for the race pass.  `clock` is the accessor's own
/// component C_t[t] at access time: access a happens-before a later point p
/// iff a.clock <= C_p[a.thread] (FastTrack's epoch comparison).
struct AccessRecord {
  std::uint32_t thread = 0;
  std::uint64_t clock = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
  bool write = false;
};

struct Analyzer {
  const CheckConfig& config;
  const std::vector<ObjectInfo>& objects;
  Report& report;

  std::vector<VectorClock> thread_clock;
  std::vector<VectorClock> mutex_clock;       ///< release clocks, by object id
  std::vector<std::vector<std::uint32_t>> held;  ///< lock stack per thread
  /// Lock-order edges: held -> acquired, with one witness thread each.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> edges;
  /// Recent accesses per object, bounded per (object, thread) so a
  /// long-lived object (the pool's batch marker) cannot grow the pass
  /// quadratic.  Last-K approximation, same spirit as simcheck's last-access
  /// shared shadow.
  static constexpr std::size_t kKeepPerThread = 8;
  std::map<std::uint32_t, std::map<std::uint32_t, std::vector<AccessRecord>>>
      accesses;
  std::map<std::uint32_t, std::uint64_t> cv_waits;
  std::map<std::uint32_t, std::uint64_t> cv_notifies;
  std::set<std::uint32_t> linted_unpredicated;
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>>
      race_reported;  ///< (object, thread a, thread b)
  std::set<std::pair<std::uint32_t, std::uint32_t>> latency_reported;

  const std::string& object_name(std::uint32_t id) const {
    static const std::string unknown = "<unregistered>";
    return (id >= 1 && id <= objects.size()) ? objects[id - 1].name : unknown;
  }

  void add_finding(FindingKind kind, std::uint32_t object,
                   std::string detail_text) {
    if (report.findings.size() >= config.max_findings) {
      ++report.suppressed;
      return;
    }
    report.findings.push_back(
        Finding{kind, object_name(object), std::move(detail_text)});
  }

  VectorClock& clock_of(std::uint32_t t) {
    if (thread_clock.size() <= t) {
      thread_clock.resize(t + 1);
    }
    VectorClock& c = thread_clock[t];
    if (vc_get(c, t) == 0) {
      vc_set(c, t, 1);  // each thread starts at its own epoch 1
    }
    return c;
  }

  void on_lock(const Event& e) {
    VectorClock& c = clock_of(e.thread);
    if (mutex_clock.size() <= e.object) {
      mutex_clock.resize(e.object + 1);
    }
    vc_join(c, mutex_clock[e.object]);  // acquire edge

    if (held.size() <= e.thread) {
      held.resize(e.thread + 1);
    }
    if (config.lockorder) {
      for (const std::uint32_t h : held[e.thread]) {
        if (h != e.object) {
          edges.emplace(std::make_pair(h, e.object), e.thread);
        }
      }
    }
    held[e.thread].push_back(e.object);
  }

  void on_unlock(const Event& e) {
    VectorClock& c = clock_of(e.thread);
    if (mutex_clock.size() <= e.object) {
      mutex_clock.resize(e.object + 1);
    }
    mutex_clock[e.object] = c;                     // release edge
    vc_set(c, e.thread, vc_get(c, e.thread) + 1);  // advance own epoch

    if (held.size() > e.thread) {
      auto& stack = held[e.thread];
      const auto it = std::find(stack.rbegin(), stack.rend(), e.object);
      if (it != stack.rend()) {
        stack.erase(std::next(it).base());
      }
    }
  }

  void on_wait_begin(const Event& e) {
    ++cv_waits[e.object];
    if (config.condvar && e.aux == detail::kWaitPlain &&
        linted_unpredicated.insert(e.object).second) {
      add_finding(FindingKind::kUnpredicatedWait, e.object,
                  "untimed wait() without a predicate — a spurious or stale "
                  "wakeup proceeds on an unverified condition; state the "
                  "predicate (wait(lock, pred)) or attest to the enclosing "
                  "re-check loop (wait_unpredicated)");
    }
  }

  void on_notify(const Event& e) { ++cv_notifies[e.object]; }

  void on_access(const Event& e) {
    VectorClock& c = clock_of(e.thread);
    const std::uint64_t my_clock = vc_get(c, e.thread);
    auto& per_thread = accesses[e.object];
    if (config.race) {
      for (const auto& [other_thread, records] : per_thread) {
        if (other_thread == e.thread) {
          continue;
        }
        for (const AccessRecord& a : records) {
          const bool overlap = a.begin < e.end && e.begin < a.end;
          const bool conflict = a.write || e.write;
          const bool ordered = a.clock <= vc_get(c, a.thread);
          if (overlap && conflict && !ordered) {
            const auto lo = std::min(a.thread, e.thread);
            const auto hi = std::max(a.thread, e.thread);
            if (race_reported.insert({e.object, lo, hi}).second) {
              std::ostringstream detail_text;
              detail_text
                  << (a.write && e.write
                          ? "write/write"
                          : "read/write")
                  << " race: thread " << a.thread << " "
                  << (a.write ? "wrote" : "read") << " [" << a.begin << ", "
                  << a.end << ") and thread " << e.thread << " "
                  << (e.write ? "wrote" : "read") << " [" << e.begin << ", "
                  << e.end << ") with no happens-before ordering";
              add_finding(FindingKind::kDataRace, e.object,
                          detail_text.str());
            }
          }
        }
      }
    }
    auto& mine = per_thread[e.thread];
    mine.push_back(AccessRecord{e.thread, my_clock, e.begin, e.end, e.write});
    if (mine.size() > kKeepPerThread) {
      mine.erase(mine.begin());
    }
  }

  void on_compute(const Event& e) {
    if (!config.latency || held.size() <= e.thread ||
        held[e.thread].empty()) {
      return;
    }
    const std::uint32_t lock_id = held[e.thread].back();
    if (latency_reported.insert({e.object, lock_id}).second) {
      std::ostringstream detail_text;
      detail_text << object_name(e.object) << " called while holding ";
      for (std::size_t i = 0; i < held[e.thread].size(); ++i) {
        detail_text << (i > 0 ? ", " : "")
                    << object_name(held[e.thread][i]);
      }
      detail_text << " — engine compute can run for milliseconds at paper "
                     "scale; locks must bracket queue state, not compute";
      add_finding(FindingKind::kLockHeldAcrossCompute, lock_id,
                  detail_text.str());
    }
  }

  void finish() {
    if (config.lockorder) {
      report_lock_cycles();
    }
    if (config.condvar) {
      for (const auto& [cv, notifies] : cv_notifies) {
        if (notifies == 0 || cv_waits.count(cv) != 0) {
          continue;
        }
        const ObjectInfo& info = objects[cv - 1];
        if ((info.flags & detail::kWaitersOptional) != 0) {
          continue;  // declared optional, with rationale at the declaration
        }
        std::ostringstream detail_text;
        detail_text << notifies
                    << " notify call(s) but no thread ever waited on this "
                       "condvar — a waiter elsewhere may be blocked on the "
                       "wrong one (lost wakeup)";
        add_finding(FindingKind::kNotifyWithoutWaiters, cv,
                    detail_text.str());
      }
    }
  }

  void report_lock_cycles() {
    // DFS over the lock-order graph; each cycle found is reported once,
    // keyed by its sorted node set.
    std::map<std::uint32_t, std::vector<std::uint32_t>> graph;
    for (const auto& [edge, witness] : edges) {
      (void)witness;
      graph[edge.first].push_back(edge.second);
    }
    std::set<std::vector<std::uint32_t>> reported;
    std::set<std::uint32_t> done;
    for (const auto& [start, ignored] : graph) {
      (void)ignored;
      if (done.count(start) != 0) {
        continue;
      }
      std::vector<std::uint32_t> path;
      std::set<std::uint32_t> on_path;
      dfs_cycle(start, graph, done, path, on_path, reported);
    }
  }

  void dfs_cycle(std::uint32_t node,
                 const std::map<std::uint32_t, std::vector<std::uint32_t>>& graph,
                 std::set<std::uint32_t>& done,
                 std::vector<std::uint32_t>& path,
                 std::set<std::uint32_t>& on_path,
                 std::set<std::vector<std::uint32_t>>& reported) {
    path.push_back(node);
    on_path.insert(node);
    const auto it = graph.find(node);
    if (it != graph.end()) {
      for (const std::uint32_t next : it->second) {
        if (on_path.count(next) != 0) {
          // Cycle: the path suffix from `next` to `node`.
          const auto cycle_start = std::find(path.begin(), path.end(), next);
          std::vector<std::uint32_t> cycle(cycle_start, path.end());
          std::vector<std::uint32_t> key = cycle;
          std::sort(key.begin(), key.end());
          if (reported.insert(key).second) {
            std::ostringstream detail_text;
            detail_text << "lock-order cycle (potential deadlock): ";
            for (const std::uint32_t m : cycle) {
              detail_text << object_name(m) << " -> ";
            }
            detail_text << object_name(next);
            add_finding(FindingKind::kLockInversion, cycle.front(),
                        detail_text.str());
          }
          continue;
        }
        if (done.count(next) == 0) {
          dfs_cycle(next, graph, done, path, on_path, reported);
        }
      }
    }
    on_path.erase(node);
    path.pop_back();
    done.insert(node);
  }
};

}  // namespace

Report analyze() {
  detail::Context& ctx = detail::context();
  // Snapshot under the registry lock, analyze outside it so recording
  // threads are not stalled for the whole pass.
  std::vector<Event> events;
  std::vector<ObjectInfo> objects;
  CheckConfig config;
  Report report;
  {
    std::lock_guard<std::mutex> lock(ctx.mu);
    events = ctx.events;
    objects = ctx.objects;
    config = ctx.config;
    report.events_dropped = ctx.events_dropped;
    report.perturbations = ctx.perturbations;
  }
  report.events = events.size();

  Analyzer analyzer{config, objects, report};
  for (const Event& e : events) {
    switch (e.kind) {
      case EventKind::kLock:
        analyzer.on_lock(e);
        break;
      case EventKind::kUnlock:
        analyzer.on_unlock(e);
        break;
      case EventKind::kWaitBegin:
        analyzer.on_wait_begin(e);
        break;
      case EventKind::kWaitEnd:
        break;  // the relock already re-joined the mutex clock
      case EventKind::kNotify:
        analyzer.on_notify(e);
        break;
      case EventKind::kAccess:
        analyzer.on_access(e);
        break;
      case EventKind::kCompute:
        analyzer.on_compute(e);
        break;
    }
  }
  analyzer.finish();
  return report;
}

}  // namespace pd::threadcheck
