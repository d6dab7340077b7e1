#pragma once
// threadcheck — a happens-before race and lock-order analyzer for the host
// serving stack, the simcheck sibling for host concurrency.
//
// simcheck (docs/simcheck.md) gives the simulated device kernels
// compute-sanitizer-style coverage; the code that actually serves traffic —
// service::DoseService, BatchQueue scheduling under the service lock,
// EngineCache, the gpusim ThreadPool, and the nnz-balanced
// parallel_spmv threading — had none.  threadcheck closes that gap with the
// same contract: strictly opt-in instrumentation whose disabled cost is one
// relaxed atomic null test per operation, and whose enabled findings are
// deterministic functions of the recorded event stream.
//
// Instrumented primitives (drop-in for the std types they wrap):
//  * pd::Mutex      — std::mutex + lock/unlock event recording.  Works with
//    std::lock_guard / std::unique_lock / std::scoped_lock.
//  * pd::CondVar    — std::condition_variable_any over pd::Mutex.  Untimed
//    waits must state their predicate (wait(lock, pred)) or explicitly
//    attest to an enclosing re-check loop (wait_unpredicated); a plain
//    wait(lock) is linted.  Constructors declare whether the condvar
//    expects waiters — notifying one that never had any is linted.
//  * pd::SharedState<T> / pd::SharedRange — registration for shared data:
//    read()/write() record range-granular access events that the race pass
//    checks for happens-before ordering.
//
// Analysis passes (threadcheck::analyze(), over the recorded stream):
//  * race        — FastTrack-style vector-clock happens-before detection on
//    registered shared state.  Mutex release/acquire are the sync edges
//    (condvar waits ride on them: condition_variable_any unlocks/relocks
//    through the instrumented Mutex).  Two overlapping accesses from
//    different threads with at least one write and no happens-before path
//    are a race — detected from the event order alone, so a fixture's bug
//    is flagged even when the actual interleaving happened to be benign.
//  * lockorder   — a lock-order graph (edge A->B when a thread acquires B
//    while holding A) with cycle detection: a cycle is a potential deadlock
//    even if this run never interleaved into it.
//  * condvar     — wait-without-predicate and notify-with-no-waiter lints.
//  * latency     — flags DoseEngine::compute* calls (which can run for
//    milliseconds at paper scale) made while holding any pd::Mutex; the
//    serving stack's contract is that locks bracket queue state, never
//    compute.
//
// Schedule perturbation: a seeded PCT-style hook at every instrumented
// point (lock acquire, notify, shared access).  The yield/sleep decisions
// are a pure function of (seed, thread index, per-thread op count), so a
// seed names one perturbation pattern and a failing seed can be re-run —
// the OS still owns the final interleaving, but the analysis above is
// interleaving-independent, which is what makes seeded runs reproducible
// in what they *report*.
//
// Reproducibility contract (§II-D): disabled-mode behavior is bitwise
// identical to the uninstrumented stack — the primitives add one null test
// and otherwise forward to the std types (ServiceThreadcheck.DoesNotPerturb
// in tests/test_service.cpp asserts served doses stay bitwise equal to
// sequential compute even with checking and perturbation enabled).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace pd::threadcheck {

/// The finding taxonomy, one class per analysis pass (the condvar pass owns
/// two).  Mirrors simcheck's ViolationKind design.
enum class FindingKind : std::uint8_t {
  kDataRace,              ///< race: unordered conflicting accesses.
  kLockInversion,         ///< lockorder: cycle in the lock-order graph.
  kUnpredicatedWait,      ///< condvar: untimed wait with no predicate.
  kNotifyWithoutWaiters,  ///< condvar: notify on a never-waited condvar.
  kLockHeldAcrossCompute, ///< latency: DoseEngine::compute* under a lock.
};

const char* finding_kind_name(FindingKind kind);

/// One structured finding: what happened, on which named object, and a
/// human-readable sentence for reports.
struct Finding {
  FindingKind kind = FindingKind::kDataRace;
  std::string object;  ///< name of the mutex / condvar / shared state
  std::string detail;
};

/// Which passes run, the perturbation seed, and the recording bounds.
struct CheckConfig {
  bool race = true;
  bool lockorder = true;
  bool condvar = true;
  bool latency = true;
  /// 0 = no perturbation; any other value seeds the PCT-style hook.
  std::uint64_t schedule_seed = 0;
  /// Finding cap; further findings only bump `Report::suppressed`.
  std::size_t max_findings = 256;
  /// Event-stream cap (a safety valve for very long runs); events past the
  /// cap are counted in `Report::events_dropped` and not analyzed.
  std::size_t max_events = std::size_t{1} << 21;

  static CheckConfig all() { return CheckConfig{}; }
};

struct Report {
  std::vector<Finding> findings;
  std::uint64_t suppressed = 0;      ///< findings past max_findings
  std::uint64_t events = 0;          ///< events analyzed
  std::uint64_t events_dropped = 0;  ///< events past max_events
  std::uint64_t perturbations = 0;   ///< yields/sleeps the seed injected

  bool clean() const { return findings.empty() && suppressed == 0; }
  std::uint64_t count(FindingKind kind) const;
  /// Multi-line human-readable summary for test messages and reports.
  std::string summary() const;
};

/// Start recording under `config`.  Events already recorded are kept (enable
/// after reset() for a fresh session).  Thread-safe; the context is a
/// never-destroyed singleton, so a stale pointer in a racing recorder is
/// always valid.
void enable(CheckConfig config = {});

/// Stop recording.  The event stream is kept for analyze().
void disable();

bool enabled();

/// Drop every recorded event, finding, and thread registration (object
/// registrations survive: live primitives hold their ids).
void reset();

/// Run all configured passes over the recorded stream.  Non-destructive —
/// callers may keep recording afterwards, though mid-run analysis can see
/// open waits.  Deterministic: same stream + config => same findings.
Report analyze();

/// True when PROTONDOSE_THREADCHECK requests checking ("1"/"true"/"on"/
/// "yes").  A static initializer honors it at startup, seeding the
/// perturbation hook from PROTONDOSE_THREADCHECK_SEED when set.
bool env_enabled();
std::uint64_t env_schedule_seed();

/// Latency-lint hook: DoseEngine::compute* entry points call this with a
/// site name; the pass flags any such call made while the calling thread
/// holds a pd::Mutex.  One null test when disabled.
void note_compute(const char* site);

namespace detail {

enum class EventKind : std::uint8_t {
  kLock,
  kUnlock,
  kWaitBegin,
  kWaitEnd,
  kNotify,
  kAccess,
  kCompute,
};

/// WaitBegin flavors (Event::aux).
constexpr std::uint32_t kWaitPlain = 0;      ///< linted
constexpr std::uint32_t kWaitPredicated = 1;
constexpr std::uint32_t kWaitAttested = 2;   ///< caller-attested re-check loop
constexpr std::uint32_t kWaitTimed = 3;      ///< timed waits poll; not linted

enum class ObjectKind : std::uint8_t {
  kMutex,
  kCondVar,
  kShared,
  kComputeSite,
};

/// Condvar waiter expectation (see pd::CondVar).
constexpr std::uint32_t kWaitersExpected = 0;
constexpr std::uint32_t kWaitersOptional = 1;

/// Register the primitive whose id lives in `slot` and return its id.  The
/// slot is re-checked and written under the registry lock, so threads that
/// reach a fresh primitive together all get the one id the first of them
/// published — never two ids that split its events.
std::uint32_t register_object(std::atomic<std::uint32_t>& slot,
                              ObjectKind kind, const char* name,
                              std::uint32_t flags);

/// Lazily resolve a primitive's object id (0 = unregistered).  Registration
/// happens on first instrumented use, so primitives constructed before
/// enable() still get ids.
inline std::uint32_t resolve_id(std::atomic<std::uint32_t>& slot,
                                ObjectKind kind, const char* name,
                                std::uint32_t flags = 0) {
  const std::uint32_t id = slot.load(std::memory_order_relaxed);
  return id != 0 ? id : register_object(slot, kind, name, flags);
}

/// The active context, or nullptr when disabled — the one test every
/// instrumented operation pays.
struct Context;
Context* active();

void record_lock(Context* ctx, std::uint32_t id);
void record_unlock(Context* ctx, std::uint32_t id);
void record_wait_begin(Context* ctx, std::uint32_t cv, std::uint32_t flavor);
void record_wait_end(Context* ctx, std::uint32_t cv);
void record_notify(Context* ctx, std::uint32_t cv, bool all);
void record_access(Context* ctx, std::uint32_t obj, std::size_t begin,
                   std::size_t end, bool write);
void record_compute(Context* ctx, std::uint32_t site);

/// Seeded PCT-style perturbation at an instrumented point (no-op when the
/// session seed is 0).
void perturb(Context* ctx);

}  // namespace detail
}  // namespace pd::threadcheck

namespace pd {

/// Instrumented std::mutex.  Satisfies Lockable, so the std lock adapters
/// work unchanged.  The name should be a string literal (stored as a
/// pointer; registration copies it).
class Mutex {
 public:
  explicit Mutex(const char* name = "pd::Mutex") noexcept : name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() {
    if (auto* ctx = threadcheck::detail::active()) {
      threadcheck::detail::perturb(ctx);
      m_.lock();
      threadcheck::detail::record_lock(ctx, id());
      return;
    }
    m_.lock();
  }

  bool try_lock() {
    if (auto* ctx = threadcheck::detail::active()) {
      const bool got = m_.try_lock();
      if (got) {
        threadcheck::detail::record_lock(ctx, id());
      }
      return got;
    }
    return m_.try_lock();
  }

  void unlock() {
    // Record *before* releasing so a competitor's subsequent lock record
    // always lands after ours — the recorded order then matches the real
    // acquisition order, which the analysis passes rely on.
    if (auto* ctx = threadcheck::detail::active()) {
      threadcheck::detail::record_unlock(ctx, id());
    }
    m_.unlock();
  }

  const char* name() const { return name_; }

 private:
  std::uint32_t id() {
    return threadcheck::detail::resolve_id(
        id_, threadcheck::detail::ObjectKind::kMutex, name_);
  }

  std::mutex m_;
  const char* name_;
  std::atomic<std::uint32_t> id_{0};
};

/// Instrumented condition variable over pd::Mutex.
///
/// Untimed waits must either state their predicate (wait(lock, pred)) or
/// attest to an enclosing re-check loop (wait_unpredicated); the bare
/// wait(lock) records a linted event — it is the missed-predicate hazard.
/// Timed waits are polls by construction and are not linted.
///
/// `Waiters` is the notify-lint registration: the default (kExpected)
/// asserts that someone waits on this condvar over the run, so notifying a
/// never-waited condvar — the classic wrong-condvar lost-wakeup bug — is
/// flagged.  Completion-broadcast condvars whose waiters are legitimately
/// optional (a drain() no one calls, workers that exit before their first
/// wait in a short-lived pool) declare kOptional, with a comment at the
/// declaration saying why — the same per-suppression-rationale discipline
/// as .clang-tidy.
class CondVar {
 public:
  enum class Waiters : std::uint8_t { kExpected, kOptional };

  explicit CondVar(const char* name = "pd::CondVar",
                   Waiters waiters = Waiters::kExpected) noexcept
      : name_(name), waiters_(waiters) {}
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() { notify(false); }
  void notify_all() { notify(true); }

  /// Bare untimed wait — linted (kUnpredicatedWait).  Prefer the predicate
  /// overload, or wait_unpredicated when an enclosing loop re-checks.
  void wait(std::unique_lock<Mutex>& lock) {
    wait_flavored(lock, threadcheck::detail::kWaitPlain);
  }

  template <typename Pred>
  void wait(std::unique_lock<Mutex>& lock, Pred pred) {
    if (auto* ctx = threadcheck::detail::active()) {
      threadcheck::detail::record_wait_begin(
          ctx, id(), threadcheck::detail::kWaitPredicated);
      cv_.wait(lock, std::move(pred));
      threadcheck::detail::record_wait_end(
          threadcheck::detail::active(), id());
      return;
    }
    cv_.wait(lock, std::move(pred));
  }

  /// Untimed wait whose caller attests to an enclosing re-check loop (the
  /// worker-loop pattern: every wake re-evaluates the full scheduling
  /// state).  Recorded, not linted.
  void wait_unpredicated(std::unique_lock<Mutex>& lock) {
    wait_flavored(lock, threadcheck::detail::kWaitAttested);
  }

  template <typename Clock, typename Duration>
  std::cv_status wait_until(
      std::unique_lock<Mutex>& lock,
      const std::chrono::time_point<Clock, Duration>& deadline) {
    if (auto* ctx = threadcheck::detail::active()) {
      threadcheck::detail::record_wait_begin(
          ctx, id(), threadcheck::detail::kWaitTimed);
      const std::cv_status status = cv_.wait_until(lock, deadline);
      threadcheck::detail::record_wait_end(
          threadcheck::detail::active(), id());
      return status;
    }
    return cv_.wait_until(lock, deadline);
  }

  template <typename Clock, typename Duration, typename Pred>
  bool wait_until(std::unique_lock<Mutex>& lock,
                  const std::chrono::time_point<Clock, Duration>& deadline,
                  Pred pred) {
    if (auto* ctx = threadcheck::detail::active()) {
      threadcheck::detail::record_wait_begin(
          ctx, id(), threadcheck::detail::kWaitTimed);
      const bool satisfied = cv_.wait_until(lock, deadline, std::move(pred));
      threadcheck::detail::record_wait_end(
          threadcheck::detail::active(), id());
      return satisfied;
    }
    return cv_.wait_until(lock, deadline, std::move(pred));
  }

  const char* name() const { return name_; }

 private:
  void notify(bool all) {
    if (auto* ctx = threadcheck::detail::active()) {
      threadcheck::detail::perturb(ctx);
      threadcheck::detail::record_notify(ctx, id(), all);
    }
    if (all) {
      cv_.notify_all();
    } else {
      cv_.notify_one();
    }
  }

  void wait_flavored(std::unique_lock<Mutex>& lock, std::uint32_t flavor) {
    if (auto* ctx = threadcheck::detail::active()) {
      threadcheck::detail::record_wait_begin(ctx, id(), flavor);
      cv_.wait(lock);
      threadcheck::detail::record_wait_end(
          threadcheck::detail::active(), id());
      return;
    }
    cv_.wait(lock);
  }

  std::uint32_t id() {
    return threadcheck::detail::resolve_id(
        id_, threadcheck::detail::ObjectKind::kCondVar, name_,
        waiters_ == Waiters::kOptional
            ? threadcheck::detail::kWaitersOptional
            : threadcheck::detail::kWaitersExpected);
  }

  std::condition_variable_any cv_;
  const char* name_;
  Waiters waiters_;
  std::atomic<std::uint32_t> id_{0};
};

/// Registration handle for a shared region accessed at range granularity
/// (e.g. parallel_spmv's output rows: each worker records one write of its
/// partition).  The race pass flags overlapping, unordered accesses — so a
/// partitioning bug that handed two threads overlapping ranges is caught
/// even when the duplicated rows happened to be written in a benign order.
class SharedRange {
 public:
  explicit SharedRange(const char* name = "pd::SharedRange") noexcept
      : name_(name) {}
  SharedRange(const SharedRange&) = delete;
  SharedRange& operator=(const SharedRange&) = delete;

  void read(std::size_t begin, std::size_t end) const {
    if (auto* ctx = threadcheck::detail::active()) {
      threadcheck::detail::perturb(ctx);
      threadcheck::detail::record_access(ctx, id(), begin, end, false);
    }
  }

  void write(std::size_t begin, std::size_t end) {
    if (auto* ctx = threadcheck::detail::active()) {
      threadcheck::detail::perturb(ctx);
      threadcheck::detail::record_access(ctx, id(), begin, end, true);
    }
  }

  const char* name() const { return name_; }

 private:
  std::uint32_t id() const {
    return threadcheck::detail::resolve_id(
        id_, threadcheck::detail::ObjectKind::kShared, name_);
  }

  const char* name_;
  mutable std::atomic<std::uint32_t> id_{0};
};

/// A single shared cell with instrumented accessors.  read()/write() return
/// references, so call sites stay close to plain member access:
///   state.write() = 3;   int v = state.read();
/// The accessors record the event *before* returning the reference; the
/// recorded order is the instrumented-operation order, which is what the
/// happens-before pass reasons about.
template <typename T>
class SharedState {
 public:
  explicit SharedState(const char* name, T value = T{})
      : value_(std::move(value)), range_(name) {}
  SharedState(const SharedState&) = delete;
  SharedState& operator=(const SharedState&) = delete;

  const T& read() const {
    range_.read(0, 1);
    return value_;
  }

  T& write() {
    range_.write(0, 1);
    return value_;
  }

  /// Uninstrumented access for single-threaded phases (construction,
  /// post-join teardown).
  T& unchecked() { return value_; }

 private:
  T value_;
  SharedRange range_;
};

}  // namespace pd
