#pragma once
// Minimal caller-participating thread pool for concurrent functional-only
// launches (gpusim/launch.hpp) and the native host backend
// (kernels/native_backend.hpp).
//
// The pool owns `workers` threads; parallel_for additionally runs work on the
// calling thread, so a pool built with resolve_phase1_threads(n) - 1 workers
// saturates n cores and degrades to plain serial execution (zero threads,
// zero synchronization overhead per item beyond one atomic) on a single-core
// host.  Work items are claimed from an atomic counter, so the schedule is
// dynamic; no result may depend on which thread runs which item.

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/threadcheck.hpp"

namespace pd::gpusim {

/// Number of execution contexts for a requested thread count.
/// 0 = auto (all hardware threads); anything else is clamped to >= 1.
unsigned resolve_phase1_threads(unsigned requested);

class ThreadPool {
 public:
  /// Spawn `workers` worker threads (0 is valid: parallel_for runs inline).
  explicit ThreadPool(unsigned workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned workers() const { return static_cast<unsigned>(threads_.size()); }

  /// Run fn(i) for i in [0, n), distributing items across the workers and the
  /// calling thread.  Blocks until all items finish.  The first exception
  /// thrown by any item is rethrown here after the batch drains.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  void run_items();

  std::vector<std::thread> threads_;
  // Instrumented primitives (common/threadcheck.hpp).  start_cv_ declares
  // Waiters::kOptional: zero-worker pools (the single-core degradation
  // path) notify it at teardown with no worker ever having waited.
  pd::Mutex mutex_{"ThreadPool.mutex"};
  pd::CondVar start_cv_{"ThreadPool.start_cv",
                        pd::CondVar::Waiters::kOptional};
  pd::CondVar done_cv_{"ThreadPool.done_cv"};
  /// threadcheck registration for the batch descriptor (fn_/total_):
  /// parallel_for records the write under the lock, run_items records the
  /// read — the race pass then proves the generation handshake orders them.
  pd::SharedRange batch_state_{"ThreadPool.batch"};
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t total_ = 0;
  std::atomic<std::size_t> next_{0};
  std::size_t pending_workers_ = 0;  ///< Workers still inside the batch.
  std::uint64_t generation_ = 0;     ///< Bumped per batch to wake workers.
  std::exception_ptr error_;
  bool stop_ = false;
};

}  // namespace pd::gpusim
