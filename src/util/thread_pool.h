// A fixed-size worker pool with a FIFO work queue and future-based result
// delivery. Tasks are arbitrary callables; an exception thrown by a task is
// captured and rethrown from its future's get(). The destructor stops
// accepting new work, drains every task already queued, and joins the
// workers.
//
// Determinism contract: tasks are *started* in submission order but may
// *complete* in any order. Callers that need reproducible output must derive
// all randomness (seeds) before submission and order results by submission
// index — Map does the latter, and every fan-out in src/ goes through it.

#ifndef CONTENDER_UTIL_THREAD_POOL_H_
#define CONTENDER_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace contender {

namespace internal {
/// Chaos hook: true when the "util.thread_pool.submit" fail point fires,
/// in which case Submit degrades gracefully by running the task inline on
/// the caller's thread instead of enqueueing it (the future contract is
/// unchanged). Defined in thread_pool.cc; disarmed cost is one relaxed
/// atomic load.
bool ThreadPoolSubmitDegradesInline();
}  // namespace internal

/// Fixed-size thread pool with a shared FIFO queue.
class ThreadPool {
 public:
  /// The widest pool: far beyond any host this runs on, and small enough
  /// that a mistyped width fails by name instead of exhausting threads.
  static constexpr int kMaxThreads = 256;

  /// Spawns `num_threads` workers; values < 1 are clamped to 1. CHECK-fails
  /// above kMaxThreads, naming the width, before starting any worker.
  explicit ThreadPool(int num_threads);

  /// Drains the queue (already-submitted tasks still run) and joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `fn` and returns a future for its result. If `fn` throws, the
  /// exception is rethrown from std::future::get().
  template <typename Fn>
  auto Submit(Fn&& fn) -> std::future<std::invoke_result_t<std::decay_t<Fn>>> {
    using R = std::invoke_result_t<std::decay_t<Fn>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> future = task->get_future();
    if (internal::ThreadPoolSubmitDegradesInline()) {
      (*task)();  // degraded mode: caller executes; future still delivers
      return future;
    }
    {
      // Unlock wakes the Await in WorkerLoop — no explicit signal needed.
      MutexLock lock(&mutex_);
      queue_.push([task] { (*task)(); });
    }
    return future;
  }

  /// Ordered parallel map: evaluates fn(0..n-1) on the pool and returns the
  /// results by index, whatever order the tasks finish in. `fn` must be
  /// safe to invoke concurrently. Every task has finished when Map returns;
  /// an exception thrown by fn(i) is rethrown here (the lowest such i).
  template <typename Fn>
  auto Map(size_t n, Fn fn) -> std::vector<std::invoke_result_t<Fn, size_t>> {
    using R = std::invoke_result_t<Fn, size_t>;
    std::vector<std::future<R>> futures;
    futures.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      futures.push_back(Submit([&fn, i] { return fn(i); }));
    }
    for (std::future<R>& f : futures) f.wait();
    std::vector<R> out;
    out.reserve(n);
    for (std::future<R>& f : futures) out.push_back(f.get());
    return out;
  }

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// A sensible default pool width for this machine, in [1, kMaxThreads].
  static int DefaultThreads();

 private:
  void WorkerLoop();

  Mutex mutex_;
  std::queue<std::function<void()>> queue_ GUARDED_BY(mutex_);
  bool stopping_ GUARDED_BY(mutex_) = false;
  /// Written only by the constructor before any concurrency; the worker
  /// threads never touch it and the destructor joins after stopping_.
  std::vector<std::thread> workers_;  // contender-lint: lock-free
};

}  // namespace contender

#endif  // CONTENDER_UTIL_THREAD_POOL_H_
