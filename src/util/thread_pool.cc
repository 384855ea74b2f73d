#include "util/thread_pool.h"

#include <algorithm>

#include "util/failpoint.h"
#include "util/logging.h"

namespace contender {

namespace internal {

namespace {
// Eagerly registered so chaos suites can enumerate and arm the site before
// any task is submitted.
auto& kSubmitFailPoint = CONTENDER_DEFINE_FAILPOINT("util.thread_pool.submit");
}  // namespace

bool ThreadPoolSubmitDegradesInline() { return kSubmitFailPoint.ShouldFail(); }

}  // namespace internal

ThreadPool::ThreadPool(int num_threads) {
  CONTENDER_CHECK(num_threads <= kMaxThreads)
      << "ThreadPool: " << num_threads << " threads is more than kMaxThreads ("
      << kMaxThreads << ")";
  const int n = num_threads < 1 ? 1 : num_threads;
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    // Unlock wakes every Await-blocked worker; no explicit broadcast.
    MutexLock lock(&mutex_);
    stopping_ = true;
  }
  for (std::thread& worker : workers_) worker.join();
}

int ThreadPool::DefaultThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(std::min<unsigned>(hw, kMaxThreads));
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mutex_);
      // Await runs the predicate with mutex_ held, but TSA can't see
      // through the template indirection (R8-budgeted suppression).
      mutex_.Await([this]() NO_THREAD_SAFETY_ANALYSIS {
        return stopping_ || !queue_.empty();
      });
      if (queue_.empty()) return;  // stopping_ set and queue drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

}  // namespace contender
