#include "util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/failpoint.h"

namespace contender {
namespace {

TEST(ThreadPoolTest, SubmitReturnsTaskResults) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPoolTest, ClampsThreadCountToAtLeastOne) {
  ThreadPool zero(0);
  EXPECT_EQ(zero.num_threads(), 1);
  ThreadPool negative(-3);
  EXPECT_EQ(negative.num_threads(), 1);
  ThreadPool four(4);
  EXPECT_EQ(four.num_threads(), 4);
  EXPECT_GE(ThreadPool::DefaultThreads(), 1);
  EXPECT_LE(ThreadPool::DefaultThreads(), ThreadPool::kMaxThreads);
}

TEST(ThreadPoolTest, WidthAboveTheMaximumDiesNamingIt) {
  // The CHECK fires before the first worker starts, so the child starts
  // no thread.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(ThreadPool(ThreadPool::kMaxThreads + 1),
               "ThreadPool: 257 threads is more than kMaxThreads \\(256\\)");
}

TEST(ThreadPoolTest, SingleWorkerExecutesInSubmissionOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::mutex mutex;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.Submit([i, &order, &mutex] {
      std::lock_guard<std::mutex> lock(mutex);
      order.push_back(i);
    }));
  }
  for (auto& f : futures) f.get();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto throwing = pool.Submit(
      []() -> int { throw std::runtime_error("task failed"); });
  auto healthy = pool.Submit([] { return 7; });
  EXPECT_THROW(throwing.get(), std::runtime_error);
  // A throwing task does not poison the pool.
  EXPECT_EQ(healthy.get(), 7);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> completed{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&completed] {
        completed.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // Destructor must run every already-submitted task before joining.
  }
  EXPECT_EQ(completed.load(), 64);
}

TEST(ThreadPoolTest, WorkersRunConcurrently) {
  // Two tasks that each wait for the other's side-effect can only finish
  // when two workers run them simultaneously.
  ThreadPool pool(2);
  std::promise<void> first_started, second_started;
  auto a = pool.Submit([&] {
    first_started.set_value();
    second_started.get_future().wait();
  });
  auto b = pool.Submit([&] {
    second_started.set_value();
    first_started.get_future().wait();
  });
  const auto deadline = std::chrono::seconds(10);
  ASSERT_EQ(a.wait_for(deadline), std::future_status::ready);
  ASSERT_EQ(b.wait_for(deadline), std::future_status::ready);
  a.get();
  b.get();
}

TEST(ThreadPoolTest, ConcurrentSubmittersAreSafe) {
  // Hammer the queue from several submitter threads (exercised under TSAN
  // via the `tsan` ctest label).
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  std::vector<std::thread> submitters;
  std::mutex futures_mutex;
  std::vector<std::future<void>> futures;
  for (int s = 0; s < 4; ++s) {
    submitters.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        auto f = pool.Submit([&completed] {
          completed.fetch_add(1, std::memory_order_relaxed);
        });
        std::lock_guard<std::mutex> lock(futures_mutex);
        futures.push_back(std::move(f));
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  for (auto& f : futures) f.get();
  EXPECT_EQ(completed.load(), 200);
}

TEST(ThreadPoolTest, MapReturnsResultsByIndexWhenTasksFinishOutOfOrder) {
  // Task i waits for task i + 1 to finish, so the tasks finish in reverse
  // index order; each task needs its own worker.
  constexpr size_t kTasks = 4;
  ThreadPool pool(static_cast<int>(kTasks));
  std::vector<std::promise<void>> finished(kTasks);
  std::vector<std::future<void>> finished_signal;
  for (std::promise<void>& p : finished) {
    finished_signal.push_back(p.get_future());
  }
  std::mutex mutex;
  std::vector<size_t> finish_order;
  const std::vector<int> out = pool.Map(kTasks, [&](size_t i) {
    if (i + 1 < kTasks) {
      EXPECT_EQ(finished_signal[i + 1].wait_for(std::chrono::seconds(10)),
                std::future_status::ready);
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      finish_order.push_back(i);
    }
    finished[i].set_value();
    return static_cast<int>(i) * 10;
  });
  EXPECT_EQ(finish_order, (std::vector<size_t>{3, 2, 1, 0}));
  EXPECT_EQ(out, (std::vector<int>{0, 10, 20, 30}));
}

TEST(ThreadPoolTest, MapRethrowsATaskExceptionAfterEveryTaskFinished) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.Map(8,
                        [&ran](size_t i) {
                          ran.fetch_add(1, std::memory_order_relaxed);
                          if (i == 3) throw std::runtime_error("task 3");
                          return static_cast<int>(i);
                        }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 8);
  // The pool still serves the next map.
  EXPECT_EQ(pool.Map(3, [](size_t i) { return i; }),
            (std::vector<size_t>{0, 1, 2}));
}

TEST(ThreadPoolTest, MapRunsInlineWhenSubmitDegrades) {
  FailPointRegistry& registry = FailPointRegistry::Global();
  ThreadPool pool(4);
  const auto square = [](size_t i) { return i * i; };
  const std::vector<size_t> pooled = pool.Map(16, square);

  registry.ArmProbability("util.thread_pool.submit", 1.0);
  const std::thread::id caller = std::this_thread::get_id();
  const std::vector<std::thread::id> ran_on = pool.Map(
      16, [](size_t) { return std::this_thread::get_id(); });
  const std::vector<size_t> degraded = pool.Map(16, square);
  registry.DisarmAll();

  EXPECT_EQ(ran_on, std::vector<std::thread::id>(16, caller));
  EXPECT_EQ(degraded, pooled);
}

}  // namespace
}  // namespace contender
