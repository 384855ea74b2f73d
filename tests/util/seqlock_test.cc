// Battery for the TSAN-clean seqlock (util/seqlock.h): single-threaded
// round-trips, the multi-word torn-read stress (readers must never
// observe a payload that violates the writer's invariant), the write-side
// reentrancy death, the bounded-spin read refusing while a write section
// is open, and the detection-idiom negative-compile check that a
// non-trivially-copyable payload cannot instantiate the template.

#include "util/seqlock.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

namespace contender {
namespace {

// A multi-word payload with a checkable invariant: c must always equal
// a + b. A torn read (half old value, half new) breaks it.
struct Triple {
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
};

Triple MakeTriple(uint64_t round) {
  Triple t;
  t.a = round;
  t.b = round * 3 + 1;
  t.c = t.a + t.b;
  return t;
}

TEST(SeqlockTest, RoundTripsSingleThreaded) {
  Seqlock<Triple> lock(MakeTriple(7));
  Triple got;
  ASSERT_TRUE(lock.TryReadOnce(&got));
  EXPECT_EQ(got.a, 7u);
  EXPECT_EQ(got.c, got.a + got.b);

  lock.Write(MakeTriple(41));
  ASSERT_TRUE(lock.TryReadOnce(&got));
  EXPECT_EQ(got.a, 41u);
  EXPECT_EQ(got.c, got.a + got.b);
}

TEST(SeqlockTest, SequenceAdvancesByTwoPerWriteAndStaysEven) {
  Seqlock<uint64_t> lock(0);
  const uint64_t start = lock.sequence();
  EXPECT_EQ(start % 2, 0u);
  lock.Write(1);
  lock.Write(2);
  EXPECT_EQ(lock.sequence(), start + 4);
}

TEST(SeqlockTest, ReadFailsWhileWriteSectionIsOpen) {
  Seqlock<uint64_t> lock(5);
  uint64_t got = 0;
  {
    auto guard = lock.StartWrite();
    guard.Set(6);
    // Odd sequence: every probe must refuse rather than hand out a value
    // from inside the section.
    EXPECT_FALSE(lock.TryReadOnce(&got));
    EXPECT_FALSE(lock.TryRead(&got, 32));
  }
  ASSERT_TRUE(lock.TryReadOnce(&got));
  EXPECT_EQ(got, 6u);
}

// The torn-read stress: readers hammer TryRead while the writer replaces
// the triple as fast as it can. Every successful read must satisfy the
// invariant and carry a round number the writer actually published.
TEST(SeqlockTest, ReadersNeverObserveTornTriples) {
  Seqlock<Triple> lock(MakeTriple(0));
  constexpr int kReaders = 4;
  // The writer runs until the readers collectively report this many
  // successful reads (progress-coupled, so the test is meaningful on any
  // core count — a fixed round count can finish before a reader is ever
  // scheduled on a small machine), capped to bound the runtime.
  constexpr uint64_t kMinReads = 5000;
  constexpr uint64_t kMaxRounds = 20000000;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> reads{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      Triple got;
      while (!stop.load(std::memory_order_acquire)) {
        if (lock.TryReadOnce(&got)) {
          reads.fetch_add(1, std::memory_order_relaxed);
          if (got.c != got.a + got.b || got.a > kMaxRounds ||
              got.b != got.a * 3 + 1) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  uint64_t round = 0;
  while (reads.load(std::memory_order_relaxed) < kMinReads &&
         round < kMaxRounds) {
    lock.Write(MakeTriple(++round));
    // Give starved readers a slice between bursts of writes.
    if ((round & 255) == 0) std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GE(reads.load(), kMinReads);
  Triple final_value;
  ASSERT_TRUE(lock.TryReadOnce(&final_value));
  EXPECT_EQ(final_value.a, round);
}

TEST(SeqlockDeathTest, ReentrantWriteSectionDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Seqlock<uint64_t> lock(0);
  EXPECT_DEATH(
      {
        auto outer = lock.StartWrite();
        auto inner = lock.StartWrite();  // second entry: protocol violation
      },
      "write section entered while already held");
}

// Negative-compile check via the detection idiom (the same harness the
// units tests use): Seqlock's enable_if guard makes the template
// uninstantiable for non-trivially-copyable payloads, so the "is this
// type well-formed" probe must come back false — a std::string payload
// is rejected at compile time, not torn at runtime.
template <typename T, typename = void>
struct SeqlockAdmits : std::false_type {};
template <typename T>
struct SeqlockAdmits<T, std::void_t<decltype(sizeof(Seqlock<T>))>>
    : std::true_type {};

static_assert(SeqlockAdmits<uint64_t>::value,
              "trivially-copyable payloads must be admitted");
static_assert(SeqlockAdmits<Triple>::value,
              "multi-word trivially-copyable payloads must be admitted");
static_assert(!SeqlockAdmits<std::string>::value,
              "non-trivially-copyable payloads must be rejected");
static_assert(!SeqlockAdmits<std::vector<int>>::value,
              "non-trivially-copyable payloads must be rejected");

}  // namespace
}  // namespace contender
