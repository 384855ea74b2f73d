#include "util/retry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/units.h"

namespace contender {
namespace {

RetryOptions FastOptions() {
  RetryOptions options;
  options.max_attempts = 4;
  options.initial_backoff = units::Seconds(0.010);
  options.backoff_multiplier = 2.0;
  options.max_backoff = units::Seconds(1.0);
  options.jitter_fraction = 0.25;
  options.deadline = units::Seconds(10.0);
  return options;
}

TEST(ClockTest, SystemClockAdvancesMonotonically) {
  Clock* clock = Clock::System();
  ASSERT_NE(clock, nullptr);
  const units::Seconds a = clock->Now();
  const units::Seconds b = clock->Now();
  EXPECT_GE(b.value(), a.value());
}

TEST(FakeClockTest, SleepAdvancesAndRecords) {
  FakeClock clock(units::Seconds(100.0));
  EXPECT_DOUBLE_EQ(clock.Now().value(), 100.0);
  clock.Sleep(units::Seconds(2.5));
  clock.Sleep(units::Seconds(0.5));
  EXPECT_DOUBLE_EQ(clock.Now().value(), 103.0);
  ASSERT_EQ(clock.sleeps().size(), 2u);
  EXPECT_DOUBLE_EQ(clock.sleeps()[0].value(), 2.5);
  EXPECT_DOUBLE_EQ(clock.sleeps()[1].value(), 0.5);
}

TEST(FakeClockTest, AdvanceDoesNotRecordASleep) {
  FakeClock clock;
  clock.Advance(units::Seconds(7.0));
  EXPECT_DOUBLE_EQ(clock.Now().value(), 7.0);
  EXPECT_TRUE(clock.sleeps().empty());
}

TEST(RetryablePolicyTest, ClassifiesEveryCode) {
  EXPECT_FALSE(IsRetryableStatusCode(StatusCode::kOk));
  EXPECT_FALSE(IsRetryableStatusCode(StatusCode::kAborted));
  EXPECT_FALSE(IsRetryableStatusCode(StatusCode::kInvalidArgument));
  EXPECT_FALSE(IsRetryableStatusCode(StatusCode::kFailedPrecondition));
  EXPECT_FALSE(IsRetryableStatusCode(StatusCode::kOutOfRange));
  EXPECT_FALSE(IsRetryableStatusCode(StatusCode::kUnimplemented));
  // A hard quota: retries cannot refill it, so blind retries only amplify
  // the overload that exhausted it.
  EXPECT_FALSE(IsRetryableStatusCode(StatusCode::kResourceExhausted));
  EXPECT_TRUE(IsRetryableStatusCode(StatusCode::kNotFound));
  EXPECT_TRUE(IsRetryableStatusCode(StatusCode::kInternal));
  EXPECT_TRUE(IsRetryableStatusCode(StatusCode::kDeadlineExceeded));
  // Transient overload sheds are worth retrying, with backoff.
  EXPECT_TRUE(IsRetryableStatusCode(StatusCode::kUnavailable));
}

TEST(BackoffScheduleTest, GrowsExponentiallyWithinJitterBounds) {
  RetryOptions options = FastOptions();
  BackoffSchedule schedule(options, /*seed=*/7);
  double expected_base = options.initial_backoff.value();
  for (int i = 0; i < 6; ++i) {
    const double delay = schedule.Next().value();
    const double capped = std::min(expected_base, options.max_backoff.value());
    EXPECT_GE(delay, capped * (1.0 - options.jitter_fraction)) << i;
    EXPECT_LE(delay, capped * (1.0 + options.jitter_fraction)) << i;
    expected_base *= options.backoff_multiplier;
  }
}

TEST(BackoffScheduleTest, SameSeedSameSequence) {
  RetryOptions options = FastOptions();
  BackoffSchedule a(options, 11);
  BackoffSchedule b(options, 11);
  BackoffSchedule c(options, 12);
  bool any_difference = false;
  for (int i = 0; i < 8; ++i) {
    const units::Seconds da = a.Next();
    EXPECT_DOUBLE_EQ(da.value(), b.Next().value());
    any_difference = any_difference || da.value() != c.Next().value();
  }
  EXPECT_TRUE(any_difference);
}

TEST(RetryWithBackoffTest, FirstSuccessSleepsNothing) {
  FakeClock clock;
  int calls = 0;
  Status s = RetryWithBackoff(FastOptions(), 1, &clock, [&] {
    ++calls;
    return Status::OK();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(clock.sleeps().empty());
}

TEST(RetryWithBackoffTest, TransientFailureRetriesUntilSuccess) {
  FakeClock clock;
  int calls = 0;
  Status s = RetryWithBackoff(FastOptions(), 1, &clock, [&] {
    ++calls;
    if (calls < 3) return Status::Internal("flaky");
    return Status::OK();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(clock.sleeps().size(), 2u);  // one backoff per retry
}

TEST(RetryWithBackoffTest, ExhaustionReturnsTheLastError) {
  FakeClock clock;
  int calls = 0;
  Status s = RetryWithBackoff(FastOptions(), 1, &clock, [&] {
    ++calls;
    return Status::Internal("always broken #" + std::to_string(calls));
  });
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_EQ(s.message(), "always broken #4");
  EXPECT_EQ(calls, FastOptions().max_attempts);
}

TEST(RetryWithBackoffTest, NonRetryableStopsImmediately) {
  FakeClock clock;
  int calls = 0;
  Status s = RetryWithBackoff(FastOptions(), 1, &clock, [&] {
    ++calls;
    return Status::Aborted("deliberate");
  });
  EXPECT_EQ(s.code(), StatusCode::kAborted);
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(clock.sleeps().empty());
}

TEST(RetryWithBackoffTest, DeadlineCutsTheBudgetShort) {
  RetryOptions options = FastOptions();
  options.max_attempts = 100;
  options.initial_backoff = units::Seconds(1.0);
  options.max_backoff = units::Seconds(1.0);
  options.jitter_fraction = 0.0;
  options.deadline = units::Seconds(2.5);
  FakeClock clock;
  int calls = 0;
  Status s = RetryWithBackoff(options, 1, &clock, [&] {
    ++calls;
    return Status::Internal("down");
  });
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  // 1s sleeps fit twice in a 2.5s budget: attempts at t=0, 1, 2; the next
  // planned sleep would land past the deadline, so it gives up there.
  EXPECT_EQ(calls, 3);
  // The terminal status still names the underlying error.
  EXPECT_NE(s.message().find("down"), std::string::npos);
}

TEST(RetryWithBackoffTest, JitterSeedMakesSleepSequenceReproducible) {
  auto run = [](uint64_t seed) {
    FakeClock clock;
    int calls = 0;
    const Status ignored = RetryWithBackoff(FastOptions(), seed, &clock, [&] {
      ++calls;
      return Status::Internal("x");
    });
    EXPECT_FALSE(ignored.ok());
    std::vector<double> sleeps;
    for (units::Seconds s : clock.sleeps()) sleeps.push_back(s.value());
    return sleeps;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

}  // namespace
}  // namespace contender
