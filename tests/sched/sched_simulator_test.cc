#include "sched/simulator.h"

#include <gtest/gtest.h>

#include <utility>

#include "sched/metrics.h"
#include "test_support.h"

namespace contender::sched {
namespace {

using contender::testing::DefaultConfig;
using contender::testing::PaperWorkload;
using contender::testing::SharedPredictor;

std::vector<Request> TestStream(int num_requests, uint64_t seed) {
  std::vector<units::Seconds> reference;
  for (const TemplateProfile& p : SharedPredictor().profiles()) {
    reference.push_back(p.isolated_latency);
  }
  ArrivalOptions options;
  options.num_requests = num_requests;
  options.mean_interarrival = units::Seconds(25.0);
  options.deadline_probability = 0.5;
  options.min_slack = 3.0;
  options.max_slack = 10.0;
  options.seed = seed;
  auto requests = GenerateArrivals(reference, options);
  CONTENDER_CHECK(requests.ok()) << requests.status();
  return std::move(*requests);
}

StatusOr<ScheduleResult> RunPolicy(const std::vector<Request>& requests,
                                   PolicyKind kind, MixOracle* oracle,
                                   int mpl = 3) {
  ScheduleSimulator simulator(&PaperWorkload(), DefaultConfig());
  auto policy = MakePolicy(kind);
  ScheduleOptions options;
  options.target_mpl = mpl;
  options.seed = 42;
  return simulator.Run(requests, policy.get(), oracle, options);
}

bool SameSchedule(const ScheduleResult& a, const ScheduleResult& b) {
  if (a.makespan != b.makespan || a.outcomes.size() != b.outcomes.size()) {
    return false;
  }
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    if (a.outcomes[i].admit_time != b.outcomes[i].admit_time ||
        a.outcomes[i].completion_time != b.outcomes[i].completion_time ||
        a.outcomes[i].predicted_latency != b.outcomes[i].predicted_latency ||
        a.outcomes[i].missed_deadline != b.outcomes[i].missed_deadline) {
      return false;
    }
  }
  return true;
}

TEST(ScheduleSimulatorTest, OutcomeInvariantsHold) {
  const auto requests = TestStream(16, 11);
  MixOracle oracle(&SharedPredictor());
  auto result = RunPolicy(requests, PolicyKind::kFifo, &oracle);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->outcomes.size(), requests.size());
  units::Seconds last_completion;
  for (size_t i = 0; i < result->outcomes.size(); ++i) {
    const RequestOutcome& o = result->outcomes[i];
    EXPECT_TRUE(o.completed);
    EXPECT_EQ(o.request.request_id, static_cast<int>(i));
    EXPECT_GE(o.admit_time, o.request.arrival_time);
    EXPECT_EQ(o.queue_wait, o.admit_time - o.request.arrival_time);
    EXPECT_EQ(o.response_time, o.completion_time - o.request.arrival_time);
    EXPECT_GT(o.execution_latency, units::Seconds(0.0));
    EXPECT_GT(o.predicted_latency, units::Seconds(0.0));
    EXPECT_GE(o.mix_size_at_admission, 0);
    EXPECT_LT(o.mix_size_at_admission, 3);  // target MPL 3 => at most 2 others
    if (o.request.deadline.has_value()) {
      EXPECT_EQ(o.missed_deadline, o.completion_time > *o.request.deadline);
    } else {
      EXPECT_FALSE(o.missed_deadline);
    }
    last_completion = std::max(last_completion, o.completion_time);
  }
  EXPECT_EQ(result->makespan, last_completion);
}

TEST(ScheduleSimulatorTest, RepeatedRunsAreBitIdentical) {
  const auto requests = TestStream(14, 3);
  for (PolicyKind kind :
       {PolicyKind::kGreedyContention, PolicyKind::kDeadlineAware}) {
    MixOracle a(&SharedPredictor());
    MixOracle b(&SharedPredictor());
    auto first = RunPolicy(requests, kind, &a);
    auto second = RunPolicy(requests, kind, &b);
    ASSERT_TRUE(first.ok()) << first.status();
    ASSERT_TRUE(second.ok()) << second.status();
    EXPECT_TRUE(SameSchedule(*first, *second)) << PolicyKindName(kind);
  }
}

TEST(ScheduleSimulatorTest, WarmOracleMatchesColdOracle) {
  const auto requests = TestStream(14, 5);
  // One oracle reused across policies and runs must yield schedules
  // bit-identical to a fresh oracle's: a probe carries no state.
  MixOracle warm(&SharedPredictor());
  for (PolicyKind kind : AllPolicyKinds()) {
    auto warmed = RunPolicy(requests, kind, &warm);
    MixOracle cold(&SharedPredictor());
    auto fresh = RunPolicy(requests, kind, &cold);
    ASSERT_TRUE(warmed.ok()) << warmed.status();
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    EXPECT_TRUE(SameSchedule(*warmed, *fresh)) << PolicyKindName(kind);
  }
  EXPECT_GT(warm.evaluations(), 0u);
}

TEST(ScheduleSimulatorTest, GreedyBeatsFifoMakespanOnFixedSeed) {
  const auto requests = TestStream(20, 42);
  MixOracle oracle(&SharedPredictor());
  auto fifo = RunPolicy(requests, PolicyKind::kFifo, &oracle);
  auto greedy = RunPolicy(requests, PolicyKind::kGreedyContention, &oracle);
  ASSERT_TRUE(fifo.ok()) << fifo.status();
  ASSERT_TRUE(greedy.ok()) << greedy.status();
  EXPECT_LE(greedy->makespan, fifo->makespan);
}

TEST(ScheduleSimulatorTest, MetricsAggregateOutcomes) {
  const auto requests = TestStream(16, 11);
  MixOracle oracle(&SharedPredictor());
  auto result = RunPolicy(requests, PolicyKind::kDeadlineAware, &oracle);
  ASSERT_TRUE(result.ok()) << result.status();
  const ScheduleMetrics m = ComputeScheduleMetrics(*result);
  EXPECT_EQ(m.requests, requests.size());
  EXPECT_EQ(m.makespan, result->makespan);
  EXPECT_GE(m.p99_response, m.p95_response);
  EXPECT_GE(m.p95_response, m.p50_response);
  EXPECT_GE(m.max_queue_wait, m.mean_queue_wait);
  size_t with_deadline = 0, missed = 0;
  for (const RequestOutcome& o : result->outcomes) {
    with_deadline += o.request.deadline.has_value() ? 1 : 0;
    missed += o.missed_deadline ? 1 : 0;
  }
  EXPECT_EQ(m.deadline_requests, with_deadline);
  EXPECT_EQ(m.deadline_misses, missed);
  EXPECT_GE(m.mean_prediction_error, 0.0);
}

TEST(ScheduleSimulatorTest, RejectsMalformedRequestStreams) {
  MixOracle oracle(&SharedPredictor());
  ScheduleSimulator simulator(&PaperWorkload(), DefaultConfig());
  auto policy = MakePolicy(PolicyKind::kFifo);
  ScheduleOptions options;

  std::vector<Request> dup = TestStream(4, 1);
  dup[2].request_id = 1;  // ids no longer dense 0..n-1
  EXPECT_FALSE(simulator.Run(dup, policy.get(), &oracle, options).ok());

  std::vector<Request> bad_template = TestStream(4, 1);
  bad_template[0].template_index = 10'000;
  EXPECT_FALSE(
      simulator.Run(bad_template, policy.get(), &oracle, options).ok());

  options.target_mpl = 0;
  EXPECT_FALSE(
      simulator.Run(TestStream(4, 1), policy.get(), &oracle, options).ok());
}

TEST(ScheduleSimulatorTest, EmptyStreamIsTriviallyComplete) {
  MixOracle oracle(&SharedPredictor());
  ScheduleSimulator simulator(&PaperWorkload(), DefaultConfig());
  auto policy = MakePolicy(PolicyKind::kFifo);
  auto result = simulator.Run({}, policy.get(), &oracle, ScheduleOptions{});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->outcomes.empty());
  EXPECT_EQ(result->makespan, units::Seconds(0.0));
}

}  // namespace
}  // namespace contender::sched
