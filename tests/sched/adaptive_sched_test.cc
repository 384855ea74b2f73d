// Node-level overload control inside ScheduleSimulator: the AIMD limiter
// tightening admissions below the static MPL, CoDel head-of-queue
// shedding with stamped reasons and criticality exemption, the
// conservation split in ScheduleMetrics, and bit-exact replay with the
// controllers armed.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "overload/node_control.h"
#include "overload/shed_reason.h"
#include "scenario/scenario.h"
#include "sched/metrics.h"
#include "sched/simulator.h"
#include "test_support.h"

namespace contender::sched {
namespace {

using contender::testing::DefaultConfig;
using contender::testing::PaperWorkload;
using contender::testing::SharedPredictor;

std::vector<Request> BurstyStream(int num_requests, double interarrival,
                                  uint64_t seed) {
  std::vector<units::Seconds> reference;
  for (const TemplateProfile& p : SharedPredictor().profiles()) {
    reference.push_back(p.isolated_latency);
  }
  scenario::ScenarioParams options;
  options.num_requests = num_requests;
  options.mean_interarrival = units::Seconds(interarrival);
  options.deadline_probability = 0.5;
  options.min_slack = 3.0;
  options.max_slack = 10.0;
  options.seed = seed;
  auto trace = scenario::FindScenario(scenario::kPoissonSteadyName)
                   ->GenerateTrace(reference, options);
  CONTENDER_CHECK(trace.ok()) << trace.status();
  return std::move(trace->requests);
}

StatusOr<ScheduleResult> RunWith(const std::vector<Request>& requests,
                                 const ScheduleOptions& options) {
  ScheduleSimulator simulator(&PaperWorkload(), DefaultConfig());
  auto policy = MakePolicy(PolicyKind::kFifo);
  MixOracle oracle(&SharedPredictor());
  return simulator.Run(requests, policy.get(), &oracle, options);
}

TEST(AdaptiveSchedTest, DefaultsKeepTheStaticLimitAndShedNothing) {
  const auto requests = BurstyStream(16, 25.0, 7);
  ScheduleOptions options;
  options.target_mpl = 3;
  auto result = RunWith(requests, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->final_admission_limit, 3);
  EXPECT_EQ(result->limit_decreases, 0u);
  EXPECT_EQ(result->queue_sheds, 0u);
  for (const RequestOutcome& out : result->outcomes) {
    EXPECT_TRUE(out.completed);
    EXPECT_FALSE(out.shed);
  }
}

TEST(AdaptiveSchedTest, LimiterCeilingIsTheTargetMpl) {
  // Only the switch is set: the limiter starts at the node's target MPL,
  // so its first counted decrease already tightens admission (3 -> 2).
  overload::NodeOverloadOptions options;
  options.adaptive_limit = true;
  overload::NodeOverloadControl control(options, /*target_mpl=*/3);
  EXPECT_EQ(control.EffectiveLimit(), 3);
  while (control.limiter().decreases() == 0) {
    control.OnCompletion(units::Seconds(1.0), units::Seconds(3.0));
  }
  EXPECT_EQ(control.EffectiveLimit(), 2);
}

TEST(AdaptiveSchedTest, AdaptiveLimiterTightensBelowStaticMpl) {
  // Arrivals far faster than service at MPL 8 push completions well past
  // their in-mix predictions, so the limiter must back off below the
  // static MPL while every request still completes (the floor keeps one
  // slot open).
  const auto requests = BurstyStream(24, 4.0, 11);
  ScheduleOptions options;
  options.target_mpl = 8;
  options.overload.adaptive_limit = true;
  auto result = RunWith(requests, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->limit_decreases, 0u)
      << "the 1.4 knee never tripped the limiter";
  EXPECT_LT(result->final_admission_limit, 8);
  EXPECT_GE(result->final_admission_limit, 1);
  for (const RequestOutcome& out : result->outcomes) {
    EXPECT_TRUE(out.completed) << "request " << out.request.request_id;
  }
}

TEST(AdaptiveSchedTest, CoDelShedsStaleQueueHeadsAndStampsReason) {
  // MPL 1 with arrivals ~30x faster than service: the queue delay grows
  // without bound, so CoDel must start dropping heads once the delay has
  // persisted a full interval.
  const auto requests = BurstyStream(32, 1.0, 5);
  ScheduleOptions options;
  options.target_mpl = 1;
  options.overload.codel_shed = true;
  auto result = RunWith(requests, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->queue_sheds, 0u) << "overloaded queue never shed";
  size_t shed = 0;
  for (const RequestOutcome& out : result->outcomes) {
    ASSERT_TRUE(out.completed || out.shed);
    if (!out.shed) continue;
    ++shed;
    EXPECT_EQ(out.shed_reason, overload::ShedReason::kQueueDelay);
    EXPECT_FALSE(out.completed);
    EXPECT_GT(out.queue_wait, overload::NodeOverloadControl::kCoDel.target);
  }
  EXPECT_EQ(shed, result->queue_sheds);

  const ScheduleMetrics metrics = ComputeScheduleMetrics(*result);
  EXPECT_EQ(metrics.completed + metrics.shed, metrics.requests);
  EXPECT_EQ(metrics.shed, shed);
  EXPECT_EQ(metrics.shed_by_reason.at(overload::ShedReason::kQueueDelay),
            shed);
}

TEST(AdaptiveSchedTest, CriticalRequestsAreNeverCoDelShed) {
  auto requests = BurstyStream(32, 1.0, 5);
  for (Request& request : requests) {
    if (request.request_id % 3 == 0) {
      request.criticality = overload::Criticality::kCritical;
    }
  }
  ScheduleOptions options;
  options.target_mpl = 1;
  options.overload.codel_shed = true;
  auto result = RunWith(requests, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->queue_sheds, 0u);
  for (const RequestOutcome& out : result->outcomes) {
    if (out.request.criticality == overload::Criticality::kCritical) {
      EXPECT_TRUE(out.completed)
          << "critical request " << out.request.request_id << " was shed";
    }
  }
}

TEST(AdaptiveSchedTest, ArmedControllersReplayBitExactly) {
  const auto requests = BurstyStream(24, 2.0, 13);
  ScheduleOptions options;
  options.target_mpl = 2;
  options.overload.adaptive_limit = true;
  options.overload.codel_shed = true;
  auto first = RunWith(requests, options);
  auto second = RunWith(requests, options);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  ASSERT_EQ(first->outcomes.size(), second->outcomes.size());
  EXPECT_EQ(first->makespan, second->makespan);
  EXPECT_EQ(first->queue_sheds, second->queue_sheds);
  EXPECT_EQ(first->final_admission_limit, second->final_admission_limit);
  for (size_t i = 0; i < first->outcomes.size(); ++i) {
    const RequestOutcome& a = first->outcomes[i];
    const RequestOutcome& b = second->outcomes[i];
    EXPECT_EQ(a.shed, b.shed) << i;
    EXPECT_EQ(a.completed, b.completed) << i;
    EXPECT_EQ(a.admit_time, b.admit_time) << i;
    EXPECT_EQ(a.completion_time, b.completion_time) << i;
    EXPECT_EQ(a.queue_wait, b.queue_wait) << i;
  }
}

}  // namespace
}  // namespace contender::sched
