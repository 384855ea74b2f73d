#include "sched/metrics.h"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "scenario/scenario.h"
#include "sched/mix_oracle.h"
#include "sched/policy.h"
#include "sched/request.h"
#include "sched/simulator.h"
#include "test_support.h"

namespace contender::sched {
namespace {

using contender::testing::DefaultConfig;
using contender::testing::PaperWorkload;
using contender::testing::SharedPredictor;

TEST(TenantScheduleStatsTest, AddAccumulatesCountsAndSamples) {
  TenantScheduleStats stats;
  stats.Add(units::Seconds(1.0), units::Seconds(5.0), true, false);
  stats.Add(units::Seconds(3.0), units::Seconds(9.0), true, true);
  stats.Add(units::Seconds(0.0), units::Seconds(4.0), false, false);
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.deadline_requests, 2u);
  EXPECT_EQ(stats.deadline_misses, 1u);
  EXPECT_DOUBLE_EQ(stats.sla_miss_rate(), 0.5);
  EXPECT_EQ(stats.queue_wait.count(), 3u);
  EXPECT_DOUBLE_EQ(stats.response.mean(), 6.0);
  EXPECT_DOUBLE_EQ(stats.response.max(), 9.0);
}

TEST(TenantScheduleStatsTest, SlaMissRateIsZeroWithoutDeadlines) {
  TenantScheduleStats stats;
  EXPECT_DOUBLE_EQ(stats.sla_miss_rate(), 0.0);
  stats.Add(units::Seconds(1.0), units::Seconds(2.0), false, false);
  EXPECT_DOUBLE_EQ(stats.sla_miss_rate(), 0.0);
}

std::vector<Request> TenantStream(int num_requests, int num_tenants,
                                  uint64_t seed) {
  std::vector<units::Seconds> reference;
  for (const TemplateProfile& p : SharedPredictor().profiles()) {
    reference.push_back(p.isolated_latency);
  }
  scenario::ScenarioParams options;
  options.num_requests = num_requests;
  options.mean_interarrival = units::Seconds(25.0);
  options.deadline_probability = 0.5;
  options.seed = seed;
  auto trace = scenario::FindScenario(scenario::kPoissonSteadyName)
                   ->GenerateTrace(reference, options);
  CONTENDER_CHECK(trace.ok()) << trace.status();
  for (Request& r : trace->requests) {
    r.tenant_id = r.request_id % num_tenants;
  }
  return std::move(trace->requests);
}

TEST(TenantScheduleStatsTest, SimulatorMetricsPartitionByTenant) {
  const auto requests = TenantStream(18, 3, 7);
  MixOracle oracle(&SharedPredictor());
  ScheduleSimulator simulator(&PaperWorkload(), DefaultConfig());
  auto policy = MakePolicy(PolicyKind::kGreedyContention);
  auto result =
      simulator.Run(requests, policy.get(), &oracle, ScheduleOptions{});
  ASSERT_TRUE(result.ok()) << result.status();
  const ScheduleMetrics m = ComputeScheduleMetrics(*result);

  ASSERT_EQ(m.per_tenant.size(), 3u);
  size_t total = 0;
  size_t deadline_requests = 0;
  size_t deadline_misses = 0;
  for (const auto& [tenant, stats] : m.per_tenant) {
    EXPECT_GE(tenant, 0);
    EXPECT_LT(tenant, 3);
    EXPECT_EQ(stats.requests, 6u);  // ids round-robin over 3 tenants
    total += stats.requests;
    deadline_requests += stats.deadline_requests;
    deadline_misses += stats.deadline_misses;
    EXPECT_EQ(stats.response.count(), stats.requests);
    EXPECT_EQ(stats.queue_wait.count(), stats.requests);
  }
  EXPECT_EQ(total, m.requests);
  EXPECT_EQ(deadline_requests, m.deadline_requests);
  EXPECT_EQ(deadline_misses, m.deadline_misses);
}

TEST(TenantScheduleStatsTest, SingleTenantEntryMatchesTopLevelAggregates) {
  const auto requests = TenantStream(14, 1, 11);
  MixOracle oracle(&SharedPredictor());
  ScheduleSimulator simulator(&PaperWorkload(), DefaultConfig());
  auto policy = MakePolicy(PolicyKind::kFifo);
  auto result =
      simulator.Run(requests, policy.get(), &oracle, ScheduleOptions{});
  ASSERT_TRUE(result.ok()) << result.status();
  const ScheduleMetrics m = ComputeScheduleMetrics(*result);

  ASSERT_EQ(m.per_tenant.size(), 1u);
  const TenantScheduleStats& t = m.per_tenant.at(0);
  EXPECT_EQ(t.requests, m.requests);
  EXPECT_DOUBLE_EQ(t.response.mean(), m.mean_response.value());
  EXPECT_DOUBLE_EQ(t.response.p95(), m.p95_response.value());
  EXPECT_DOUBLE_EQ(t.queue_wait.max(), m.max_queue_wait.value());
  EXPECT_EQ(t.deadline_requests, m.deadline_requests);
  EXPECT_EQ(t.deadline_misses, m.deadline_misses);
  EXPECT_DOUBLE_EQ(t.sla_miss_rate(), m.sla_miss_rate);
}

}  // namespace
}  // namespace contender::sched
