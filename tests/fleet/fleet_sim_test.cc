// End-to-end fleet determinism and correctness:
//   * the same root seed yields a bit-identical FleetResult at every
//     thread count (routing is sequential; node seeds pre-derive in node
//     order; results land in node-index slots);
//   * chaos drain/failover replays bit-exactly from the fail-point root
//     seed alone;
//   * explicit drains stop new placements and fail the predicted backlog
//     over; FleetMetrics conserves the blame ledgers.

#include "fleet/fleet_simulator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "fleet/metrics.h"
#include "fleet/population.h"
#include "test_support.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"

namespace contender::fleet {
namespace {

using contender::testing::DefaultConfig;
using contender::testing::PaperWorkload;
using contender::testing::SharedPredictor;

Population TestPopulation(int num_requests = 48, double skew = 1.0,
                          uint64_t seed = 42) {
  std::vector<units::Seconds> reference;
  for (const TemplateProfile& p : SharedPredictor().profiles()) {
    reference.push_back(p.isolated_latency);
  }
  scenario::ScenarioParams options;
  options.num_tenants = 4;
  options.num_requests = num_requests;
  options.mean_interarrival = units::Seconds(8.0);
  options.skew = skew;
  options.templates_per_tenant = 10;
  options.deadline_probability = 0.5;
  options.seed = seed;
  auto population = GeneratePopulation(
      reference, options,
      *scenario::FindScenario(scenario::kPoissonSteadyName));
  CONTENDER_CHECK(population.ok()) << population.status();
  return std::move(*population);
}

StatusOr<FleetResult> RunFleet(const Population& population,
                               FleetOptions options) {
  FleetSimulator simulator(&PaperWorkload(), DefaultConfig(),
                           &SharedPredictor());
  return simulator.Run(population, options);
}

bool SameFleetResult(const FleetResult& a, const FleetResult& b) {
  if (a.makespan != b.makespan || a.outcomes.size() != b.outcomes.size() ||
      a.blame.size() != b.blame.size()) {
    return false;
  }
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    const FleetQueryOutcome& x = a.outcomes[i];
    const FleetQueryOutcome& y = b.outcomes[i];
    if (x.node != y.node || x.rejected != y.rejected ||
        x.failed_over != y.failed_over || x.completed != y.completed ||
        x.admit_time != y.admit_time ||
        x.completion_time != y.completion_time ||
        x.execution_latency != y.execution_latency ||
        x.response_time != y.response_time ||
        x.predicted_latency != y.predicted_latency ||
        x.missed_deadline != y.missed_deadline) {
      return false;
    }
  }
  for (size_t i = 0; i < a.blame.size(); ++i) {
    if (a.blame[i].request_id != b.blame[i].request_id ||
        a.blame[i].excess != b.blame[i].excess ||
        a.blame[i].self_blame != b.blame[i].self_blame ||
        a.blame[i].shares.size() != b.blame[i].shares.size()) {
      return false;
    }
    for (size_t j = 0; j < a.blame[i].shares.size(); ++j) {
      if (a.blame[i].shares[j].culprit_request !=
              b.blame[i].shares[j].culprit_request ||
          a.blame[i].shares[j].seconds != b.blame[i].shares[j].seconds) {
        return false;
      }
    }
  }
  return true;
}

TEST(FleetSimulatorTest, OutcomesCoverEveryRequest) {
  const Population population = TestPopulation();
  FleetOptions options;
  auto result = RunFleet(population, options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->outcomes.size(), population.requests.size());
  size_t node_requests = 0;
  for (const FleetNodeSummary& node : result->nodes) {
    node_requests += node.requests;
    EXPECT_LE(node.makespan, result->makespan);
  }
  size_t completed = 0;
  for (size_t i = 0; i < result->outcomes.size(); ++i) {
    const FleetQueryOutcome& out = result->outcomes[i];
    EXPECT_EQ(out.request.request_id, static_cast<int>(i));
    ASSERT_TRUE(out.completed || out.rejected);
    if (!out.completed) continue;
    ++completed;
    EXPECT_GE(out.node, 0);
    EXPECT_LT(out.node, options.num_nodes);
    EXPECT_GE(out.admit_time, out.request.arrival_time);
    EXPECT_EQ(out.queue_wait, out.admit_time - out.request.arrival_time);
    EXPECT_EQ(out.response_time,
              out.completion_time - out.request.arrival_time);
    EXPECT_GT(out.execution_latency, units::Seconds(0.0));
  }
  EXPECT_EQ(node_requests, completed);
  EXPECT_EQ(result->blame.size(), completed);
  EXPECT_EQ(result->router.routed, completed);
}

TEST(FleetSimulatorTest, ThreadCountDoesNotChangeResults) {
  const Population population = TestPopulation();
  FleetOptions options;
  options.policy = RoutePolicy::kContentionAware;
  options.threads = 1;
  auto serial = RunFleet(population, options);
  ASSERT_TRUE(serial.ok()) << serial.status();
  for (int threads : {2, 4, 8}) {
    options.threads = threads;
    auto parallel = RunFleet(population, options);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    EXPECT_TRUE(SameFleetResult(*serial, *parallel))
        << "diverged at " << threads << " threads";
  }
}

TEST(FleetSimulatorTest, SameSeedSameResultDifferentSeedDiffers) {
  const Population population = TestPopulation();
  FleetOptions options;
  auto first = RunFleet(population, options);
  auto second = RunFleet(population, options);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(SameFleetResult(*first, *second));

  options.seed = 1234;
  auto reseeded = RunFleet(population, options);
  ASSERT_TRUE(reseeded.ok()) << reseeded.status();
  EXPECT_FALSE(SameFleetResult(*first, *reseeded));
}

TEST(FleetSimulatorTest, ExplicitDrainStopsPlacementsAndFailsOver) {
  const Population population = TestPopulation(/*num_requests=*/64);
  const units::Seconds drain_time =
      population.requests[20].arrival_time;
  FleetOptions options;
  options.policy = RoutePolicy::kRoundRobin;  // guarantees node 0 traffic
  options.drains.push_back({0, drain_time});
  auto result = RunFleet(population, options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->router.drains.size(), 1u);
  EXPECT_EQ(result->router.drains[0].node, 0);
  for (const FleetQueryOutcome& out : result->outcomes) {
    ASSERT_TRUE(out.completed || out.rejected);
    // After the drain instant nothing new lands on node 0; only queries
    // the router already believed running may still finish there.
    if (out.request.arrival_time >= drain_time && !out.failed_over) {
      EXPECT_NE(out.node, 0) << "request " << out.request.request_id
                             << " routed to the drained node";
    }
    if (out.failed_over) {
      EXPECT_NE(out.node, 0);
      EXPECT_GE(out.admit_time, drain_time);
    }
  }
  // Draining an unknown node is rejected up front.
  FleetOptions bad = options;
  bad.drains = {{17, drain_time}};
  EXPECT_FALSE(RunFleet(population, bad).ok());
}

TEST(FleetSimulatorTest, UnknownTemplateIndexIsInvalidArgument) {
  Population population = TestPopulation(8);
  population.requests[3].template_index =
      static_cast<int>(SharedPredictor().profiles().size());
  FleetOptions options;
  options.num_nodes = 2;
  EXPECT_EQ(RunFleet(population, options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FleetSimulatorTest, TenantQuotaRejectsAndMetricsCountIt) {
  const Population population = TestPopulation(/*num_requests=*/64,
                                               /*skew=*/2.0);
  FleetOptions options;
  options.tenant_quota = 2;
  auto result = RunFleet(population, options);
  ASSERT_TRUE(result.ok()) << result.status();
  const FleetMetrics metrics = ComputeFleetMetrics(*result);
  EXPECT_GT(metrics.rejected, 0u) << "quota 2 never rejected under skew 2";
  size_t rejected_by_tenant = 0;
  for (const auto& [tenant, count] : metrics.rejected_by_tenant) {
    rejected_by_tenant += count;
  }
  EXPECT_EQ(rejected_by_tenant, metrics.rejected);
  EXPECT_EQ(metrics.completed + metrics.rejected, metrics.requests);
}

// Like every other bad option, a negative quota is an InvalidArgument from
// Run, not an abort in the router's constructor.
TEST(FleetSimulatorTest, NegativeTenantQuotaIsInvalidArgument) {
  const Population population = TestPopulation(8);
  FleetOptions options;
  options.tenant_quota = -1;
  const auto result = RunFleet(population, options);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("tenant_quota"), std::string::npos)
      << result.status();
}

TEST(FleetSimulatorTest, PoolWidthAboveTheMaximumIsInvalidArgument) {
  const Population population = TestPopulation(8);
  FleetOptions options;
  options.threads = ThreadPool::kMaxThreads + 1;
  const auto result = RunFleet(population, options);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("threads"), std::string::npos)
      << result.status();
}

TEST(FleetSimulatorTest, FleetMetricsConserveBlame) {
  const Population population = TestPopulation(/*num_requests=*/56);
  FleetOptions options;
  options.target_mpl = 2;  // tighter nodes => more contention => blame
  auto result = RunFleet(population, options);
  ASSERT_TRUE(result.ok()) << result.status();
  const FleetMetrics metrics = ComputeFleetMetrics(*result);

  // Ledger conservation: received + self over all tenants == total excess.
  double received = 0.0;
  double inflicted = 0.0;
  double self = 0.0;
  for (const auto& [tenant, totals] : metrics.blame_by_tenant) {
    received += totals.received_s;
    inflicted += totals.inflicted_s;
    self += totals.self_s;
  }
  EXPECT_NEAR(received + self, metrics.total_excess_s,
              1e-6 * std::max(1.0, metrics.total_excess_s));
  EXPECT_NEAR(received, inflicted,
              1e-6 * std::max(1.0, received));
  EXPECT_DOUBLE_EQ(self, metrics.total_self_blame_s);

  // Matrix rows reproduce each victim's received seconds.
  std::map<int, double> row_sums;
  for (const auto& [edge, seconds] : metrics.tenant_blame_matrix_s) {
    row_sums[edge.first] += seconds;
  }
  for (const auto& [tenant, totals] : metrics.blame_by_tenant) {
    EXPECT_NEAR(row_sums[tenant], totals.received_s,
                1e-6 * std::max(1.0, totals.received_s));
  }

  // Per-tenant latency stats partition the completed set.
  size_t tenant_requests = 0;
  for (const auto& [tenant, stats] : metrics.per_tenant) {
    tenant_requests += stats.requests;
  }
  EXPECT_EQ(tenant_requests, metrics.completed);
}

TEST(FleetSimulatorTest, ChaosDrainReplayIsBitExact) {
  const Population population = TestPopulation(/*num_requests=*/40);
  FleetOptions options;
  options.num_nodes = 4;

  auto& registry = FailPointRegistry::Global();
  registry.SetRootSeed(7);
  registry.ArmProbability("fleet.node.drain", 0.08);
  auto first = RunFleet(population, options);
  registry.SetRootSeed(7);
  registry.ArmProbability("fleet.node.drain", 0.08);
  auto second = RunFleet(population, options);
  registry.Disarm("fleet.node.drain");

  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  ASSERT_FALSE(first->router.drains.empty()) << "chaos drain never fired";
  EXPECT_GT(first->router.failovers + first->router.rejected, 0u);
  EXPECT_TRUE(SameFleetResult(*first, *second));
  ASSERT_EQ(first->router.drains.size(), second->router.drains.size());
  for (size_t i = 0; i < first->router.drains.size(); ++i) {
    EXPECT_EQ(first->router.drains[i].node,
              second->router.drains[i].node);
    EXPECT_EQ(first->router.drains[i].time,
              second->router.drains[i].time);
  }

  // Disarmed, the same options produce a drain-free run.
  auto clean = RunFleet(population, options);
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_TRUE(clean->router.drains.empty());
  EXPECT_FALSE(SameFleetResult(*first, *clean));
}

}  // namespace
}  // namespace contender::fleet
