// Fleet-wide overload control: the conservation ledger (admitted + shed
// == offered, fleet-wide and per tenant), ShedReason stamping on every
// drop, criticality exemptions (only hard limits touch critical work),
// metastability recovery under a sustained overload, and bit-exact
// replay at every thread count and under armed door chaos.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <map>
#include <utility>
#include <vector>

#include "fleet/fleet_simulator.h"
#include "fleet/metrics.h"
#include "fleet/population.h"
#include "overload/shed_reason.h"
#include "test_support.h"
#include "util/failpoint.h"

namespace contender::fleet {
namespace {

using contender::testing::DefaultConfig;
using contender::testing::PaperWorkload;
using contender::testing::SharedPredictor;

Population OverloadPopulation(int num_requests, double interarrival,
                              uint64_t seed = 42) {
  std::vector<units::Seconds> reference;
  for (const TemplateProfile& p : SharedPredictor().profiles()) {
    reference.push_back(p.isolated_latency);
  }
  scenario::ScenarioParams options;
  options.num_tenants = 6;  // two tenants per criticality tier
  options.num_requests = num_requests;
  options.mean_interarrival = units::Seconds(interarrival);
  options.skew = 1.0;
  options.templates_per_tenant = 10;
  options.deadline_probability = 0.5;
  options.seed = seed;
  auto population = GeneratePopulation(
      reference, options,
      *scenario::FindScenario(scenario::kPoissonSteadyName));
  CONTENDER_CHECK(population.ok()) << population.status();
  return std::move(*population);
}

/// Full controller: adaptive node limits, node CoDel, and the door's
/// codel/brownout/metastability stack.
FleetOptions FullControlOptions() {
  FleetOptions options;
  options.num_nodes = 2;
  options.target_mpl = 2;
  options.door.enabled = true;
  options.node_overload.adaptive_limit = true;
  options.node_overload.codel_shed = true;
  return options;
}

StatusOr<FleetResult> RunFleet(const Population& population,
                               const FleetOptions& options) {
  FleetSimulator simulator(&PaperWorkload(), DefaultConfig(),
                           &SharedPredictor());
  return simulator.Run(population, options);
}

bool SameFleetResult(const FleetResult& a, const FleetResult& b) {
  if (a.makespan != b.makespan || a.outcomes.size() != b.outcomes.size()) {
    return false;
  }
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    const FleetQueryOutcome& x = a.outcomes[i];
    const FleetQueryOutcome& y = b.outcomes[i];
    if (x.node != y.node || x.rejected != y.rejected || x.shed != y.shed ||
        x.shed_reason != y.shed_reason || x.completed != y.completed ||
        x.failed_over != y.failed_over || x.admit_time != y.admit_time ||
        x.completion_time != y.completion_time ||
        x.execution_latency != y.execution_latency ||
        x.predicted_latency != y.predicted_latency ||
        x.missed_deadline != y.missed_deadline) {
      return false;
    }
  }
  return true;
}

void ExpectConservation(const FleetMetrics& m) {
  // Fleet-wide: every offered request is accounted for exactly once.
  EXPECT_EQ(m.offered, m.requests);
  EXPECT_EQ(m.offered, m.completed + m.shed_total);
  EXPECT_EQ(m.admitted, m.offered - m.rejected);
  EXPECT_EQ(m.admitted, m.completed + m.node_sheds);
  size_t by_reason = 0;
  for (const auto& [reason, count] : m.shed_by_reason) by_reason += count;
  EXPECT_EQ(by_reason, m.shed_total);

  // Per tenant: offered == completed + every stamped shed.
  std::map<int, size_t> completed_by_tenant;
  for (const auto& [tenant, stats] : m.per_tenant) {
    completed_by_tenant[tenant] = stats.requests;
  }
  size_t offered_sum = 0;
  for (const auto& [tenant, offered] : m.offered_by_tenant) {
    offered_sum += offered;
    size_t tenant_sheds = 0;
    auto it = m.shed_by_tenant.find(tenant);
    if (it != m.shed_by_tenant.end()) {
      for (const auto& [reason, count] : it->second) tenant_sheds += count;
    }
    EXPECT_EQ(offered, completed_by_tenant[tenant] + tenant_sheds)
        << "tenant " << tenant;
  }
  EXPECT_EQ(offered_sum, m.offered);
}

class OverloadFleetTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPointRegistry::Global().DisarmAll(); }
};

TEST(FleetMetricsTest, AllRejectedResultHasNaNPercentiles) {
  // Nothing completed: the percentiles are NaN, as in
  // ComputeScheduleMetrics, never a fabricated 0 s a threshold would pass.
  FleetResult result;
  for (int id = 0; id < 3; ++id) {
    FleetQueryOutcome out;
    out.request.request_id = id;
    out.request.tenant_id = id % 2;
    out.rejected = true;
    out.shed_reason = overload::ShedReason::kQuota;
    result.outcomes.push_back(out);
  }
  const FleetMetrics m = ComputeFleetMetrics(result);
  EXPECT_EQ(m.completed, 0u);
  EXPECT_EQ(m.shed_total, 3u);
  ExpectConservation(m);
  EXPECT_TRUE(std::isnan(m.p50_response.value()));
  EXPECT_TRUE(std::isnan(m.p95_response.value()));
  EXPECT_TRUE(std::isnan(m.p99_response.value()));
}

TEST_F(OverloadFleetTest, FullControllerConservesAndStampsEveryDrop) {
  // ~10x the fleet's service rate: a sustained overload the controller
  // must shed its way through.
  const Population population = OverloadPopulation(96, 2.0);
  auto result = RunFleet(population, FullControlOptions());
  ASSERT_TRUE(result.ok()) << result.status();
  const FleetMetrics metrics = ComputeFleetMetrics(*result);
  ExpectConservation(metrics);
  EXPECT_GT(metrics.shed_total, 0u) << "10x overload never shed";
  EXPECT_GT(metrics.completed, 0u) << "controller shed everything";

  for (const FleetQueryOutcome& out : result->outcomes) {
    ASSERT_TRUE(out.completed || out.rejected || out.shed);
    if (!out.rejected && !out.shed) continue;
    // Critical work is exempt from every load-shedding signal; only the
    // hard limits may drop it, and no quota/memory limit is set here.
    EXPECT_NE(out.request.criticality, overload::Criticality::kCritical)
        << "request " << out.request.request_id << " shed with reason "
        << overload::ShedReasonName(out.shed_reason);
  }
  // The door's decision count covers every offered request.
  EXPECT_EQ(result->door.decisions, population.requests.size());
  EXPECT_EQ(result->door.admitted + result->door.shed,
            result->door.decisions);
}

TEST_F(OverloadFleetTest, MetastabilityRecoveryEngagesUnderSustainedJam) {
  const Population population = OverloadPopulation(128, 1.0);
  FleetOptions options = FullControlOptions();
  auto result = RunFleet(population, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->door.recovery_entries, 0u)
      << "goodput collapse + growing delay never tripped the detector";
  EXPECT_GT(result->door.recovery_sheds, 0u);
}

TEST_F(OverloadFleetTest, QuotaRejectionsAreStampedQuota) {
  const Population population = OverloadPopulation(64, 6.0);
  FleetOptions options;  // door disabled: quota is the only shed signal
  options.num_nodes = 2;
  options.tenant_quota = 2;
  auto result = RunFleet(population, options);
  ASSERT_TRUE(result.ok()) << result.status();
  const FleetMetrics metrics = ComputeFleetMetrics(*result);
  ExpectConservation(metrics);
  ASSERT_GT(metrics.rejected, 0u);
  EXPECT_EQ(metrics.shed_by_reason.at(overload::ShedReason::kQuota),
            metrics.rejected);
  size_t legacy_sum = 0;
  for (const auto& [tenant, count] : metrics.rejected_by_tenant) {
    legacy_sum += count;
  }
  EXPECT_EQ(legacy_sum, metrics.rejected);
  for (const FleetQueryOutcome& out : result->outcomes) {
    if (out.rejected) {
      EXPECT_EQ(out.shed_reason, overload::ShedReason::kQuota);
    }
  }
}

TEST_F(OverloadFleetTest, MemoryBudgetShedsWithMemoryPressure) {
  const Population population = OverloadPopulation(64, 4.0);
  FleetOptions options;
  options.num_nodes = 2;
  options.target_mpl = 3;
  options.door.enabled = true;
  // Template working sets run 1e7..4e9 bytes: a 3 GB node budget admits
  // small mixes but saturates once one big scan is resident. It sheds
  // early enough that the delay-driven signals never fire in this run,
  // so memory is the only live one.
  options.door.node_memory_budget = units::Bytes(3e9);
  auto result = RunFleet(population, options);
  ASSERT_TRUE(result.ok()) << result.status();
  const FleetMetrics metrics = ComputeFleetMetrics(*result);
  ExpectConservation(metrics);
  ASSERT_GT(metrics.rejected, 0u) << "3 GB budget never filled";
  EXPECT_GT(metrics.completed, 0u) << "budget shed everything";
  for (const FleetQueryOutcome& out : result->outcomes) {
    if (out.rejected) {
      EXPECT_EQ(out.shed_reason, overload::ShedReason::kMemoryPressure);
    }
  }
}

TEST_F(OverloadFleetTest, BrownoutShedsLowestTiersOnly) {
  // Near the fleet's service rate: the predicted wait climbs past the
  // ladder's enter pressure while goodput holds up, so the brownout
  // ladder sheds where a deeper jam would put the metastability
  // detector's recovery in front of it.
  const Population population = OverloadPopulation(96, 100.0);
  FleetOptions options = FullControlOptions();
  auto result = RunFleet(population, options);
  ASSERT_TRUE(result.ok()) << result.status();
  const FleetMetrics metrics = ComputeFleetMetrics(*result);
  ExpectConservation(metrics);
  auto brownout =
      metrics.shed_by_reason.find(overload::ShedReason::kCriticalityBrownout);
  ASSERT_NE(brownout, metrics.shed_by_reason.end())
      << "ladder never shed near the service rate";
  ASSERT_GT(brownout->second, 0u);
  EXPECT_GT(result->door.brownout_escalations, 0u);
  // Every brownout shed hit a tier below critical, and the sheddable
  // tier — the first rung — was hit. (Standard-tier sheds mean the
  // ladder climbed to rung 2; their count depends on the Zipf arrival
  // mix, so only membership is asserted, not relative volume.)
  size_t sheddable = 0;
  size_t standard = 0;
  for (const FleetQueryOutcome& out : result->outcomes) {
    if (!(out.rejected || out.shed) ||
        out.shed_reason != overload::ShedReason::kCriticalityBrownout) {
      continue;
    }
    switch (out.request.criticality) {
      case overload::Criticality::kSheddable:
        ++sheddable;
        break;
      case overload::Criticality::kStandard:
        ++standard;
        break;
      case overload::Criticality::kCritical:
        FAIL() << "critical request " << out.request.request_id
               << " brownout-shed";
    }
  }
  EXPECT_GT(sheddable, 0u);
  EXPECT_GT(sheddable + standard, 0u);
}

TEST_F(OverloadFleetTest, FullControllerIsThreadCountInvariant) {
  const Population population = OverloadPopulation(96, 2.0);
  FleetOptions options = FullControlOptions();
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

TEST_F(OverloadFleetTest, DoorChaosReplaysBitExactly) {
  const Population population = OverloadPopulation(64, 4.0);
  FleetOptions options = FullControlOptions();
  auto& registry = FailPointRegistry::Global();

  registry.SetRootSeed(13);
  registry.ArmProbability("overload.door.shed", 0.1);
  auto first = RunFleet(population, options);
  registry.SetRootSeed(13);
  registry.ArmProbability("overload.door.shed", 0.1);
  auto second = RunFleet(population, options);
  registry.DisarmAll();

  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  ASSERT_GT(first->door.chaos_sheds, 0u) << "chaos shed never fired";
  EXPECT_EQ(first->door.chaos_sheds, second->door.chaos_sheds);
  EXPECT_TRUE(SameFleetResult(*first, *second));
  // Conservation holds with injected sheds too.
  ExpectConservation(ComputeFleetMetrics(*first));

  // Disarmed, the run differs (the injected sheds are gone) but still
  // conserves.
  auto clean = RunFleet(population, options);
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_EQ(clean->door.chaos_sheds, 0u);
  ExpectConservation(ComputeFleetMetrics(*clean));
}

}  // namespace
}  // namespace contender::fleet
