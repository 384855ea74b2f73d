// The scenario table and shared contract: every built-in scenario is listed
// under a stable, unique name with a description, lookups work, every
// listed scenario's trace honours the base-class contract in both modes
// and is rejected on malformed params, and — the end-to-end guarantee —
// every trace round-trips through ScheduleSimulator without a Status
// error.

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/population.h"
#include "overload/shed_reason.h"
#include "scenario/scenario.h"
#include "sched/mix_oracle.h"
#include "sched/policy.h"
#include "sched/simulator.h"
#include "test_support.h"
#include "util/units.h"

namespace contender {
namespace {

std::vector<units::Seconds> PaperReferences() {
  std::vector<units::Seconds> refs;
  for (const TemplateProfile& p : testing::SharedTrainingData().profiles) {
    refs.push_back(p.isolated_latency);
  }
  return refs;
}

const scenario::Scenario& Poisson() {
  const scenario::Scenario* poisson =
      scenario::FindScenario(scenario::kPoissonSteadyName);
  CONTENDER_CHECK(poisson != nullptr);
  return *poisson;
}

// What the Scenario base class guarantees for every scenario: dense ids in
// arrival order, tenant ids and templates in range, deadlines only as the
// probability allows and always inside the slack band of the drawn
// template's reference latency, and (fleet mode) a tenant plan that
// apportions exactly num_requests, each tenant emitting its planned count.
void ExpectDriverContract(const scenario::ScenarioTrace& trace,
                          const std::vector<units::Seconds>& refs,
                          const scenario::ScenarioParams& params,
                          bool fleet) {
  ASSERT_EQ(trace.requests.size(), static_cast<size_t>(params.num_requests));
  const int num_tenants = fleet ? params.num_tenants : 1;
  std::vector<int> emitted(static_cast<size_t>(num_tenants), 0);
  for (size_t i = 0; i < trace.requests.size(); ++i) {
    const sched::Request& r = trace.requests[i];
    EXPECT_EQ(r.request_id, static_cast<int>(i));
    if (i > 0) {
      EXPECT_GE(r.arrival_time.value(),
                trace.requests[i - 1].arrival_time.value());
    }
    ASSERT_GE(r.tenant_id, 0);
    ASSERT_LT(r.tenant_id, num_tenants);
    ++emitted[static_cast<size_t>(r.tenant_id)];
    ASSERT_GE(r.template_index, 0);
    ASSERT_LT(r.template_index, static_cast<int>(refs.size()));
    if (params.deadline_probability == 0.0) {
      EXPECT_FALSE(r.deadline.has_value());
    } else if (params.deadline_probability == 1.0) {
      EXPECT_TRUE(r.deadline.has_value());
    }
    if (r.deadline.has_value()) {
      const double slack =
          (*r.deadline - r.arrival_time).value() /
          refs[static_cast<size_t>(r.template_index)].value();
      EXPECT_GE(slack, params.min_slack - 1e-9);
      EXPECT_LT(slack, params.max_slack + 1e-9);
    }
  }
  ASSERT_EQ(trace.tenants.size(), static_cast<size_t>(num_tenants));
  int planned = 0;
  for (size_t i = 0; i < trace.tenants.size(); ++i) {
    const scenario::TenantTraffic& tenant = trace.tenants[i];
    EXPECT_EQ(tenant.tenant_id, static_cast<int>(i));
    EXPECT_FALSE(tenant.templates.empty());
    EXPECT_EQ(tenant.num_requests, emitted[i]) << "tenant " << i;
    planned += tenant.num_requests;
  }
  EXPECT_EQ(planned, params.num_requests);
}

TEST(ScenarioRegistryTest, AllSixBuiltinsRegistered) {
  const std::vector<const scenario::Scenario*> all =
      scenario::AllScenarios();
  ASSERT_GE(all.size(), 6u);
  std::set<std::string> names;
  for (const scenario::Scenario* s : all) {
    ASSERT_NE(s, nullptr);
    EXPECT_FALSE(std::string(s->name()).empty());
    EXPECT_FALSE(std::string(s->description()).empty());
    EXPECT_TRUE(names.insert(s->name()).second)
        << "duplicate name " << s->name();
  }
  for (const char* expected :
       {"poisson-steady", "diurnal-cycle", "flash-crowd",
        "heavy-tail-tenants", "adhoc-novel", "mixed-refresh"}) {
    EXPECT_TRUE(names.count(expected)) << "missing scenario " << expected;
  }
}

TEST(ScenarioRegistryTest, AllIsSortedByName) {
  const std::vector<const scenario::Scenario*> all =
      scenario::AllScenarios();
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(std::string(all[i - 1]->name()), std::string(all[i]->name()));
  }
}

TEST(ScenarioRegistryTest, FindByNameAndMissLookup) {
  for (const scenario::Scenario* s : scenario::AllScenarios()) {
    EXPECT_EQ(scenario::FindScenario(s->name()), s);
  }
  EXPECT_EQ(scenario::FindScenario("no-such-scenario"), nullptr);
  EXPECT_NE(scenario::FindScenario(scenario::kPoissonSteadyName), nullptr);
}

TEST(ScenarioRegistryTest, EveryScenarioRoundTripsThroughTheSimulator) {
  const std::vector<units::Seconds> refs = PaperReferences();
  const sched::ScheduleSimulator simulator(&testing::PaperWorkload(),
                                           testing::DefaultConfig());

  scenario::ScenarioParams params;
  params.num_requests = 20;
  params.mean_interarrival = units::Seconds(25.0);
  params.deadline_probability = 0.5;
  params.seed = 42;

  for (const scenario::Scenario* s : scenario::AllScenarios()) {
    SCOPED_TRACE(s->name());
    auto trace = s->GenerateTrace(refs, params);
    ASSERT_TRUE(trace.ok()) << trace.status();
    ExpectDriverContract(*trace, refs, params, /*fleet=*/false);

    sched::MixOracle oracle(&testing::SharedPredictor());
    auto policy = sched::MakePolicy(sched::PolicyKind::kGreedyContention);
    auto result = simulator.Run(trace->requests, policy.get(), &oracle,
                                sched::ScheduleOptions{});
    ASSERT_TRUE(result.ok()) << s->name() << ": " << result.status();
    EXPECT_EQ(result->outcomes.size(), trace->requests.size());
    for (const sched::RequestOutcome& outcome : result->outcomes) {
      EXPECT_TRUE(outcome.completed);
    }
  }
}

TEST(ScenarioRegistryTest, EveryScenarioRoundTripsInFleetMode) {
  const std::vector<units::Seconds> refs = PaperReferences();
  scenario::ScenarioParams params;
  params.num_requests = 40;
  params.num_tenants = 4;
  params.skew = 1.0;
  params.templates_per_tenant = 10;
  params.mean_interarrival = units::Seconds(10.0);
  params.seed = 7;

  for (const scenario::Scenario* s : scenario::AllScenarios()) {
    SCOPED_TRACE(s->name());
    auto trace = s->GenerateFleetTrace(refs, params);
    ASSERT_TRUE(trace.ok()) << trace.status();
    ExpectDriverContract(*trace, refs, params, /*fleet=*/true);
  }
}

TEST(ScenarioRegistryTest, EveryScenarioHonoursTheDriverContract) {
  const std::vector<units::Seconds> refs = PaperReferences();
  for (const scenario::Scenario* s : scenario::AllScenarios()) {
    for (bool fleet : {false, true}) {
      for (double probability : {0.0, 1.0}) {
        SCOPED_TRACE(std::string(s->name()) + (fleet ? " fleet" : " single") +
                     " p=" + std::to_string(probability));
        scenario::ScenarioParams params;
        params.num_requests = 61;
        params.mean_interarrival = units::Seconds(10.0);
        params.deadline_probability = probability;
        params.min_slack = 2.0;
        params.max_slack = 5.0;
        params.num_tenants = 5;
        params.skew = 1.0;
        params.templates_per_tenant = 6;
        params.seed = 7;
        auto trace = fleet ? s->GenerateFleetTrace(refs, params)
                           : s->GenerateTrace(refs, params);
        ASSERT_TRUE(trace.ok()) << trace.status();
        ExpectDriverContract(*trace, refs, params, fleet);
      }
    }
  }
}

// Tenant planning as poisson-steady exposes it. Other scenarios may force
// their own skew (heavy-tail-tenants) or draw outside the tenant windows
// (adhoc-novel, mixed-refresh), so these hold for poisson-steady only.
TEST(ScenarioRegistryTest, PoissonSteadyPlansSharesAndWindows) {
  const std::vector<units::Seconds> refs = PaperReferences();
  scenario::ScenarioParams params;
  params.num_tenants = 5;
  params.num_requests = 97;  // not divisible: exercises the remainders
  auto uniform = Poisson().GenerateFleetTrace(refs, params);
  ASSERT_TRUE(uniform.ok()) << uniform.status();
  ExpectDriverContract(*uniform, refs, params, /*fleet=*/true);
  for (const scenario::TenantTraffic& t : uniform->tenants) {
    EXPECT_NEAR(t.rate_share, 0.2, 1e-12);
    EXPECT_GE(t.num_requests, 19);  // floor(97/5)
    EXPECT_LE(t.num_requests, 20);
  }

  params.skew = 2.0;
  auto skewed = Poisson().GenerateFleetTrace(refs, params);
  ASSERT_TRUE(skewed.ok()) << skewed.status();
  ExpectDriverContract(*skewed, refs, params, /*fleet=*/true);
  EXPECT_GT(skewed->tenants.front().num_requests,
            skewed->tenants.back().num_requests);
  EXPECT_GT(skewed->tenants.front().rate_share,
            skewed->tenants.back().rate_share);

  params = scenario::ScenarioParams{};
  params.num_tenants = 4;
  params.num_requests = 80;
  params.templates_per_tenant = 6;
  auto windowed = Poisson().GenerateFleetTrace(refs, params);
  ASSERT_TRUE(windowed.ok()) << windowed.status();
  for (const scenario::TenantTraffic& t : windowed->tenants) {
    EXPECT_EQ(t.templates.size(), 6u);
  }
  // Adjacent tenants overlap (rotating half-block windows) but differ.
  const std::vector<int>& t0 = windowed->tenants[0].templates;
  const std::vector<int>& t1 = windowed->tenants[1].templates;
  std::vector<int> shared;
  std::set_intersection(t0.begin(), t0.end(), t1.begin(), t1.end(),
                        std::back_inserter(shared));
  EXPECT_FALSE(shared.empty());
  EXPECT_NE(t0, t1);
  for (const sched::Request& r : windowed->requests) {
    const std::vector<int>& window =
        windowed->tenants[static_cast<size_t>(r.tenant_id)].templates;
    EXPECT_TRUE(std::binary_search(window.begin(), window.end(),
                                   r.template_index))
        << "tenant " << r.tenant_id << " drew template " << r.template_index;
  }
}

// TraceDigest does not hash criticality, so this is the only check of the
// stamp fleet::GeneratePopulation adds to the fleet trace.
TEST(ScenarioRegistryTest, GeneratePopulationOnlyStampsCriticality) {
  const std::vector<units::Seconds> refs = PaperReferences();
  scenario::ScenarioParams params;
  params.num_requests = 40;
  params.num_tenants = 4;
  params.skew = 1.0;
  params.templates_per_tenant = 10;
  params.deadline_probability = 0.5;
  for (const scenario::Scenario* s : scenario::AllScenarios()) {
    SCOPED_TRACE(s->name());
    auto trace = s->GenerateFleetTrace(refs, params);
    ASSERT_TRUE(trace.ok()) << trace.status();
    auto population = fleet::GeneratePopulation(refs, params, *s);
    ASSERT_TRUE(population.ok()) << population.status();
    EXPECT_EQ(scenario::TraceDigest(population->requests),
              scenario::TraceDigest(trace->requests));
    for (const sched::Request& r : population->requests) {
      EXPECT_EQ(r.criticality, overload::CriticalityForTenant(r.tenant_id));
    }
  }
}

TEST(ScenarioRegistryTest, InvalidParamsRejectedByEveryScenario) {
  const std::vector<units::Seconds> refs = PaperReferences();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  using Mutation = std::function<void(scenario::ScenarioParams*)>;
  // Each case breaks one field of otherwise valid params.
  const std::vector<std::pair<std::string, Mutation>> both_modes = {
      {"negative count", [](auto* p) { p->num_requests = -1; }},
      {"zero gap",
       [](auto* p) { p->mean_interarrival = units::Seconds(0.0); }},
      {"negative gap",
       [](auto* p) { p->mean_interarrival = units::Seconds(-1.0); }},
      {"NaN gap",
       [&](auto* p) { p->mean_interarrival = units::Seconds(nan); }},
      {"infinite gap",
       [&](auto* p) { p->mean_interarrival = units::Seconds(inf); }},
      {"probability above 1",
       [](auto* p) { p->deadline_probability = 1.5; }},
      {"negative probability",
       [](auto* p) { p->deadline_probability = -0.1; }},
      {"NaN probability", [&](auto* p) { p->deadline_probability = nan; }},
      {"inverted slack",
       [](auto* p) {
         p->min_slack = 5.0;
         p->max_slack = 1.0;
       }},
      {"NaN slack",
       [&](auto* p) {
         p->deadline_probability = 1.0;
         p->min_slack = nan;
         p->max_slack = nan;
       }},
      {"infinite slack", [&](auto* p) { p->max_slack = inf; }},
      {"negative slack",
       [](auto* p) {
         p->min_slack = -5.0;
         p->max_slack = -1.0;
       }},
  };
  const std::vector<std::pair<std::string, Mutation>> fleet_only = {
      {"no tenants", [](auto* p) { p->num_tenants = 0; }},
      {"negative skew", [](auto* p) { p->skew = -0.5; }},
      {"oversized window",
       [&](auto* p) {
         p->templates_per_tenant = static_cast<int>(refs.size()) + 1;
       }},
  };
  for (const scenario::Scenario* s : scenario::AllScenarios()) {
    SCOPED_TRACE(s->name());
    EXPECT_EQ(s->GenerateTrace({}, {}).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(s->GenerateFleetTrace({}, {}).status().code(),
              StatusCode::kInvalidArgument);
    for (const auto& [label, mutate] : both_modes) {
      SCOPED_TRACE(label);
      scenario::ScenarioParams params;
      mutate(&params);
      EXPECT_EQ(s->GenerateTrace(refs, params).status().code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(s->GenerateFleetTrace(refs, params).status().code(),
                StatusCode::kInvalidArgument);
    }
    for (const auto& [label, mutate] : fleet_only) {
      SCOPED_TRACE(label);
      scenario::ScenarioParams params;
      mutate(&params);
      EXPECT_EQ(s->GenerateFleetTrace(refs, params).status().code(),
                StatusCode::kInvalidArgument);
    }
  }
}

}  // namespace
}  // namespace contender
