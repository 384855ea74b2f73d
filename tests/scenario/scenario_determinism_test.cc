// Determinism discipline for every listed scenario: the same
// (scenario, params) always yields the same trace bit for bit — from any
// thread, at any pool width, and with the chaos harness fully armed
// (scenario generation owns no fail points, so injected faults elsewhere
// cannot perturb a trace). Different seeds must actually differ, or the
// seed isn't flowing.

#include <future>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/scenario.h"
#include "scenario/scenarios.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/units.h"

namespace contender {
namespace {

std::vector<units::Seconds> References(int n) {
  std::vector<units::Seconds> refs;
  for (int i = 0; i < n; ++i) {
    refs.push_back(units::Seconds(30.0 + 7.0 * i));
  }
  return refs;
}

scenario::ScenarioParams BaseParams(uint64_t seed) {
  scenario::ScenarioParams params;
  params.num_requests = 200;
  params.mean_interarrival = units::Seconds(3.0);
  params.deadline_probability = 0.5;
  params.num_tenants = 4;
  params.skew = 1.0;
  params.templates_per_tenant = 8;
  params.seed = seed;
  return params;
}

uint64_t Digest(const scenario::Scenario& s,
                const std::vector<units::Seconds>& refs,
                const scenario::ScenarioParams& params, bool fleet) {
  auto trace = fleet ? s.GenerateFleetTrace(refs, params)
                     : s.GenerateTrace(refs, params);
  CONTENDER_CHECK(trace.ok()) << trace.status();
  return scenario::TraceDigest(trace->requests);
}

TEST(ScenarioDeterminismTest, SameSeedSameTraceBothModes) {
  const std::vector<units::Seconds> refs = References(20);
  for (const scenario::Scenario* s : scenario::AllScenarios()) {
    SCOPED_TRACE(s->name());
    for (bool fleet : {false, true}) {
      const scenario::ScenarioParams params = BaseParams(42);
      EXPECT_EQ(Digest(*s, refs, params, fleet),
                Digest(*s, refs, params, fleet));
    }
  }
}

TEST(ScenarioDeterminismTest, DifferentSeedsDiverge) {
  const std::vector<units::Seconds> refs = References(20);
  for (const scenario::Scenario* s : scenario::AllScenarios()) {
    SCOPED_TRACE(s->name());
    EXPECT_NE(Digest(*s, refs, BaseParams(42), /*fleet=*/false),
              Digest(*s, refs, BaseParams(43), /*fleet=*/false));
    EXPECT_NE(Digest(*s, refs, BaseParams(42), /*fleet=*/true),
              Digest(*s, refs, BaseParams(43), /*fleet=*/true));
  }
}

TEST(ScenarioDeterminismTest, TracesSurviveChaosReplayBitExactly) {
  const std::vector<units::Seconds> refs = References(20);
  std::vector<uint64_t> quiet;
  for (const scenario::Scenario* s : scenario::AllScenarios()) {
    quiet.push_back(Digest(*s, refs, BaseParams(42), /*fleet=*/true));
  }

  // Arm every registered fail-point site hot; scenario generation must
  // not consult any of them.
  FailPointRegistry& registry = FailPointRegistry::Global();
  registry.SetRootSeed(1234);
  for (const std::string& site : registry.SiteNames()) {
    registry.ArmProbability(site, 0.5);
  }
  std::vector<uint64_t> armed;
  for (const scenario::Scenario* s : scenario::AllScenarios()) {
    armed.push_back(Digest(*s, refs, BaseParams(42), /*fleet=*/true));
  }
  registry.DisarmAll();
  EXPECT_EQ(quiet, armed);
}

TEST(ScenarioDeterminismTest, ThreadPoolGenerationIsBitIdentical) {
  const std::vector<units::Seconds> refs = References(20);
  const std::vector<const scenario::Scenario*> all =
      scenario::AllScenarios();
  std::vector<uint64_t> sequential;
  for (const scenario::Scenario* s : all) {
    sequential.push_back(Digest(*s, refs, BaseParams(42), /*fleet=*/true));
  }
  for (int num_threads : {1, 4}) {
    ThreadPool pool(num_threads);
    std::vector<std::future<uint64_t>> futures;
    futures.reserve(all.size() * 3);
    // Three concurrent generations per scenario: the trace is a pure
    // function of the params, so racing generations cannot see each
    // other.
    for (int repeat = 0; repeat < 3; ++repeat) {
      for (const scenario::Scenario* s : all) {
        futures.push_back(pool.Submit([s, &refs] {
          return Digest(*s, refs, BaseParams(42), /*fleet=*/true);
        }));
      }
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      EXPECT_EQ(futures[i].get(), sequential[i % all.size()])
          << all[i % all.size()]->name() << " at " << num_threads
          << " threads";
    }
  }
}

TEST(ScenarioDeterminismTest, DigestIsOrderAndValueSensitive) {
  const std::vector<units::Seconds> refs = References(6);
  const scenario::Scenario* poisson =
      scenario::FindScenario(scenario::kPoissonSteadyName);
  ASSERT_NE(poisson, nullptr);
  auto trace = poisson->GenerateTrace(refs, BaseParams(42));
  ASSERT_TRUE(trace.ok()) << trace.status();
  const uint64_t base = scenario::TraceDigest(trace->requests);

  auto mutated = trace->requests;
  mutated[0].template_index = (mutated[0].template_index + 1) % 6;
  EXPECT_NE(scenario::TraceDigest(mutated), base);

  auto swapped = trace->requests;
  std::swap(swapped[0], swapped[1]);
  EXPECT_NE(scenario::TraceDigest(swapped), base);

  EXPECT_NE(scenario::TraceDigest({}), base);
}

}  // namespace
}  // namespace contender
