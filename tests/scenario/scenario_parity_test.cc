// Property test for the scenario driver's central promise: the
// PoissonSteady scenario draws, in both modes, exactly the streams of the
// pre-scenario samplers — same seed, same (arrival, id, template, tenant,
// deadline) tuples, bit for bit. Those samplers are reimplemented here,
// verbatim, as the reference; any drift in the scenario driver's draw
// order, seed derivation, tenant planning, or merge shows up as a tuple
// mismatch.

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/population.h"
#include "scenario/scenario.h"
#include "sched/request.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/units.h"

namespace contender {
namespace {

std::vector<units::Seconds> References(int n) {
  std::vector<units::Seconds> refs;
  for (int i = 0; i < n; ++i) {
    refs.push_back(units::Seconds(40.0 + 13.0 * i));
  }
  return refs;
}

// Verbatim reimplementation of the pre-scenario single-node sampling loop
// (validation elided: parity cases are all valid).
std::vector<sched::Request> LegacyArrivals(
    const std::vector<units::Seconds>& reference_latencies,
    const scenario::ScenarioParams& options) {
  Rng rng(options.seed);
  std::vector<sched::Request> requests;
  units::Seconds clock;
  for (int i = 0; i < options.num_requests; ++i) {
    sched::Request r;
    r.request_id = i;
    r.template_index = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(reference_latencies.size())));
    if (i > 0) {
      const double u = rng.Uniform01();
      clock += options.mean_interarrival * (-std::log1p(-u));
    }
    r.arrival_time = clock;
    if (options.deadline_probability > 0.0 &&
        rng.Uniform01() < options.deadline_probability) {
      const double slack = rng.Uniform(options.min_slack, options.max_slack);
      r.deadline =
          r.arrival_time +
          reference_latencies[static_cast<size_t>(r.template_index)] * slack;
    }
    requests.push_back(r);
  }
  return requests;
}

struct LegacyDraw {
  sched::Request request;
  int tenant_seq = 0;
};

// Verbatim reimplementation of the pre-scenario fleet population planner
// + sampler + merge.
scenario::ScenarioTrace LegacyPopulation(
    const std::vector<units::Seconds>& reference_latencies,
    const scenario::ScenarioParams& options) {
  const int num_templates = static_cast<int>(reference_latencies.size());
  scenario::ScenarioTrace population;
  population.tenants.resize(static_cast<size_t>(options.num_tenants));

  double weight_sum = 0.0;
  for (int i = 0; i < options.num_tenants; ++i) {
    weight_sum += std::pow(static_cast<double>(i + 1), -options.skew);
  }
  std::vector<double> exact(static_cast<size_t>(options.num_tenants));
  std::vector<int> counts(static_cast<size_t>(options.num_tenants));
  int assigned = 0;
  for (int i = 0; i < options.num_tenants; ++i) {
    const double share =
        std::pow(static_cast<double>(i + 1), -options.skew) / weight_sum;
    exact[static_cast<size_t>(i)] = share * options.num_requests;
    counts[static_cast<size_t>(i)] =
        static_cast<int>(std::floor(exact[static_cast<size_t>(i)]));
    assigned += counts[static_cast<size_t>(i)];
    population.tenants[static_cast<size_t>(i)].tenant_id = i;
    population.tenants[static_cast<size_t>(i)].rate_share = share;
  }
  std::vector<int> order(static_cast<size_t>(options.num_tenants));
  for (int i = 0; i < options.num_tenants; ++i) {
    order[static_cast<size_t>(i)] = i;
  }
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    const double fa = exact[static_cast<size_t>(a)] -
                      std::floor(exact[static_cast<size_t>(a)]);
    const double fb = exact[static_cast<size_t>(b)] -
                      std::floor(exact[static_cast<size_t>(b)]);
    return fa > fb;
  });
  for (int r = 0; r < options.num_requests - assigned; ++r) {
    ++counts[static_cast<size_t>(
        order[static_cast<size_t>(r % options.num_tenants)])];
  }

  const int block = options.templates_per_tenant == 0
                        ? num_templates
                        : options.templates_per_tenant;
  for (int i = 0; i < options.num_tenants; ++i) {
    scenario::TenantTraffic& spec =
        population.tenants[static_cast<size_t>(i)];
    spec.num_requests = counts[static_cast<size_t>(i)];
    const int start = options.templates_per_tenant == 0
                          ? 0
                          : (i * std::max(1, block / 2)) % num_templates;
    for (int k = 0; k < block; ++k) {
      spec.templates.push_back((start + k) % num_templates);
    }
    std::sort(spec.templates.begin(), spec.templates.end());
    spec.templates.erase(
        std::unique(spec.templates.begin(), spec.templates.end()),
        spec.templates.end());
  }

  Rng root(options.seed);
  std::vector<uint64_t> tenant_seeds;
  for (int i = 0; i < options.num_tenants; ++i) {
    tenant_seeds.push_back(root.Next());
  }

  std::vector<LegacyDraw> draws;
  for (int i = 0; i < options.num_tenants; ++i) {
    const scenario::TenantTraffic& spec =
        population.tenants[static_cast<size_t>(i)];
    if (spec.num_requests == 0) continue;
    Rng rng(tenant_seeds[static_cast<size_t>(i)]);
    const units::Seconds tenant_gap =
        options.mean_interarrival * (1.0 / spec.rate_share);
    units::Seconds clock;
    for (int k = 0; k < spec.num_requests; ++k) {
      LegacyDraw d;
      d.tenant_seq = k;
      d.request.tenant_id = i;
      d.request.template_index = spec.templates[static_cast<size_t>(
          rng.UniformInt(static_cast<uint64_t>(spec.templates.size())))];
      clock += tenant_gap * (-std::log1p(-rng.Uniform01()));
      d.request.arrival_time = clock;
      if (options.deadline_probability > 0.0 &&
          rng.Uniform01() < options.deadline_probability) {
        const double slack =
            rng.Uniform(options.min_slack, options.max_slack);
        d.request.deadline =
            d.request.arrival_time +
            reference_latencies[static_cast<size_t>(
                d.request.template_index)] *
                slack;
      }
      draws.push_back(d);
    }
  }
  std::stable_sort(draws.begin(), draws.end(),
                   [](const LegacyDraw& a, const LegacyDraw& b) {
                     if (a.request.arrival_time != b.request.arrival_time) {
                       return a.request.arrival_time < b.request.arrival_time;
                     }
                     if (a.request.tenant_id != b.request.tenant_id) {
                       return a.request.tenant_id < b.request.tenant_id;
                     }
                     return a.tenant_seq < b.tenant_seq;
                   });
  for (size_t id = 0; id < draws.size(); ++id) {
    draws[id].request.request_id = static_cast<int>(id);
    population.requests.push_back(draws[id].request);
  }
  return population;
}

void ExpectIdentical(const std::vector<sched::Request>& got,
                     const std::vector<sched::Request>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    EXPECT_EQ(got[i].request_id, want[i].request_id);
    EXPECT_EQ(got[i].template_index, want[i].template_index);
    EXPECT_EQ(got[i].tenant_id, want[i].tenant_id);
    // Bit-exact, not approximately equal: the whole point.
    EXPECT_EQ(got[i].arrival_time.value(), want[i].arrival_time.value());
    ASSERT_EQ(got[i].deadline.has_value(), want[i].deadline.has_value());
    if (got[i].deadline.has_value()) {
      EXPECT_EQ(got[i].deadline->value(), want[i].deadline->value());
    }
  }
}

const scenario::Scenario& Poisson() {
  const scenario::Scenario* poisson =
      scenario::FindScenario(scenario::kPoissonSteadyName);
  CONTENDER_CHECK(poisson != nullptr);
  return *poisson;
}

TEST(ScenarioParityTest, SingleNodeTraceMatchesLegacyStream) {
  const std::vector<units::Seconds> refs = References(25);
  for (uint64_t seed : {1ULL, 42ULL, 1234ULL, 99991ULL}) {
    for (double deadline_probability : {0.0, 0.6, 1.0}) {
      for (int num_requests : {0, 1, 7, 64}) {
        scenario::ScenarioParams params;
        params.seed = seed;
        params.deadline_probability = deadline_probability;
        params.num_requests = num_requests;
        params.mean_interarrival = units::Seconds(17.0);
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " p=" + std::to_string(deadline_probability) +
                     " n=" + std::to_string(num_requests));
        auto got = Poisson().GenerateTrace(refs, params);
        ASSERT_TRUE(got.ok()) << got.status();
        ExpectIdentical(got->requests, LegacyArrivals(refs, params));
      }
    }
  }
}

TEST(ScenarioParityTest, FirstArrivalStaysAtTimeZero) {
  auto got = Poisson().GenerateTrace(References(5), {});
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_FALSE(got->requests.empty());
  EXPECT_EQ(got->requests.front().arrival_time.value(), 0.0);
}

TEST(ScenarioParityTest, GeneratePopulationMatchesLegacyStream) {
  const std::vector<units::Seconds> refs = References(25);
  for (uint64_t seed : {7ULL, 42ULL, 5555ULL}) {
    for (double skew : {0.0, 1.0, 2.5}) {
      for (int templates_per_tenant : {0, 3, 10}) {
        for (int num_tenants : {1, 4, 9}) {
          scenario::ScenarioParams params;
          params.seed = seed;
          params.skew = skew;
          params.templates_per_tenant = templates_per_tenant;
          params.num_tenants = num_tenants;
          params.num_requests = 96;
          params.mean_interarrival = units::Seconds(5.0);
          params.deadline_probability = 0.5;
          SCOPED_TRACE("seed=" + std::to_string(seed) +
                       " skew=" + std::to_string(skew) +
                       " tpt=" + std::to_string(templates_per_tenant) +
                       " tenants=" + std::to_string(num_tenants));
          const scenario::ScenarioTrace want = LegacyPopulation(refs, params);
          auto got = fleet::GeneratePopulation(refs, params, Poisson());
          ASSERT_TRUE(got.ok()) << got.status();
          ExpectIdentical(got->requests, want.requests);
          auto plan = Poisson().GenerateFleetTrace(refs, params);
          ASSERT_TRUE(plan.ok()) << plan.status();
          ASSERT_EQ(plan->tenants.size(), want.tenants.size());
          for (size_t i = 0; i < want.tenants.size(); ++i) {
            EXPECT_EQ(plan->tenants[i].tenant_id, want.tenants[i].tenant_id);
            EXPECT_EQ(plan->tenants[i].rate_share,
                      want.tenants[i].rate_share);
            EXPECT_EQ(plan->tenants[i].num_requests,
                      want.tenants[i].num_requests);
            EXPECT_EQ(plan->tenants[i].templates, want.tenants[i].templates);
          }
        }
      }
    }
  }
}

// The pre-scenario entry points' rejections, still rejected by the
// single-node trace and by the fleet population.
TEST(ScenarioParityTest, ValidationFailuresSurviveTheRefactor) {
  const std::vector<units::Seconds> refs = References(4);
  {
    scenario::ScenarioParams params;
    EXPECT_FALSE(Poisson().GenerateTrace({}, params).ok());
    params.num_requests = -1;
    EXPECT_FALSE(Poisson().GenerateTrace(refs, params).ok());
    params = scenario::ScenarioParams{};
    params.mean_interarrival = units::Seconds(0.0);
    EXPECT_FALSE(Poisson().GenerateTrace(refs, params).ok());
    params = scenario::ScenarioParams{};
    params.deadline_probability = 1.5;
    EXPECT_FALSE(Poisson().GenerateTrace(refs, params).ok());
    params = scenario::ScenarioParams{};
    params.min_slack = 5.0;
    params.max_slack = 1.0;
    EXPECT_FALSE(Poisson().GenerateTrace(refs, params).ok());
  }
  {
    scenario::ScenarioParams params;
    params.num_tenants = 0;
    EXPECT_FALSE(fleet::GeneratePopulation(refs, params, Poisson()).ok());
    params = scenario::ScenarioParams{};
    params.skew = -0.5;
    EXPECT_FALSE(fleet::GeneratePopulation(refs, params, Poisson()).ok());
    params = scenario::ScenarioParams{};
    params.templates_per_tenant = static_cast<int>(refs.size()) + 1;
    EXPECT_FALSE(fleet::GeneratePopulation(refs, params, Poisson()).ok());
  }
}

}  // namespace
}  // namespace contender
