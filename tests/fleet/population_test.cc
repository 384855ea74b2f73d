#include "fleet/population.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "scenario/scenario.h"
#include "test_support.h"
#include "util/logging.h"

namespace contender::fleet {
namespace {

using contender::testing::SharedPredictor;

std::vector<units::Seconds> ReferenceLatencies() {
  std::vector<units::Seconds> reference;
  for (const TemplateProfile& p : SharedPredictor().profiles()) {
    reference.push_back(p.isolated_latency);
  }
  return reference;
}

const scenario::Scenario& Poisson() {
  const scenario::Scenario* poisson =
      scenario::FindScenario(scenario::kPoissonSteadyName);
  CONTENDER_CHECK(poisson != nullptr);
  return *poisson;
}

StatusOr<Population> Generate(const std::vector<units::Seconds>& reference,
                              const PopulationOptions& options) {
  return GeneratePopulation(reference, options, Poisson());
}

// The tenant plan a population is drawn from. Population carries only the
// requests; the plan comes with the same params' fleet trace.
std::vector<scenario::TenantTraffic> Plan(
    const std::vector<units::Seconds>& reference,
    const PopulationOptions& options) {
  auto trace = Poisson().GenerateFleetTrace(reference, options);
  EXPECT_TRUE(trace.ok()) << trace.status();
  return trace.ok() ? trace->tenants : std::vector<scenario::TenantTraffic>{};
}

// Requests per tenant id, as the population actually emitted them.
std::vector<int> RequestsPerTenant(const Population& population,
                                   int num_tenants) {
  std::vector<int> counts(static_cast<size_t>(num_tenants), 0);
  for (const sched::Request& r : population.requests) {
    ++counts[static_cast<size_t>(r.tenant_id)];
  }
  return counts;
}

TEST(PopulationTest, IdsAreDenseAndArrivalsSorted) {
  const auto reference = ReferenceLatencies();
  PopulationOptions options;
  options.num_requests = 50;
  auto population = Generate(reference, options);
  ASSERT_TRUE(population.ok()) << population.status();
  ASSERT_EQ(population->requests.size(), 50u);
  units::Seconds last;
  for (size_t i = 0; i < population->requests.size(); ++i) {
    const sched::Request& r = population->requests[i];
    EXPECT_EQ(r.request_id, static_cast<int>(i));
    EXPECT_GE(r.arrival_time, last);
    EXPECT_GE(r.tenant_id, 0);
    EXPECT_LT(r.tenant_id, options.num_tenants);
    last = r.arrival_time;
  }
}

TEST(PopulationTest, ApportionmentIsExactAndSkewConcentrates) {
  const auto reference = ReferenceLatencies();
  PopulationOptions options;
  options.num_tenants = 5;
  options.num_requests = 97;  // not divisible: exercises the remainders
  options.skew = 0.0;
  auto uniform = Generate(reference, options);
  ASSERT_TRUE(uniform.ok()) << uniform.status();
  const auto uniform_plan = Plan(reference, options);
  ASSERT_EQ(uniform_plan.size(), 5u);
  const std::vector<int> uniform_counts = RequestsPerTenant(*uniform, 5);
  int total = 0;
  for (const scenario::TenantTraffic& t : uniform_plan) {
    total += t.num_requests;
    EXPECT_NEAR(t.rate_share, 0.2, 1e-12);
    EXPECT_GE(t.num_requests, 19);  // floor(97/5) = 19
    EXPECT_EQ(uniform_counts[static_cast<size_t>(t.tenant_id)],
              t.num_requests);
  }
  EXPECT_EQ(total, 97);

  options.skew = 2.0;
  auto skewed = Generate(reference, options);
  ASSERT_TRUE(skewed.ok()) << skewed.status();
  const auto skewed_plan = Plan(reference, options);
  ASSERT_EQ(skewed_plan.size(), 5u);
  const std::vector<int> skewed_counts = RequestsPerTenant(*skewed, 5);
  total = 0;
  for (const scenario::TenantTraffic& t : skewed_plan) {
    total += t.num_requests;
    EXPECT_EQ(skewed_counts[static_cast<size_t>(t.tenant_id)],
              t.num_requests);
  }
  EXPECT_EQ(total, 97);
  EXPECT_GT(skewed_plan.front().num_requests, skewed_plan.back().num_requests);
  EXPECT_GT(skewed_plan.front().rate_share, skewed_plan.back().rate_share);
}

TEST(PopulationTest, TenantsDrawOnlyFromTheirTemplateBlock) {
  const auto reference = ReferenceLatencies();
  PopulationOptions options;
  options.num_tenants = 4;
  options.num_requests = 80;
  options.templates_per_tenant = 6;
  auto population = Generate(reference, options);
  ASSERT_TRUE(population.ok()) << population.status();
  const auto plan = Plan(reference, options);
  ASSERT_EQ(plan.size(), 4u);
  for (const scenario::TenantTraffic& t : plan) {
    EXPECT_EQ(t.templates.size(), 6u);
  }
  // Adjacent tenants overlap (rotating half-block windows).
  const auto& t0 = plan[0].templates;
  const auto& t1 = plan[1].templates;
  bool overlap = false;
  for (int x : t0) overlap |= std::count(t1.begin(), t1.end(), x) > 0;
  EXPECT_TRUE(overlap);
  EXPECT_NE(t0, t1);
  for (const sched::Request& r : population->requests) {
    const auto& allowed = plan[static_cast<size_t>(r.tenant_id)].templates;
    EXPECT_TRUE(std::count(allowed.begin(), allowed.end(),
                           r.template_index) > 0)
        << "tenant " << r.tenant_id << " drew template "
        << r.template_index;
  }
}

TEST(PopulationTest, DeadlinesSitInsideTheSlackBand) {
  const auto reference = ReferenceLatencies();
  PopulationOptions options;
  options.num_requests = 120;
  options.deadline_probability = 1.0;
  options.min_slack = 2.0;
  options.max_slack = 4.0;
  auto population = Generate(reference, options);
  ASSERT_TRUE(population.ok()) << population.status();
  for (const sched::Request& r : population->requests) {
    ASSERT_TRUE(r.deadline.has_value());
    const double ref =
        reference[static_cast<size_t>(r.template_index)].value();
    const double slack =
        (*r.deadline - r.arrival_time).value() / ref;
    EXPECT_GE(slack, 2.0 - 1e-9);
    EXPECT_LT(slack, 4.0);
  }
}

TEST(PopulationTest, RejectsInvalidOptions) {
  const auto reference = ReferenceLatencies();
  EXPECT_FALSE(Generate({}, PopulationOptions{}).ok());

  PopulationOptions bad;
  bad.num_tenants = 0;
  EXPECT_FALSE(Generate(reference, bad).ok());

  bad = PopulationOptions{};
  bad.num_requests = -1;
  EXPECT_FALSE(Generate(reference, bad).ok());

  bad = PopulationOptions{};
  bad.mean_interarrival = units::Seconds(0.0);
  EXPECT_FALSE(Generate(reference, bad).ok());

  bad = PopulationOptions{};
  bad.skew = -0.5;
  EXPECT_FALSE(Generate(reference, bad).ok());

  bad = PopulationOptions{};
  bad.deadline_probability = 1.5;
  EXPECT_FALSE(Generate(reference, bad).ok());

  bad = PopulationOptions{};
  bad.min_slack = 5.0;
  bad.max_slack = 2.0;
  EXPECT_FALSE(Generate(reference, bad).ok());

  bad = PopulationOptions{};
  bad.templates_per_tenant =
      static_cast<int>(reference.size()) + 1;
  EXPECT_FALSE(Generate(reference, bad).ok());
}

}  // namespace
}  // namespace contender::fleet
