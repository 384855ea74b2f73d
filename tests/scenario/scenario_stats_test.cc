// Statistical sanity for each scenario's shape: the knobs do what their
// names claim. Every check runs on one fixed seed with wide tolerances —
// these are seeded draws, so the assertions are exact-repeatable, not
// flaky; the tolerances only have to absorb ordinary sampling noise at
// n ≈ a few thousand.

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/interarrival.h"
#include "scenario/scenario.h"
#include "scenario/scenarios.h"
#include "util/random.h"
#include "util/units.h"

namespace contender {
namespace {

constexpr int kTemplates = 20;

std::vector<units::Seconds> References() {
  std::vector<units::Seconds> refs;
  for (int i = 0; i < kTemplates; ++i) {
    refs.push_back(units::Seconds(25.0 + 5.0 * i));
  }
  return refs;
}

scenario::ScenarioParams LongStream(int n, double mean_gap) {
  scenario::ScenarioParams params;
  params.num_requests = n;
  params.mean_interarrival = units::Seconds(mean_gap);
  params.seed = 42;
  return params;
}

scenario::ScenarioTrace MustTrace(const scenario::Scenario& s,
                                  const scenario::ScenarioParams& params) {
  auto trace = s.GenerateTrace(References(), params);
  EXPECT_TRUE(trace.ok()) << trace.status();
  return std::move(*trace);
}

double EmpiricalMeanGap(const scenario::ScenarioTrace& trace) {
  const size_t n = trace.requests.size();
  if (n < 2) return 0.0;
  return (trace.requests.back().arrival_time.value() -
          trace.requests.front().arrival_time.value()) /
         static_cast<double>(n - 1);
}

TEST(ScenarioStatsTest, ExponentialGapMatchesConfiguredMean) {
  // The hoisted primitive itself: sample mean within 5% at n = 20000.
  Rng rng(42);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += scenario::ExponentialGap(&rng, units::Seconds(4.0)).value();
  }
  EXPECT_NEAR(sum / n, 4.0, 0.2);
}

TEST(ScenarioStatsTest, PoissonSteadyEmpiricalRateNearConfigured) {
  const scenario::PoissonSteady poisson;
  const scenario::ScenarioTrace trace =
      MustTrace(poisson, LongStream(4000, 2.0));
  EXPECT_NEAR(EmpiricalMeanGap(trace), 2.0, 0.2);  // within 10%
}

TEST(ScenarioStatsTest, DiurnalCycleLongRunRateNearConfigured) {
  // Thinning preserves the long-run average rate.
  const scenario::DiurnalCycle diurnal;
  const scenario::ScenarioTrace trace =
      MustTrace(diurnal, LongStream(4000, 2.0));
  EXPECT_NEAR(EmpiricalMeanGap(trace), 2.0, 0.3);  // within 15%
  EXPECT_GT(trace.stats.at("diurnal.candidates"), 4000.0);
}

TEST(ScenarioStatsTest, DiurnalCyclePeakPhaseOutweighsTrough) {
  const scenario::DiurnalCycle diurnal;
  const scenario::ScenarioTrace trace =
      MustTrace(diurnal, LongStream(4000, 2.0));
  const double period = 2.0 * scenario::DiurnalCycle::kPeriodGaps;
  int peak_half = 0;
  int trough_half = 0;
  for (const sched::Request& r : trace.requests) {
    const double phase =
        std::fmod(r.arrival_time.value(), period) / period;  // [0, 1)
    // sin is positive over the first half period, negative the second.
    if (phase < 0.5) {
      ++peak_half;
    } else {
      ++trough_half;
    }
  }
  // With kAmplitude 0.8 the expected ratio is (1 + 2A/π)/(1 - 2A/π) ≈ 3.1;
  // require at least 2x to leave room for sampling noise.
  EXPECT_GT(peak_half, 2 * trough_half);
}

TEST(ScenarioStatsTest, FlashCrowdSwitchesStatesAndBurstsAreDenser) {
  const scenario::FlashCrowd crowd;
  const scenario::ScenarioTrace trace =
      MustTrace(crowd, LongStream(4000, 2.0));
  // Long stream must cross states repeatedly and spend requests in both.
  EXPECT_GE(trace.stats.at("mmpp.switches"), 4.0);
  const double burst = trace.stats.at("mmpp.burst_requests");
  EXPECT_GT(burst, 0.0);
  EXPECT_LT(burst, 4000.0);
  // Burst state at 6x rate vs quiet at 0.6x: most requests land in
  // bursts even though bursts are short.
  EXPECT_GT(burst, 4000.0 * 0.5);
  // Burstiness shows up as over-dispersed gaps: the gap coefficient of
  // variation exceeds the exponential's 1.0.
  std::vector<double> gaps;
  for (size_t i = 1; i < trace.requests.size(); ++i) {
    gaps.push_back(trace.requests[i].arrival_time.value() -
                   trace.requests[i - 1].arrival_time.value());
  }
  double mean = 0.0;
  for (double g : gaps) mean += g;
  mean /= static_cast<double>(gaps.size());
  double var = 0.0;
  for (double g : gaps) var += (g - mean) * (g - mean);
  var /= static_cast<double>(gaps.size());
  EXPECT_GT(std::sqrt(var) / mean, 1.1);
}

TEST(ScenarioStatsTest, HeavyTailTenantsSkewsRatesAndTemplates) {
  const scenario::HeavyTailTenants heavy;
  scenario::ScenarioParams params = LongStream(3000, 1.0);
  params.num_tenants = 6;
  params.skew = 0.0;  // scenario floors this at its own heavy exponent
  auto trace = heavy.GenerateFleetTrace(References(), params);
  ASSERT_TRUE(trace.ok()) << trace.status();

  // Tenant 0 dominates even though params asked for uniform shares.
  ASSERT_EQ(trace->tenants.size(), 6u);
  EXPECT_GT(trace->tenants[0].num_requests,
            3 * trace->tenants[5].num_requests);
  EXPECT_GT(trace->tenants[0].rate_share, 0.4);

  // Zipf template mass: the head template absorbs far more than the
  // uniform share, and the tail (bottom half of the window) far less
  // than half.
  std::map<int, int> by_template;
  for (const sched::Request& r : trace->requests) {
    ++by_template[r.template_index];
  }
  const int head = by_template.count(0) ? by_template.at(0) : 0;
  EXPECT_GT(head, static_cast<int>(3000.0 / kTemplates * 2.5));
  int tail = 0;
  for (const auto& [tmpl, count] : by_template) {
    if (tmpl >= kTemplates / 2) tail += count;
  }
  EXPECT_LT(tail, 3000 / 4);
  EXPECT_GT(trace->stats.at("zipf.head_requests"), 0.0);
}

TEST(ScenarioStatsTest, AdHocNovelEmitsHeldOutTemplatesAtTheDialedRate) {
  const std::vector<int> novel = scenario::AdHocNovel::NovelTemplates(
      kTemplates);
  ASSERT_EQ(novel.size(), static_cast<size_t>(kTemplates / 5));
  EXPECT_EQ(novel.front(), kTemplates - kTemplates / 5);
  EXPECT_EQ(novel.back(), kTemplates - 1);

  const scenario::AdHocNovel adhoc;
  const scenario::ScenarioTrace trace =
      MustTrace(adhoc, LongStream(4000, 1.0));
  int novel_requests = 0;
  for (const sched::Request& r : trace.requests) {
    if (std::binary_search(novel.begin(), novel.end(), r.template_index)) {
      ++novel_requests;
    }
  }
  // The held-out slice appears — and only via injection, so its rate
  // tracks kNovelProbability (20% ± noise).
  EXPECT_GT(novel_requests, 0);
  EXPECT_NEAR(static_cast<double>(novel_requests) / 4000.0,
              scenario::AdHocNovel::kNovelProbability, 0.05);
  EXPECT_EQ(trace.stats.at("adhoc.novel_requests"),
            static_cast<double>(novel_requests));
}

TEST(ScenarioStatsTest, MixedRefreshStormsAreClusteredAndPeriodic) {
  const scenario::MixedRefresh mixed;
  const scenario::ScenarioTrace trace =
      MustTrace(mixed, LongStream(3000, 1.0));
  const std::vector<int> refresh =
      scenario::MixedRefresh::RefreshTemplates(kTemplates);

  constexpr int kStormSize = scenario::MixedRefresh::kStormSize;
  const double period = 1.0 * scenario::MixedRefresh::kPeriodGaps;
  int storm_requests = 0;
  for (const sched::Request& r : trace.requests) {
    const bool is_refresh = std::binary_search(refresh.begin(), refresh.end(),
                                               r.template_index);
    if (!is_refresh) continue;
    ++storm_requests;
    // Every refresh request sits within a storm window: at most
    // kStormSize millisecond offsets past a period multiple.
    const double offset = std::fmod(r.arrival_time.value(), period);
    EXPECT_LT(std::min(offset, period - offset),
              kStormSize * 1e-3 + 1e-9)
        << "refresh request at t=" << r.arrival_time.value();
  }
  EXPECT_GT(storm_requests, 0);
  EXPECT_EQ(trace.stats.at("refresh.storm_requests"),
            static_cast<double>(storm_requests));
  // Storms recur: the stream spans many periods, each contributing a
  // full storm.
  const double span = trace.requests.back().arrival_time.value();
  const auto full_storms = static_cast<int>(span / period);
  EXPECT_GE(full_storms, 3);
  EXPECT_GE(storm_requests, full_storms * kStormSize / 2);
}

}  // namespace
}  // namespace contender
