#include "workload/sampler.h"

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_support.h"

namespace contender {
namespace {

using testing::DefaultConfig;
using testing::PaperWorkload;
using testing::SharedTrainingData;

WorkloadSampler MakeSampler() {
  WorkloadSampler::Options opts;
  return WorkloadSampler(&PaperWorkload(), DefaultConfig(), opts);
}

TEST(SamplerTest, ProfileHasAllFields) {
  WorkloadSampler sampler = MakeSampler();
  auto p = sampler.ProfileTemplate(0);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->template_index, 0);
  EXPECT_EQ(p->template_id, PaperWorkload().tmpl(0).id);
  EXPECT_GT(p->isolated_latency.value(), 0.0);
  EXPECT_GT(p->io_fraction.value(), 0.0);
  EXPECT_LE(p->io_fraction.value(), 1.0);
  EXPECT_GT(p->plan_steps, 0);
  EXPECT_GT(p->records_accessed, 0.0);
  // Spoiler latencies come from CollectAll only.
  EXPECT_TRUE(p->spoiler_latency.empty());
}

TEST(SamplerTest, ProfileRejectsBadIndex) {
  WorkloadSampler sampler = MakeSampler();
  EXPECT_FALSE(sampler.ProfileTemplate(-1).ok());
  EXPECT_FALSE(sampler.ProfileTemplate(1000).ok());
}

TEST(SamplerTest, ScanTimeMatchesBytesOverBandwidth) {
  const TableDef& ss = PaperWorkload().catalog().Get("store_sales");
  const units::Seconds s_f = SharedTrainingData().scan_times.at(ss.id);
  const double expected = ss.bytes / DefaultConfig().seq_bandwidth;
  EXPECT_NEAR(s_f.value(), expected, 0.05 * expected + 1.0);
}

TEST(SamplerTest, SpoilerLatencyRequiresMplAtLeastTwo) {
  WorkloadSampler::Options opts;
  opts.mpls = {1};
  WorkloadSampler sampler(&PaperWorkload(), DefaultConfig(), opts);
  EXPECT_EQ(sampler.CollectAll().status().code(),
            StatusCode::kInvalidArgument);
}

// Without an LHS round no MPL 3-5 mix is sampled, and every per-MPL error
// above 2 would read 0 over no observations.
TEST(SamplerTest, LhsRunsMustBePositiveAboveMplTwo) {
  for (int lhs_runs : {0, -1}) {
    WorkloadSampler::Options opts;
    opts.lhs_runs = lhs_runs;
    WorkloadSampler sampler(&PaperWorkload(), DefaultConfig(), opts);
    const Status status = sampler.CollectAll().status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("lhs_runs"), std::string::npos)
        << status;
  }
  // MPL 2 alone samples all pairs and needs no LHS round.
  WorkloadSampler::Options opts;
  opts.mpls = {2};
  opts.lhs_runs = 0;
  WorkloadSampler sampler(&PaperWorkload(), DefaultConfig(), opts);
  EXPECT_TRUE(sampler.CollectAll().ok());
}

// perfbench reports RunCache::misses() as workload.sim_runs: one count per
// engine run CollectAll executes.
TEST(SamplerTest, RunCounterCountsEveryEngineRun) {
  sim::RunCache counter;
  WorkloadSampler::Options opts;
  opts.cache = &counter;
  WorkloadSampler sampler(&PaperWorkload(), DefaultConfig(), opts);
  ASSERT_TRUE(sampler.CollectAll().ok());
  // Per template one isolated run and one spoiler run per MPL, one scan per
  // fact table, then 325 pairs and 100 LHS mixes at each of MPL 3, 4, 5.
  const uint64_t expected = 25u * (1u + 4u) + 7u + 325u + 3u * 100u;
  EXPECT_EQ(expected, 757u);
  EXPECT_EQ(counter.misses(), expected);
}

// Observations arrive mix by mix, one per stream: stream s of a mix is
// primary with every other member as a co-runner, in mix order.
TEST(SamplerTest, EachMixYieldsOneObservationPerStream) {
  const std::vector<MixObservation>& all = SharedTrainingData().observations;
  size_t first = 0;
  while (first < all.size()) {
    const size_t mpl = static_cast<size_t>(all[first].mpl);
    ASSERT_LE(first + mpl, all.size());
    std::vector<int> mix;
    for (size_t s = 0; s < mpl; ++s) {
      mix.push_back(all[first + s].primary_index);
    }
    for (size_t s = 0; s < mpl; ++s) {
      const MixObservation& o = all[first + s];
      std::vector<int> others = mix;
      others.erase(others.begin() + static_cast<std::ptrdiff_t>(s));
      EXPECT_EQ(static_cast<size_t>(o.mpl), mpl);
      EXPECT_EQ(o.concurrent_indices, others);
      EXPECT_GT(o.latency.value(), 0.0);
    }
    first += mpl;
  }
}

TEST(SamplerTest, MixesForMplTwoIsAllPairs) {
  WorkloadSampler sampler = MakeSampler();
  auto mixes = sampler.MixesForMpl(2);
  ASSERT_TRUE(mixes.ok());
  EXPECT_EQ(mixes->size(), 325u);  // C(26, 2) over 25 templates
}

TEST(SamplerTest, MixesForHigherMplUseLhsRuns) {
  WorkloadSampler sampler = MakeSampler();
  auto mixes = sampler.MixesForMpl(4);
  ASSERT_TRUE(mixes.ok());
  // 4 LHS runs x 25 templates.
  EXPECT_EQ(mixes->size(), 100u);
  for (const auto& mix : *mixes) EXPECT_EQ(mix.size(), 4u);
}

TEST(SamplerTest, CollectAllCoversEveryTemplateAndMpl) {
  const TrainingData& data = SharedTrainingData();
  EXPECT_EQ(data.profiles.size(), 25u);
  EXPECT_EQ(data.scan_times.size(), 7u);  // all fact tables
  EXPECT_GT(data.sampling_seconds.value(), 0.0);
  // Every profile carries a spoiler latency at each sampled MPL, above its
  // isolated latency and growing with the MPL.
  for (const TemplateProfile& p : data.profiles) {
    ASSERT_EQ(p.spoiler_latency.size(), 4u);
    EXPECT_GT(p.spoiler_latency.at(2), p.isolated_latency);
    EXPECT_GT(p.spoiler_latency.at(3), p.spoiler_latency.at(2));
  }
  // 325 pair mixes x 2 + 3 MPLs x 100 LHS mixes x MPL observations.
  EXPECT_EQ(data.observations.size(),
            325u * 2u + 100u * 3u + 100u * 4u + 100u * 5u);
  std::set<int> mpls;
  for (const MixObservation& o : data.observations) mpls.insert(o.mpl);
  EXPECT_EQ(mpls, (std::set<int>{2, 3, 4, 5}));
  // Every template appears as a primary at MPL 2.
  std::set<int> primaries;
  for (const MixObservation& o : data.observations) {
    if (o.mpl == 2) primaries.insert(o.primary_index);
  }
  EXPECT_EQ(primaries.size(), 25u);
}

TEST(SamplerTest, SpoilerLatencyDominatesMixLatencies) {
  // The spoiler is a worst case: only a small fraction of steady-state
  // observations may exceed 105% of it (paper §6.1 reports ~4%).
  const TrainingData& data = SharedTrainingData();
  int over = 0, total = 0;
  for (const MixObservation& o : data.observations) {
    const TemplateProfile& p =
        data.profiles[static_cast<size_t>(o.primary_index)];
    auto it = p.spoiler_latency.find(o.mpl);
    if (it == p.spoiler_latency.end()) continue;
    ++total;
    if (o.latency > 1.05 * it->second) ++over;
  }
  ASSERT_GT(total, 0);
  EXPECT_LT(static_cast<double>(over) / total, 0.08);
}

}  // namespace
}  // namespace contender
