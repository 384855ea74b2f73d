// Steady-state protocol tests (paper §2, Fig. 2).

#include "workload/steady_state.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "sim/engine.h"
#include "test_support.h"

namespace contender {
namespace {

using testing::DefaultConfig;
using testing::PaperWorkload;

TEST(SteadyStateTest, RejectsBadArguments) {
  const Workload& w = PaperWorkload();
  EXPECT_FALSE(RunSteadyState(w, {}, DefaultConfig(), 1).ok());
  EXPECT_FALSE(RunSteadyState(w, {0, 999}, DefaultConfig(), 1).ok());
}

TEST(SteadyStateTest, CollectsRequestedSamplesPerStream) {
  const Workload& w = PaperWorkload();
  auto result = RunSteadyState(w, {0, 1}, DefaultConfig(), 1);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->streams.size(), 2u);
  for (const StreamResult& s : result->streams) {
    EXPECT_EQ(s.latencies.size(),
              static_cast<size_t>(kSteadyStateSamplesPerStream));
    EXPECT_GT(s.mean_latency, 0.0);
    for (double l : s.latencies) EXPECT_GT(l, 0.0);
  }
  EXPECT_GT(result->duration, 0.0);
}

TEST(SteadyStateTest, StreamsKeepTheirTemplates) {
  const Workload& w = PaperWorkload();
  auto result = RunSteadyState(w, {3, 7, 3}, DefaultConfig(), 1);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->streams.size(), 3u);
  EXPECT_EQ(result->streams[0].template_index, 3);
  EXPECT_EQ(result->streams[1].template_index, 7);
  EXPECT_EQ(result->streams[2].template_index, 3);
}

TEST(SteadyStateTest, DeterministicForFixedSeed) {
  const Workload& w = PaperWorkload();
  auto a = RunSteadyState(w, {0, 5}, DefaultConfig(), 77);
  auto b = RunSteadyState(w, {0, 5}, DefaultConfig(), 77);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t s = 0; s < a->streams.size(); ++s) {
    EXPECT_EQ(a->streams[s].latencies, b->streams[s].latencies);
  }
}

TEST(SteadyStateTest, ConcurrencySlowsQueriesVsIsolation) {
  const Workload& w = PaperWorkload();
  // q26 (I/O-bound, catalog_sales) against q27 (store_sales): disjoint
  // fact scans, so both must slow down vs isolation.
  const int q26 = w.IndexOfId(26);
  const int q27 = w.IndexOfId(27);

  sim::Engine solo(DefaultConfig(), 5);
  const int pid = solo.AddProcess(w.InstantiateNominal(q26), units::Seconds(0.0));
  ASSERT_TRUE(solo.Run().ok());
  const double isolated = solo.result(pid).latency().value();

  auto mix = RunSteadyState(w, {q26, q27}, DefaultConfig(), 1);
  ASSERT_TRUE(mix.ok());
  EXPECT_GT(mix->streams[0].mean_latency, 1.2 * isolated);
}

TEST(SteadyStateTest, SharedScansYieldPositiveInteraction) {
  const Workload& w = PaperWorkload();
  // q26 and q20 both scan only catalog_sales; the synchronized scan means
  // running them together costs far less than a disjoint partner does.
  const int q26 = w.IndexOfId(26);
  const int q20 = w.IndexOfId(20);
  const int q27 = w.IndexOfId(27);  // disjoint (store_sales)
  auto shared = RunSteadyState(w, {q26, q20}, DefaultConfig(), 1);
  auto disjoint = RunSteadyState(w, {q26, q27}, DefaultConfig(), 1);
  ASSERT_TRUE(shared.ok());
  ASSERT_TRUE(disjoint.ok());
  EXPECT_LT(shared->streams[0].mean_latency,
            0.85 * disjoint->streams[0].mean_latency);
}

TEST(SteadyStateTest, WarmupSamplesAreDropped) {
  const Workload& w = PaperWorkload();
  // A lone stream runs its instances back to back from t = 0, so the run
  // lasts exactly as long as its warmup and counted instances together.
  // What the counted latencies leave of the duration is therefore the one
  // warmup instance: about as long as a counted one, neither zero (no
  // warmup ran) nor two instances' worth.
  static_assert(kSteadyStateWarmupPerStream == 1);
  auto result = RunSteadyState(w, {0}, DefaultConfig(), 1);
  ASSERT_TRUE(result.ok());
  const std::vector<double>& counted = result->streams[0].latencies;
  ASSERT_EQ(counted.size(), static_cast<size_t>(kSteadyStateSamplesPerStream));
  double counted_sum = 0.0;
  for (double l : counted) counted_sum += l;
  const double warmup = result->duration - counted_sum;
  const auto [shortest, longest] =
      std::minmax_element(counted.begin(), counted.end());
  EXPECT_GT(warmup, 0.5 * *shortest);
  EXPECT_LT(warmup, 1.5 * *longest);
}

}  // namespace
}  // namespace contender
