#include "serve/model_snapshot.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sched/mix_oracle.h"
#include "test_support.h"

namespace contender::serve {
namespace {

using contender::testing::SharedPredictor;

std::shared_ptr<const ModelSnapshot> MakeSnapshot(uint64_t version = 1) {
  return ModelSnapshot::Create(SharedPredictor(), version);
}

TEST(ModelSnapshotTest, CarriesVersionAndWorkload) {
  const auto snapshot = MakeSnapshot(7);
  EXPECT_EQ(snapshot->version(), 7u);
  EXPECT_EQ(snapshot->num_templates(),
            static_cast<int>(SharedPredictor().profiles().size()));
}

TEST(ModelSnapshotTest, EmptyMixYieldsIsolatedLatency) {
  const auto snapshot = MakeSnapshot();
  for (int t = 0; t < snapshot->num_templates(); ++t) {
    EXPECT_EQ(snapshot->PredictInMix(t, {}),
              SharedPredictor()
                  .profiles()[static_cast<size_t>(t)]
                  .isolated_latency);
  }
}

TEST(ModelSnapshotTest, LockFreePathMatchesOracleBitExactly) {
  const auto snapshot = MakeSnapshot();
  const sched::MixOracle oracle(&snapshot->predictor());
  const int n = snapshot->num_templates();
  for (int t = 0; t < n; t += 3) {
    for (const std::vector<int>& mix :
         {std::vector<int>{(t + 1) % n},
          std::vector<int>{(t + 2) % n, (t + 5) % n},
          std::vector<int>{(t + 1) % n, (t + 3) % n, (t + 7) % n}}) {
      const units::Seconds direct = snapshot->PredictInMix(t, mix);
      EXPECT_EQ(direct, oracle.PredictInMix(t, mix)) << "template " << t;
      EXPECT_EQ(direct, sched::PredictInMixUncached(snapshot->predictor(),
                                                    t, mix));
    }
  }
  EXPECT_GT(oracle.evaluations(), 0u);
}

TEST(ModelSnapshotTest, PredictionIsOrderInsensitive) {
  const auto snapshot = MakeSnapshot();
  EXPECT_EQ(snapshot->PredictInMix(0, {1, 2, 3}),
            snapshot->PredictInMix(0, {3, 1, 2}));
}

TEST(ModelSnapshotTest, UncoveredMplFallsBackToIsolatedLatency) {
  const auto snapshot = MakeSnapshot();
  // MPL 10 has no reference or transfer models; the answer degrades to
  // l_min.
  const std::vector<int> huge_mix = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(snapshot->PredictInMix(0, huge_mix),
            SharedPredictor().profiles()[0].isolated_latency);
  EXPECT_EQ(snapshot->predictor().PredictInMix(0, huge_mix).tier,
            DegradationTier::kIsolatedHeuristic);
}

}  // namespace
}  // namespace contender::serve
