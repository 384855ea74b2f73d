#include "serve/service.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "test_support.h"
#include "util/random.h"

namespace contender::serve {
namespace {

using contender::testing::SharedPredictor;

std::shared_ptr<const ModelSnapshot> MakeSnapshot(uint64_t version = 1) {
  return ModelSnapshot::Create(SharedPredictor(), version);
}

// Deterministic request stream over the shared workload: mixes of size
// 0..3 (MPL 1..4) with seeded template draws.
std::vector<PredictRequest> MakeRequests(size_t count, uint64_t seed,
                                         int num_templates) {
  Rng rng(seed);
  std::vector<PredictRequest> requests;
  requests.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    PredictRequest r;
    r.template_index =
        static_cast<int>(rng.UniformInt(static_cast<size_t>(num_templates)));
    const size_t mix_size = rng.UniformInt(4);
    for (size_t j = 0; j < mix_size; ++j) {
      r.concurrent.push_back(static_cast<int>(
          rng.UniformInt(static_cast<size_t>(num_templates))));
    }
    requests.push_back(std::move(r));
  }
  return requests;
}

TEST(PredictionServiceTest, PredictMatchesSnapshotBitExactly) {
  PredictionService service(MakeSnapshot());
  const auto snapshot = service.snapshot();
  for (const PredictRequest& r :
       MakeRequests(50, 7, snapshot->num_templates())) {
    auto got = service.Predict(r.template_index, r.concurrent);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, snapshot->PredictInMix(r.template_index, r.concurrent));
  }
  EXPECT_EQ(service.served(), 50u);
}

TEST(PredictionServiceTest, RejectsOutOfRangeIndices) {
  PredictionService service(MakeSnapshot());
  const int n = service.snapshot()->num_templates();
  const std::vector<std::pair<int, std::vector<int>>> malformed = {
      {-1, {}}, {n, {}}, {0, {n}}, {0, {1, -2}}};
  for (const auto& [t, mix] : malformed) {
    auto got = service.Predict(t, mix);
    EXPECT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(PredictionServiceTest, BatchIsBitIdenticalAcrossPoolWidths) {
  const auto snapshot = MakeSnapshot();
  const auto requests = MakeRequests(120, 11, snapshot->num_templates());

  PredictionService::Options wide;
  wide.num_threads = 4;
  PredictionService pooled(snapshot, wide);

  PredictionService::Options narrow;
  narrow.num_threads = 1;  // forces the inline path
  PredictionService inline_service(snapshot, narrow);

  const auto a = pooled.PredictBatch(requests);
  const auto b = inline_service.PredictBatch(requests);
  ASSERT_EQ(a.size(), requests.size());
  ASSERT_EQ(b.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(a[i].status.ok()) << a[i].status;
    EXPECT_EQ(a[i].latency, b[i].latency) << "request " << i;
    EXPECT_EQ(a[i].latency,
              snapshot->PredictInMix(requests[i].template_index,
                                     requests[i].concurrent));
    EXPECT_EQ(a[i].snapshot_version, snapshot->version());
  }
  EXPECT_EQ(pooled.served(), requests.size());
}

TEST(PredictionServiceTest, BatchFlagsMalformedEntriesPositionally) {
  PredictionService service(MakeSnapshot());
  std::vector<PredictRequest> batch(3);
  batch[0].template_index = 0;
  batch[1].template_index = -5;  // malformed
  batch[2].template_index = 1;
  batch[2].concurrent = {0};
  const auto results = service.PredictBatch(batch);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_EQ(results[1].status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(results[2].status.ok());
  EXPECT_TRUE(service.PredictBatch({}).empty());
}

TEST(PredictionServiceTest, PublishHotSwapsWithoutInvalidatingReaders) {
  PredictionService service(MakeSnapshot(1));
  const auto old_snapshot = service.snapshot();
  const units::Seconds before = old_snapshot->PredictInMix(2, {3, 4});

  service.Publish(MakeSnapshot(9));
  EXPECT_EQ(service.snapshot()->version(), 9u);
  EXPECT_EQ(service.publishes(), 1u);

  // The retained handle still answers, bit-identically to before the swap.
  EXPECT_EQ(old_snapshot->version(), 1u);
  EXPECT_EQ(old_snapshot->PredictInMix(2, {3, 4}), before);

  auto after = service.Predict(2, {3, 4});
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(*after, before);  // same models, new version
}

}  // namespace
}  // namespace contender::serve
