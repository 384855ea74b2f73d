// Concurrent producers into one ObservationLog: records ingested from
// several threads at once are all buffered, counted and drained exactly
// once (run under TSan via the `tsan` label).

#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

#include "serve/observation_log.h"
#include "serve/service.h"
#include "test_support.h"

namespace contender::serve {
namespace {

using contender::testing::SharedPredictor;
using contender::testing::SharedTrainingData;

PredictionService& SharedService() {
  static PredictionService* service = new PredictionService(
      ModelSnapshot::Create(SharedPredictor(), 1));
  return *service;
}

// A pool of valid observations to ingest (latencies perturbed so
// residuals are non-trivial and distinct).
std::vector<MixObservation> ObservationPool(size_t count) {
  const auto& base = SharedTrainingData().observations;
  std::vector<MixObservation> pool;
  pool.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    MixObservation obs = base[i % base.size()];
    obs.latency = obs.latency * (1.0 + 0.01 * static_cast<double>(i % 37));
    pool.push_back(std::move(obs));
  }
  return pool;
}

TEST(ObservationShardTest, ConcurrentIngestConservesEveryRecord) {
  ObservationLog log(&SharedService());
  constexpr int kThreads = 4;
  constexpr size_t kPerThread = 200;
  const auto pool = ObservationPool(kPerThread);

  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&pool, &log] {
      for (const MixObservation& obs : pool) {
        ASSERT_TRUE(log.Ingest(obs).ok());
      }
    });
  }
  for (std::thread& t : producers) t.join();

  EXPECT_EQ(log.ingested(), kThreads * kPerThread);
  EXPECT_EQ(log.pending(), kThreads * kPerThread);
  const ObservationBatch batch = log.Drain();
  EXPECT_EQ(batch.observations.size(), kThreads * kPerThread);
  EXPECT_EQ(log.pending(), 0u);
  EXPECT_GT(batch.mean_abs_residual, 0.0);
}

}  // namespace
}  // namespace contender::serve
