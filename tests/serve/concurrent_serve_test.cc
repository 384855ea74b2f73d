// Concurrency torture for the serving layer: N client threads predict
// (singles and batches) while the main thread ingests observations and
// hot-swaps refit snapshots through RefitController::Step(). Clients pin
// the snapshot through the holder's lock-free view and predict with no
// lock held. Their batches exceed PredictionService::kInlineBatchLimit, so
// the pooled fan-out runs under hot swaps too.
//
// Correctness oracle: the main thread is the only publisher, so right
// after each Step() it can retain the exact snapshot for every version
// ever served. Each batch answer is stamped with its snapshot version;
// after the run every recorded answer must bit-equal a recompute on the
// retained snapshot of that version — proving each batch was answered by
// one consistent snapshot even while swaps were in flight.
//
// Step() itself is documented thread-safe: a second test runs it from
// several threads at once and checks that the steps serialized.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "serve/refit_controller.h"
#include "test_support.h"
#include "util/random.h"

namespace contender::serve {
namespace {

using contender::testing::SharedPredictor;
using contender::testing::SharedTrainingData;

struct RecordedAnswer {
  PredictRequest request;
  units::Seconds latency;
  uint64_t snapshot_version = 0;
};

PredictRequest DrawRequest(Rng* rng, int num_templates) {
  PredictRequest r;
  r.template_index = static_cast<int>(
      rng->UniformInt(static_cast<uint64_t>(num_templates)));
  const uint64_t mix_size = rng->UniformInt(4);
  for (uint64_t j = 0; j < mix_size; ++j) {
    r.concurrent.push_back(static_cast<int>(
        rng->UniformInt(static_cast<uint64_t>(num_templates))));
  }
  return r;
}

TEST(ConcurrentServeTest, ClientsStayConsistentAcrossHotSwaps) {
  PredictionService::Options service_options;
  service_options.num_threads = 2;
  PredictionService service(ModelSnapshot::Create(SharedPredictor(), 1),
                            service_options);
  ObservationLog log(&service);
  RefitOptions refit_options;
  refit_options.min_new_observations = 16;
  RefitController controller(&service, &log,
                             SharedTrainingData().observations,
                             refit_options);

  const int num_templates = service.snapshot()->num_templates();
  constexpr int kClients = 4;
  constexpr int kIterations = 120;
  constexpr int kRefitRounds = 4;
  // Past the inline limit, so every batch fans out across the pool.
  constexpr size_t kBatchSize = PredictionService::kInlineBatchLimit + 4;

  // Only this (main) thread publishes, so snapshot() right after a Step is
  // exactly the snapshot serving that version.
  std::map<uint64_t, std::shared_ptr<const ModelSnapshot>> by_version;
  by_version[1] = service.snapshot();

  std::vector<std::vector<RecordedAnswer>> recorded(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([c, num_templates, &service, &log, &recorded] {
      Rng rng(1000 + static_cast<uint64_t>(c));
      for (int i = 0; i < kIterations; ++i) {
        if (i % 3 == 0) {
          std::vector<PredictRequest> batch;
          for (size_t j = 0; j < kBatchSize; ++j) {
            batch.push_back(DrawRequest(&rng, num_templates));
          }
          const auto results = service.PredictBatch(batch);
          for (size_t j = 0; j < results.size(); ++j) {
            ASSERT_TRUE(results[j].status.ok()) << results[j].status;
            recorded[static_cast<size_t>(c)].push_back(
                {batch[j], results[j].latency, results[j].snapshot_version});
          }
        } else {
          const PredictRequest r = DrawRequest(&rng, num_templates);
          auto got = service.Predict(r.template_index, r.concurrent);
          ASSERT_TRUE(got.ok()) << got.status();
          EXPECT_GT(*got, units::Seconds(0.0));
        }
        if (i % 20 == 7) {
          // Clients also ingest live observations concurrently with the
          // publisher's drains.
          MixObservation obs;
          obs.primary_index = static_cast<int>(
              rng.UniformInt(static_cast<uint64_t>(num_templates)));
          obs.concurrent_indices = {static_cast<int>(
              rng.UniformInt(static_cast<uint64_t>(num_templates)))};
          obs.mpl = 2;
          obs.latency = units::Seconds(1.0 + rng.Uniform01());
          (void)log.Ingest(obs);
        }
      }
    });
  }

  // Publisher loop: ingest a refit batch and hot-swap, concurrently with
  // the clients above.
  const auto& base = SharedTrainingData().observations;
  size_t next_obs = 0;
  for (int round = 0; round < kRefitRounds; ++round) {
    for (size_t i = 0; i < refit_options.min_new_observations; ++i) {
      const MixObservation& o = base[next_obs++ % base.size()];
      MixObservation copy = o;
      copy.latency = copy.latency * (round % 2 == 0 ? 1.15 : 0.9);
      ASSERT_TRUE(log.Ingest(copy).ok());
    }
    auto step = controller.Step();
    ASSERT_TRUE(step.ok()) << step.status();
    if (step->refit) {
      by_version[step->published_version] = service.snapshot();
    }
  }
  for (std::thread& t : clients) t.join();

  // Every recorded answer must match a recompute on the snapshot of the
  // version that stamped it.
  size_t checked = 0;
  for (const auto& per_client : recorded) {
    for (const RecordedAnswer& answer : per_client) {
      auto it = by_version.find(answer.snapshot_version);
      ASSERT_NE(it, by_version.end())
          << "answer stamped with unknown version "
          << answer.snapshot_version;
      EXPECT_EQ(answer.latency,
                it->second->PredictInMix(answer.request.template_index,
                                         answer.request.concurrent));
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
  EXPECT_GE(controller.refits(), 1u);
  EXPECT_GE(service.served(), static_cast<uint64_t>(kClients * kIterations));
}

// Four threads call Step() in a loop while a fifth ingests. Steps
// serialize on the controller, so every published version is issued
// exactly once (2, 3, ..., refits() + 1) and every ingested record is
// drained by exactly one step into the training set.
TEST(ConcurrentServeTest, ConcurrentStepCallersSerialize) {
  PredictionService service(ModelSnapshot::Create(SharedPredictor(), 1));
  ObservationLog log(&service);
  RefitOptions refit_options;
  // Any pending record triggers, so the steppers always drain the tail.
  refit_options.min_new_observations = 1;
  RefitController controller(&service, &log,
                             SharedTrainingData().observations,
                             refit_options);
  const size_t base = controller.training_set_size();

  constexpr int kSteppers = 4;
  constexpr size_t kIngests = 24;
  const auto& training = SharedTrainingData().observations;
  std::atomic<bool> ingest_done{false};
  std::thread ingester([&] {
    for (size_t i = 0; i < kIngests; ++i) {
      MixObservation copy = training[(i * 7) % training.size()];
      copy.latency = copy.latency * 1.1;
      EXPECT_TRUE(log.Ingest(copy).ok());
      // Wait for a step to drain it, so every record is raced for by all
      // the steppers and the next ingest overlaps that step's refit.
      while (log.pending() != 0) std::this_thread::yield();
    }
    ingest_done.store(true, std::memory_order_release);
  });

  std::vector<std::vector<RefitStep>> refits(kSteppers);
  std::vector<std::thread> steppers;
  steppers.reserve(kSteppers);
  for (int t = 0; t < kSteppers; ++t) {
    steppers.emplace_back([&, t] {
      while (true) {
        // Read before stepping: once the ingester is done, a step that
        // leaves nothing pending means every record has been drained.
        const bool done = ingest_done.load(std::memory_order_acquire);
        auto step = controller.Step();
        if (!step.ok()) {
          ADD_FAILURE() << step.status();  // keep stepping: no hang
        } else if (step->refit) {
          refits[static_cast<size_t>(t)].push_back(*step);
          // The mutex is not fair: hand the next refit to another
          // stepper by standing aside until someone else publishes.
          while (controller.refits() + 1 == step->published_version &&
                 !(ingest_done.load() && log.pending() == 0)) {
            std::this_thread::yield();
          }
        }
        if (done && log.pending() == 0) break;
        std::this_thread::yield();
      }
    });
  }
  ingester.join();
  for (std::thread& t : steppers) t.join();

  std::vector<uint64_t> versions;
  size_t consumed = 0;
  for (const auto& per_thread : refits) {
    for (const RefitStep& step : per_thread) {
      versions.push_back(step.published_version);
      consumed += step.observations_consumed;
    }
  }
  std::sort(versions.begin(), versions.end());
  ASSERT_EQ(versions.size(), controller.refits());
  for (size_t i = 0; i < versions.size(); ++i) {
    EXPECT_EQ(versions[i], i + 2) << "published version " << i;
  }
  EXPECT_GE(controller.refits(), 1u);
  EXPECT_EQ(service.snapshot()->version(), controller.refits() + 1);
  EXPECT_EQ(log.ingested(), kIngests);
  EXPECT_EQ(consumed, log.ingested());
  EXPECT_EQ(controller.training_set_size(), base + consumed);
  EXPECT_EQ(controller.failed_steps(), 0u);
}

}  // namespace
}  // namespace contender::serve
