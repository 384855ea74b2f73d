// Torn-read stress for the lock-free serving read path (DESIGN.md §12):
// eight reader threads hammer Predict/PredictDetailed while the main
// thread hot-swaps snapshots as fast as it can. Every answer must be
// internally consistent with EXACTLY ONE published snapshot — the version
// stamp and the latency must recompute bit-identically on the retained
// snapshot of that version — and every tier stamp must be truthful (the
// tier the ladder actually used, including when a breaker is held open).
// The SnapshotHolder-level tests check the holder itself: every view names
// one published snapshot no matter how often the writer churns, a reader
// past the last epoch slot falls back to the current snapshot, and a live
// view keeps the snapshot it pinned alive across a Publish.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "serve/observation_log.h"
#include "serve/service.h"
#include "serve/snapshot_holder.h"
#include "test_support.h"
#include "util/epoch.h"
#include "util/random.h"

namespace contender::serve {
namespace {

using contender::testing::SharedPredictor;

constexpr int kReaders = 8;
constexpr uint64_t kVersions = 48;
// Publishers run until the readers collectively report this much progress
// (progress-coupled, so the stress overlaps for real on any core count —
// a fixed publish count can finish before a reader is ever scheduled on a
// small machine), capped to bound the runtime.
constexpr uint64_t kMinProgress = 2000;
constexpr uint64_t kMaxPublishes = 200000;

struct StampedAnswer {
  PredictRequest request;
  units::Seconds latency;
  DegradationTier tier = DegradationTier::kFullModel;
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

// Pre-built snapshots so the publisher loop is nothing but Publish calls —
// the highest swap frequency the holder can experience.
std::vector<std::shared_ptr<const ModelSnapshot>> BuildSnapshots(
    uint64_t first_version, uint64_t count) {
  std::vector<std::shared_ptr<const ModelSnapshot>> snapshots;
  snapshots.reserve(count);
  for (uint64_t v = 0; v < count; ++v) {
    snapshots.push_back(
        ModelSnapshot::Create(SharedPredictor(), first_version + v));
  }
  return snapshots;
}

TEST(SnapshotHolderStressTest, ViewsAlwaysPairPointerAndVersion) {
  auto snapshots = BuildSnapshots(1, kVersions);
  SnapshotHolder holder(snapshots[0]);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> out_of_range{0};
  std::atomic<uint64_t> fast_path{0};
  std::atomic<uint64_t> views{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const SnapshotHolder::View view = holder.Acquire();
        views.fetch_add(1, std::memory_order_relaxed);
        // The version is read through the pointer, so a view can only
        // name a whole published snapshot: versions 1..kVersions.
        if (view->version() == 0 || view->version() > kVersions) {
          out_of_range.fetch_add(1, std::memory_order_relaxed);
        }
        if (view.lock_free()) {
          fast_path.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  uint64_t published = 0;
  while (views.load(std::memory_order_relaxed) < kMinProgress &&
         published < kMaxPublishes) {
    holder.Publish(snapshots[++published % kVersions]);
    if ((published & 63) == 0) std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(out_of_range.load(), 0u);
  EXPECT_GE(views.load(), kMinProgress);
  // The lock-free fast path must actually engage (the fallback exists for
  // slot saturation, which eight readers cannot cause).
  EXPECT_GT(fast_path.load(), 0u);
  // No readers left: one more publish retires and reclaims everything.
  holder.Publish(snapshots[0]);
  EXPECT_EQ(holder.retired_pending(), 0u);
}

// Views nest freely on one thread, each on its own epoch slot. Once all
// kNumSlots are taken, the next view takes the shared() slow path and
// still answers from the current snapshot.
TEST(SnapshotHolderStressTest, SaturatedSlotsFallBackToTheCurrentSnapshot) {
  auto snapshots = BuildSnapshots(1, 2);
  SnapshotHolder holder(snapshots[0]);
  {
    // View is neither copyable nor movable, so each lives on the heap.
    std::vector<std::unique_ptr<SnapshotHolder::View>> views;
    for (int i = 0; i < EpochDomain::kNumSlots; ++i) {
      views.emplace_back(new SnapshotHolder::View(holder.Acquire()));
      ASSERT_TRUE(views.back()->lock_free()) << "view " << i;
    }
    holder.Publish(snapshots[1]);
    const SnapshotHolder::View overflow = holder.Acquire();
    EXPECT_FALSE(overflow.lock_free());
    EXPECT_EQ(overflow.stats_slot(), -1);
    EXPECT_EQ(overflow.get(), snapshots[1].get());
    EXPECT_EQ(overflow->version(), 2u);
    // The pinned views still read the snapshot they started on.
    EXPECT_EQ(views.front()->get(), snapshots[0].get());
  }
  const SnapshotHolder::View view = holder.Acquire();
  EXPECT_TRUE(view.lock_free());
  EXPECT_GE(view.stats_slot(), 0);
  EXPECT_EQ(view.get(), snapshots[1].get());
}

// A view taken before a Publish parks the displaced snapshot in the epoch
// domain until it is released; the next Publish then reclaims it.
TEST(SnapshotHolderStressTest, LiveViewPinsTheDisplacedSnapshot) {
  SnapshotHolder holder(ModelSnapshot::Create(SharedPredictor(), 1));
  const std::weak_ptr<const ModelSnapshot> first = holder.shared();
  {
    const SnapshotHolder::View view = holder.Acquire();
    ASSERT_TRUE(view.lock_free());
    holder.Publish(ModelSnapshot::Create(SharedPredictor(), 2));
    // The holder dropped its reference; only the epoch domain holds it.
    EXPECT_FALSE(first.expired());
    EXPECT_EQ(holder.retired_pending(), 1u);
    EXPECT_EQ(view->version(), 1u);
  }
  holder.Publish(ModelSnapshot::Create(SharedPredictor(), 3));
  EXPECT_TRUE(first.expired());
  EXPECT_EQ(holder.retired_pending(), 0u);
}

TEST(SnapshotStressTest, EveryAnswerMatchesExactlyOnePublishedSnapshot) {
  auto snapshots = BuildSnapshots(1, kVersions);
  PredictionService::Options options;
  options.num_threads = 2;
  PredictionService service(snapshots[0], options);
  const int num_templates = service.snapshot()->num_templates();

  // Main thread is the only publisher, so it can retain the exact
  // snapshot behind every version ever served.
  std::map<uint64_t, std::shared_ptr<const ModelSnapshot>> by_version;
  for (uint64_t v = 0; v < kVersions; ++v) {
    by_version[snapshots[v]->version()] = snapshots[v];
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> answers{0};
  std::vector<std::vector<StampedAnswer>> recorded(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back(
        [r, num_templates, &service, &stop, &recorded, &answers] {
          Rng rng(9000 + static_cast<uint64_t>(r));
          while (!stop.load(std::memory_order_acquire)) {
            const PredictRequest request = DrawRequest(&rng, num_templates);
            const PredictResult result =
                service.PredictDetailed(request.template_index,
                                        request.concurrent);
            ASSERT_TRUE(result.status.ok()) << result.status;
            recorded[static_cast<size_t>(r)].push_back({request,
                                                        result.latency,
                                                        result.tier,
                                                        result.snapshot_version});
            answers.fetch_add(1, std::memory_order_relaxed);
          }
        });
  }
  // High-frequency hot swaps: nothing in this loop but Publish, until the
  // readers have recorded enough answers under churn.
  uint64_t published = 0;
  while (answers.load(std::memory_order_relaxed) < kMinProgress &&
         published < kMaxPublishes) {
    service.Publish(snapshots[++published % kVersions]);
    if ((published & 63) == 0) std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  // Audit: each stamped answer recomputes bit-identically on the retained
  // snapshot of its version — latency AND tier.
  size_t checked = 0;
  for (const auto& per_reader : recorded) {
    for (const StampedAnswer& answer : per_reader) {
      auto it = by_version.find(answer.snapshot_version);
      ASSERT_NE(it, by_version.end())
          << "answer stamped with unpublished version "
          << answer.snapshot_version;
      const TieredPrediction expected = it->second->predictor().PredictInMix(
          answer.request.template_index, answer.request.concurrent);
      EXPECT_EQ(answer.latency, expected.latency);
      EXPECT_EQ(answer.tier, expected.tier);
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
  EXPECT_GE(service.served(), static_cast<uint64_t>(checked));
  // Tier stamps aggregate truthfully into the striped counters.
  const uint64_t tier_total =
      service.tier_count(DegradationTier::kFullModel) +
      service.tier_count(DegradationTier::kTransferredQs) +
      service.tier_count(DegradationTier::kIsolatedHeuristic);
  EXPECT_EQ(tier_total, service.served());
  EXPECT_EQ(service.publishes(), published);
}

TEST(SnapshotStressTest, TierStampsStayTruthfulWithBreakerHeldOpen) {
  auto snapshots = BuildSnapshots(1, 8);
  PredictionService::Options options;
  options.num_threads = 2;
  options.health = std::make_shared<HealthTracker>(
      snapshots[0]->num_templates());
  PredictionService service(snapshots[0], options);
  const int num_templates = service.snapshot()->num_templates();

  // Trip template 0's breaker before the readers start, so its state is
  // stable (Open) for the whole concurrent phase.
  for (int i = 0; i < 8; ++i) options.health->Record(0, 10.0);
  ASSERT_EQ(options.health->state(0), BreakerState::kOpen);
  ASSERT_EQ(options.health->state(1), BreakerState::kClosed);

  std::map<uint64_t, std::shared_ptr<const ModelSnapshot>> by_version;
  for (const auto& snap : snapshots) by_version[snap->version()] = snap;

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> answers{0};
  std::vector<std::vector<StampedAnswer>> recorded(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back(
        [r, num_templates, &service, &stop, &recorded, &answers] {
          Rng rng(500 + static_cast<uint64_t>(r));
          while (!stop.load(std::memory_order_acquire)) {
            // Alternate between the quarantined template and a healthy
            // one. Mixes stay non-empty: an empty mix is MPL 1, answered
            // by the measured isolated latency at tier 0 regardless of
            // breaker state (that IS the model for MPL 1).
            PredictRequest request = DrawRequest(&rng, num_templates);
            request.template_index =
                (recorded[static_cast<size_t>(r)].size() % 2) == 0 ? 0 : 1;
            if (request.concurrent.empty()) {
              request.concurrent.push_back(
                  (request.template_index + 1) % num_templates);
            }
            const PredictResult result =
                service.PredictDetailed(request.template_index,
                                        request.concurrent);
            ASSERT_TRUE(result.status.ok()) << result.status;
            recorded[static_cast<size_t>(r)].push_back({request,
                                                        result.latency,
                                                        result.tier,
                                                        result.snapshot_version});
            answers.fetch_add(1, std::memory_order_relaxed);
          }
        });
  }
  uint64_t published = 0;
  while (answers.load(std::memory_order_relaxed) < kMinProgress &&
         published < kMaxPublishes) {
    service.Publish(snapshots[++published % snapshots.size()]);
    if ((published & 63) == 0) std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  size_t quarantined_answers = 0;
  for (const auto& per_reader : recorded) {
    for (const StampedAnswer& answer : per_reader) {
      auto it = by_version.find(answer.snapshot_version);
      ASSERT_NE(it, by_version.end());
      const bool quarantined = answer.request.template_index == 0;
      // Truthfulness: an open breaker means the full model NEVER answers
      // for that template, and the stamp must recompute exactly.
      if (quarantined) {
        EXPECT_NE(answer.tier, DegradationTier::kFullModel);
        ++quarantined_answers;
      }
      const TieredPrediction expected = it->second->predictor().PredictInMix(
          answer.request.template_index, answer.request.concurrent,
          /*allow_full_model=*/!quarantined);
      EXPECT_EQ(answer.latency, expected.latency);
      EXPECT_EQ(answer.tier, expected.tier);
    }
  }
  EXPECT_GT(quarantined_answers, 0u);
  EXPECT_GT(service.tier_count(DegradationTier::kTransferredQs) +
                service.tier_count(DegradationTier::kIsolatedHeuristic),
            0u);
}

}  // namespace
}  // namespace contender::serve
