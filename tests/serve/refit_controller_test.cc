#include "serve/refit_controller.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "test_support.h"
#include "util/failpoint.h"

namespace contender::serve {
namespace {

using contender::testing::SharedPredictor;
using contender::testing::SharedTrainingData;

std::shared_ptr<const ModelSnapshot> MakeSnapshot(uint64_t version = 1) {
  return ModelSnapshot::Create(SharedPredictor(), version);
}

// Up to `count` copies of the template's training observations with
// latencies scaled by `scale` but clamped under the §6.1 outlier cutoff
// (105% of the spoiler latency) so the refit cannot silently drop them.
std::vector<MixObservation> ShiftedObservations(int template_index,
                                                size_t count, double scale) {
  std::vector<MixObservation> shifted;
  const auto& profiles = SharedPredictor().profiles();
  for (const MixObservation& o : SharedTrainingData().observations) {
    if (o.primary_index != template_index) continue;
    MixObservation copy = o;
    copy.latency = copy.latency * scale;
    const auto& profile = profiles[static_cast<size_t>(template_index)];
    auto lmax = profile.spoiler_latency.find(o.mpl);
    if (lmax != profile.spoiler_latency.end() &&
        copy.latency > lmax->second * 1.04) {
      copy.latency = lmax->second * 1.04;
    }
    shifted.push_back(std::move(copy));
    if (shifted.size() == count) break;
  }
  return shifted;
}

struct Stack {
  Stack() : service(MakeSnapshot()), log(&service) {}
  PredictionService service;
  ObservationLog log;
};

TEST(RefitControllerTest, StepWithoutTriggerDoesNothing) {
  Stack s;
  RefitOptions options;
  options.min_new_observations = 8;
  options.residual_threshold = 0.10;
  options.drift_min_observations = 4;
  RefitController controller(&s.service, &s.log,
                             SharedTrainingData().observations, options);
  const size_t base = controller.training_set_size();

  // Empty log: nothing pending, nothing to do.
  auto idle = controller.Step();
  ASSERT_TRUE(idle.ok()) << idle.status();
  EXPECT_EQ(idle->trigger, RefitStep::Trigger::kNone);
  EXPECT_FALSE(idle->refit);

  // Three strongly drifted records: below both the count trigger (8) and
  // the drift quorum (4) — still nothing.
  for (const MixObservation& o : ShiftedObservations(2, 3, 1.3)) {
    ASSERT_TRUE(s.log.Ingest(o).ok());
  }
  auto below_quorum = controller.Step();
  ASSERT_TRUE(below_quorum.ok()) << below_quorum.status();
  EXPECT_EQ(below_quorum->trigger, RefitStep::Trigger::kNone);
  EXPECT_EQ(s.log.pending(), 3u);  // records stay pending for a later step
  EXPECT_EQ(s.service.snapshot()->version(), 1u);
  EXPECT_EQ(controller.refits(), 0u);
  EXPECT_EQ(controller.training_set_size(), base);
}

TEST(RefitControllerTest, CountTriggerRefitsTouchedTemplatesAndSwaps) {
  Stack s;
  RefitOptions options;
  options.min_new_observations = 12;
  RefitController controller(&s.service, &s.log,
                             SharedTrainingData().observations, options);
  const size_t base = controller.training_set_size();
  const auto old_snapshot = s.service.snapshot();

  const auto shifted = ShiftedObservations(3, 12, 1.25);
  ASSERT_EQ(shifted.size(), 12u);
  for (const MixObservation& o : shifted) {
    ASSERT_TRUE(s.log.Ingest(o).ok());
  }
  auto step = controller.Step();
  ASSERT_TRUE(step.ok()) << step.status();
  EXPECT_EQ(step->trigger, RefitStep::Trigger::kCount);
  EXPECT_TRUE(step->refit);
  EXPECT_EQ(step->observations_consumed, 12u);
  EXPECT_EQ(step->refit_templates, std::vector<int>{3});
  EXPECT_EQ(step->published_version, 2u);
  EXPECT_EQ(controller.refits(), 1u);
  EXPECT_EQ(controller.training_set_size(), base + 12);
  EXPECT_EQ(s.log.pending(), 0u);

  // The swap is visible to the service and the drifted template predicts
  // differently somewhere on its observed mixes.
  const auto new_snapshot = s.service.snapshot();
  EXPECT_EQ(new_snapshot->version(), 2u);
  EXPECT_EQ(s.service.publishes(), 1u);
  int changed = 0;
  for (const MixObservation& o : shifted) {
    if (new_snapshot->PredictInMix(o.primary_index, o.concurrent_indices) !=
        old_snapshot->PredictInMix(o.primary_index, o.concurrent_indices)) {
      ++changed;
    }
  }
  EXPECT_GT(changed, 0);

  // Untouched templates keep their exact models: the refit is surgical.
  EXPECT_EQ(new_snapshot->PredictInMix(7, {1, 2}),
            old_snapshot->PredictInMix(7, {1, 2}));
}

TEST(RefitControllerTest, DriftTriggerFiresOnResidualAlone) {
  Stack s;
  RefitOptions options;
  options.min_new_observations = 1000;  // count trigger out of reach
  options.residual_threshold = 1e-3;
  options.drift_min_observations = 4;
  RefitController controller(&s.service, &s.log,
                             SharedTrainingData().observations, options);

  for (const MixObservation& o : ShiftedObservations(5, 6, 1.3)) {
    ASSERT_TRUE(s.log.Ingest(o).ok());
  }
  ASSERT_GT(s.log.pending_mean_abs_residual(), options.residual_threshold);
  auto step = controller.Step();
  ASSERT_TRUE(step.ok()) << step.status();
  EXPECT_EQ(step->trigger, RefitStep::Trigger::kDrift);
  EXPECT_TRUE(step->refit);
  EXPECT_EQ(s.service.snapshot()->version(), 2u);
}

// The determinism contract: replaying the same ingest/step sequence on a
// fresh stack reproduces every post-refit prediction bit-exactly.
TEST(RefitControllerTest, ColdReplayReproducesPredictionsBitExactly) {
  auto run = [] {
    Stack s;
    RefitOptions options;
    options.min_new_observations = 10;
    RefitController controller(&s.service, &s.log,
                               SharedTrainingData().observations, options);
    for (const MixObservation& o : ShiftedObservations(2, 10, 1.2)) {
      CONTENDER_CHECK(s.log.Ingest(o).ok());
    }
    auto first = controller.Step();
    CONTENDER_CHECK(first.ok()) << first.status();
    for (const MixObservation& o : ShiftedObservations(6, 10, 0.85)) {
      CONTENDER_CHECK(s.log.Ingest(o).ok());
    }
    auto second = controller.Step();
    CONTENDER_CHECK(second.ok()) << second.status();

    const auto snapshot = s.service.snapshot();
    std::vector<units::Seconds> predictions;
    predictions.push_back(units::Seconds(
        static_cast<double>(snapshot->version())));
    for (int t = 0; t < snapshot->num_templates(); ++t) {
      predictions.push_back(snapshot->PredictInMix(t, {}));
      predictions.push_back(
          snapshot->PredictInMix(t, {(t + 1) % snapshot->num_templates()}));
      predictions.push_back(snapshot->PredictInMix(
          t, {(t + 3) % snapshot->num_templates(),
              (t + 7) % snapshot->num_templates()}));
    }
    return predictions;
  };
  const auto live = run();
  const auto replay = run();
  ASSERT_EQ(live.size(), replay.size());
  for (size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(live[i], replay[i]) << "prediction " << i;
  }
}

// Failure-path suite: every test arms fail points, so each disarms on exit.
class RefitFailureTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPointRegistry::Global().DisarmAll(); }

  static RefitOptions FailureOptions() {
    RefitOptions options;
    options.min_new_observations = 8;
    return options;
  }

  FailPointRegistry& registry() { return FailPointRegistry::Global(); }
};

TEST_F(RefitFailureTest, FailedFitQuarantinesBatchAndKeepsLiveSnapshot) {
  Stack s;
  RefitController controller(&s.service, &s.log,
                             SharedTrainingData().observations,
                             FailureOptions());
  const size_t base = controller.training_set_size();
  const auto live_before = s.service.snapshot();
  for (const MixObservation& o : ShiftedObservations(2, 8, 1.2)) {
    ASSERT_TRUE(s.log.Ingest(o).ok());
  }

  registry().ArmProbability("serve.refit.fit", 1.0);  // every fit fails
  auto step = controller.Step();
  EXPECT_EQ(step.status().code(), StatusCode::kInternal);
  // The step fitted once: a deterministic fit is not retried.
  EXPECT_EQ(registry().Site("serve.refit.fit").hits(), 1u);

  // The live snapshot is byte-for-byte the same object; nothing partial
  // was published and the committed training set is untouched.
  EXPECT_EQ(s.service.snapshot().get(), live_before.get());
  EXPECT_EQ(s.service.publishes(), 0u);
  EXPECT_EQ(controller.training_set_size(), base);
  EXPECT_EQ(controller.refits(), 0u);
  EXPECT_EQ(controller.failed_steps(), 1u);

  // The drained batch went to the dead-letter buffer, not back to pending.
  EXPECT_EQ(s.log.pending(), 0u);
  EXPECT_EQ(s.log.quarantined(), 8u);
  EXPECT_EQ(s.log.dead_letter_pending(), 8u);

  // The quarantined batch is replayable: after forensics clears the
  // fault, re-ingesting the dead letter drives a normal successful refit.
  registry().DisarmAll();
  for (const MixObservation& o : s.log.TakeDeadLetter()) {
    ASSERT_TRUE(s.log.Ingest(o).ok());
  }
  auto replay = controller.Step();
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_TRUE(replay->refit);
  EXPECT_EQ(s.service.snapshot()->version(), 2u);
  EXPECT_EQ(controller.training_set_size(), base + 8);
}

// Failure determinism: a run whose middle step fails replays bit-exactly
// — same terminal status, same quarantine, and the same final predictions
// (the poisoned batch never contaminates the fit).
TEST_F(RefitFailureTest, ReplayAfterFailureIsBitExact) {
  auto run = [this] {
    Stack s;
    RefitController controller(&s.service, &s.log,
                               SharedTrainingData().observations,
                               FailureOptions());
    for (const MixObservation& o : ShiftedObservations(2, 8, 1.2)) {
      CONTENDER_CHECK(s.log.Ingest(o).ok());
    }
    auto ok_step = controller.Step();
    CONTENDER_CHECK(ok_step.ok()) << ok_step.status();

    registry().SetRootSeed(2026);
    registry().ArmProbability("serve.refit.fit", 1.0);
    for (const MixObservation& o : ShiftedObservations(6, 8, 0.9)) {
      CONTENDER_CHECK(s.log.Ingest(o).ok());
    }
    auto failed = controller.Step();
    CONTENDER_CHECK(!failed.ok());
    EXPECT_EQ(registry().Site("serve.refit.fit").hits(), 1u);
    registry().DisarmAll();

    const auto snapshot = s.service.snapshot();
    std::vector<double> out;
    out.push_back(static_cast<double>(snapshot->version()));
    out.push_back(static_cast<double>(s.log.dead_letter_pending()));
    for (int t = 0; t < snapshot->num_templates(); ++t) {
      out.push_back(snapshot->PredictInMix(t, {(t + 1) % 25}).value());
    }
    return out;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace contender::serve
