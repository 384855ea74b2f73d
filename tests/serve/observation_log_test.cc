#include "serve/observation_log.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <vector>

#include "core/continuum.h"
#include "serve/health.h"
#include "test_support.h"
#include "util/failpoint.h"

namespace contender::serve {
namespace {

using contender::testing::SharedPredictor;
using contender::testing::SharedTrainingData;

std::shared_ptr<const ModelSnapshot> MakeSnapshot(uint64_t version = 1) {
  return ModelSnapshot::Create(SharedPredictor(), version);
}

// The first training observation whose template has a spoiler range at the
// observation's MPL (in practice: the first one).
MixObservation RangedObservation() {
  for (const MixObservation& o : SharedTrainingData().observations) {
    const TemplateProfile& p =
        SharedPredictor().profiles()[static_cast<size_t>(o.primary_index)];
    auto it = p.spoiler_latency.find(o.mpl);
    if (it == p.spoiler_latency.end()) continue;
    if (units::LatencyRange::Make(p.isolated_latency, it->second).ok()) {
      return o;
    }
  }
  CONTENDER_CHECK(false) << "no observation with a spoiler range";
  return {};
}

TEST(ObservationLogTest, IngestComputesContinuumResidual) {
  PredictionService service(MakeSnapshot(5));
  ObservationLog log(&service);
  const MixObservation obs = RangedObservation();

  auto result = log.Ingest(obs);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->snapshot_version, 5u);

  // Recompute Eq. 6 by hand against the same snapshot.
  const auto snapshot = service.snapshot();
  const TemplateProfile& p =
      snapshot->predictor()
          .profiles()[static_cast<size_t>(obs.primary_index)];
  auto range = units::LatencyRange::Make(
      p.isolated_latency, p.spoiler_latency.at(obs.mpl));
  ASSERT_TRUE(range.ok());
  auto c_obs = ContinuumPoint(obs.latency, *range);
  auto c_pred = ContinuumPoint(
      snapshot->PredictInMix(obs.primary_index, obs.concurrent_indices),
      *range);
  ASSERT_TRUE(c_obs.ok() && c_pred.ok());
  EXPECT_EQ(result->continuum_residual, c_obs->value() - c_pred->value());

  EXPECT_EQ(log.pending(), 1u);
  EXPECT_EQ(log.ingested(), 1u);
  EXPECT_EQ(log.rejected(), 0u);
}

TEST(ObservationLogTest, UncoveredRecordIsScoredOnTier1AndSkipsTheBreaker) {
  // Template 0 has no QS model at any MPL: serving answers its in-mix
  // requests from tier 1 (transferred QS), and ingest must score its
  // records against that same answer, not against l_min.
  constexpr int kUncovered = 0;
  PredictionService::Options service_options;
  service_options.health = std::make_shared<HealthTracker>(
      static_cast<int>(SharedPredictor().profiles().size()));
  PredictionService service(
      ModelSnapshot::Create(testing::TrainWithoutModelsFor({kUncovered}), 1),
      service_options);
  ObservationLog log(&service);
  MixObservation obs;
  for (const MixObservation& o : SharedTrainingData().observations) {
    if (o.primary_index == kUncovered && o.mpl == 2) {
      obs = o;
      break;
    }
  }
  ASSERT_EQ(obs.primary_index, kUncovered);

  const PredictResult served =
      service.PredictDetailed(obs.primary_index, obs.concurrent_indices);
  ASSERT_EQ(served.tier, DegradationTier::kTransferredQs);
  const TemplateProfile& p =
      service.snapshot()->predictor().profiles()[kUncovered];
  ASSERT_NE(served.latency, p.isolated_latency);
  auto range = units::LatencyRange::Make(p.isolated_latency,
                                         p.spoiler_latency.at(obs.mpl));
  ASSERT_TRUE(range.ok());
  auto c_obs = ContinuumPoint(obs.latency, *range);
  auto c_served = ContinuumPoint(served.latency, *range);
  ASSERT_TRUE(c_obs.ok() && c_served.ok());

  auto result = log.Ingest(obs);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->continuum_residual, c_obs->value() - c_served->value());
  // The breaker gates only the template's own model (tier 0), so a
  // residual scored on tier 1 is no evidence about it.
  EXPECT_EQ(service_options.health->records(), 0u);
  EXPECT_EQ(log.ingested(), 1u);
}

TEST(ObservationLogTest, ResidualSignTracksObservedShift) {
  PredictionService service(MakeSnapshot());
  ObservationLog log(&service);
  MixObservation obs = RangedObservation();
  const units::Seconds predicted = service.snapshot()->PredictInMix(
      obs.primary_index, obs.concurrent_indices);

  obs.latency = predicted * 1.2;
  auto slower = log.Ingest(obs);
  ASSERT_TRUE(slower.ok()) << slower.status();
  EXPECT_GT(slower->continuum_residual, 0.0);

  obs.latency = predicted * 0.8;
  auto faster = log.Ingest(obs);
  ASSERT_TRUE(faster.ok()) << faster.status();
  EXPECT_LT(faster->continuum_residual, 0.0);
}

TEST(ObservationLogTest, DrainPreservesIngestOrderAndResets) {
  PredictionService service(MakeSnapshot());
  ObservationLog log(&service);
  const auto& all = SharedTrainingData().observations;
  ASSERT_GE(all.size(), 6u);
  SummaryStats expected_abs;
  for (size_t i = 0; i < 6; ++i) {
    auto result = log.Ingest(all[i]);
    ASSERT_TRUE(result.ok()) << result.status();
    expected_abs.Add(std::abs(result->continuum_residual));
  }
  EXPECT_EQ(log.pending(), 6u);
  EXPECT_EQ(log.pending_mean_abs_residual(), expected_abs.mean());

  ObservationBatch batch = log.Drain();
  ASSERT_EQ(batch.observations.size(), 6u);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(batch.observations[i].primary_index, all[i].primary_index);
    EXPECT_EQ(batch.observations[i].latency, all[i].latency);
  }
  EXPECT_EQ(batch.mean_abs_residual, expected_abs.mean());
  EXPECT_EQ(log.pending(), 0u);
  EXPECT_EQ(log.pending_mean_abs_residual(), 0.0);
  EXPECT_EQ(log.ingested(), 6u);  // lifetime counter survives the drain
  EXPECT_TRUE(log.Drain().observations.empty());
}

TEST(ObservationLogTest, RejectsMalformedRecords) {
  PredictionService service(MakeSnapshot());
  ObservationLog log(&service);
  const int n = service.snapshot()->num_templates();
  const MixObservation good = RangedObservation();

  MixObservation bad = good;
  bad.primary_index = n;
  auto r1 = log.Ingest(bad);
  EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);

  bad = good;
  bad.concurrent_indices.push_back(-1);
  bad.mpl = static_cast<int>(bad.concurrent_indices.size()) + 1;
  auto r2 = log.Ingest(bad);
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);

  bad = good;
  bad.mpl = good.mpl + 1;  // MPL must equal mix size + 1
  auto r3 = log.Ingest(bad);
  EXPECT_EQ(r3.status().code(), StatusCode::kInvalidArgument);

  bad = good;
  bad.latency = units::Seconds(0.0);
  auto r4 = log.Ingest(bad);
  EXPECT_EQ(r4.status().code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(log.rejected(), 4u);
  EXPECT_EQ(log.ingested(), 0u);
  EXPECT_EQ(log.pending(), 0u);
}

// +inf passes a bare "latency > 0" test; its residual would be infinite,
// forcing a drift refit and, at tier 0, tripping the template's breaker.
TEST(ObservationLogTest, RejectsNonFiniteLatency) {
  auto health = std::make_shared<HealthTracker>(
      static_cast<int>(SharedPredictor().profiles().size()));
  PredictionService::Options service_options;
  service_options.health = health;
  PredictionService service(MakeSnapshot(), service_options);
  ObservationLog log(&service);
  MixObservation bad = RangedObservation();
  for (double latency : {std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    bad.latency = units::Seconds(latency);
    auto result = log.Ingest(bad);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << latency;
  }
  EXPECT_EQ(log.rejected(), 3u);
  EXPECT_EQ(log.pending(), 0u);
  EXPECT_EQ(health->records(), 0u);
}

// Fills the pending buffer to ObservationLog::kPendingCapacity with `obs`.
void FillPending(ObservationLog* log, const MixObservation& obs) {
  for (size_t i = 0; i < ObservationLog::kPendingCapacity; ++i) {
    ASSERT_TRUE(log->Ingest(obs).ok()) << "record " << i;
  }
}

TEST(ObservationLogTest, BoundedBufferRejectsWithResourceExhausted) {
  PredictionService service(MakeSnapshot());
  ObservationLog log(&service);
  const MixObservation obs = RangedObservation();

  FillPending(&log, obs);
  auto overflow = log.Ingest(obs);
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(log.pending(), ObservationLog::kPendingCapacity);
  EXPECT_EQ(log.rejected(), 1u);

  // Draining frees capacity again.
  EXPECT_EQ(log.Drain().observations.size(), ObservationLog::kPendingCapacity);
  EXPECT_TRUE(log.Ingest(obs).ok());
}

TEST(ObservationLogTest, OverflowDroppedCountsOnlyCapacityRejections) {
  PredictionService service(MakeSnapshot());
  ObservationLog log(&service);
  const MixObservation good = RangedObservation();

  // A malformed record is rejected but NOT an overflow drop.
  MixObservation bad = good;
  bad.latency = units::Seconds(0.0);
  EXPECT_FALSE(log.Ingest(bad).ok());
  EXPECT_EQ(log.overflow_dropped(), 0u);

  FillPending(&log, good);
  EXPECT_FALSE(log.Ingest(good).ok());
  EXPECT_FALSE(log.Ingest(good).ok());
  EXPECT_EQ(log.overflow_dropped(), 2u);
  EXPECT_EQ(log.rejected(), 3u);

  // Overflow -> drain -> re-ingest: the stream recovers completely, and
  // the overflow counter records history without blocking new records.
  EXPECT_EQ(log.Drain().observations.size(), ObservationLog::kPendingCapacity);
  ASSERT_TRUE(log.Ingest(good).ok());
  EXPECT_EQ(log.pending(), 1u);
  EXPECT_EQ(log.overflow_dropped(), 2u);
  EXPECT_EQ(log.ingested(), ObservationLog::kPendingCapacity + 1);
}

TEST(ObservationLogTest, QuarantineParksRecordsInBoundedDeadLetter) {
  PredictionService service(MakeSnapshot());
  ObservationLog log(&service);
  const MixObservation obs = RangedObservation();
  constexpr size_t kCapacity = ObservationLog::kDeadLetterCapacity;

  log.Quarantine(std::vector<MixObservation>(2, obs));
  EXPECT_EQ(log.quarantined(), 2u);
  EXPECT_EQ(log.dead_letter_pending(), 2u);
  EXPECT_EQ(log.dead_letter_dropped(), 0u);

  // Past capacity the excess is dropped and counted, never unbounded.
  log.Quarantine(std::vector<MixObservation>(kCapacity + 1, obs));
  EXPECT_EQ(log.quarantined(), kCapacity + 3);
  EXPECT_EQ(log.dead_letter_pending(), kCapacity);
  EXPECT_EQ(log.dead_letter_dropped(), 3u);

  // Quarantined records never rejoin the pending (training) stream.
  EXPECT_EQ(log.pending(), 0u);
  std::vector<MixObservation> taken = log.TakeDeadLetter();
  EXPECT_EQ(taken.size(), kCapacity);
  EXPECT_EQ(log.dead_letter_pending(), 0u);
  // The lifetime counter survives the take.
  EXPECT_EQ(log.quarantined(), kCapacity + 3);
}

TEST(ObservationLogTest, IngestFailPointRejectsValidRecords) {
  auto& registry = FailPointRegistry::Global();
  PredictionService service(MakeSnapshot());
  ObservationLog log(&service);
  const MixObservation obs = RangedObservation();

  registry.ArmNthHit("serve.observation_log.ingest", 2);
  EXPECT_TRUE(log.Ingest(obs).ok());
  auto injected = log.Ingest(obs);
  EXPECT_EQ(injected.status().code(), StatusCode::kInternal);
  EXPECT_TRUE(log.Ingest(obs).ok());  // NthHit self-disarmed
  registry.DisarmAll();

  EXPECT_EQ(log.pending(), 2u);
  EXPECT_EQ(log.rejected(), 1u);
  EXPECT_EQ(log.overflow_dropped(), 0u);
}

TEST(ObservationLogTest, AcceptedResidualsFeedTheHealthTracker) {
  PredictionService::Options service_options;
  service_options.health = std::make_shared<HealthTracker>(
      static_cast<int>(SharedPredictor().profiles().size()));
  PredictionService service(MakeSnapshot(), service_options);
  ObservationLog log(&service);
  MixObservation obs = RangedObservation();

  ASSERT_TRUE(log.Ingest(obs).ok());
  EXPECT_EQ(service_options.health->records(), 1u);

  // Rejected records must not feed the breaker.
  MixObservation bad = obs;
  bad.latency = units::Seconds(0.0);
  EXPECT_FALSE(log.Ingest(bad).ok());
  EXPECT_EQ(service_options.health->records(), 1u);

  // A stream of wildly mispredicted observations trips the breaker.
  obs.latency = obs.latency * 50.0;
  for (int i = 0; i < 16; ++i) ASSERT_TRUE(log.Ingest(obs).ok());
  EXPECT_EQ(service_options.health->state(obs.primary_index),
            BreakerState::kOpen);
  EXPECT_GE(service_options.health->trips(), 1u);
}

}  // namespace
}  // namespace contender::serve
