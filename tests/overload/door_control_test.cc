// Door controller composition: precedence order, disabled-mode
// passthrough (quota and chaos stay live), criticality exemptions, the
// recovery drain, canonical shed Statuses, and chaos determinism via the
// "overload.door.shed" fail point.

#include "overload/door_control.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/failpoint.h"

namespace contender::overload {
namespace {

DoorOptions EnabledOptions() {
  DoorOptions options;
  options.enabled = true;
  options.codel.target = units::Seconds(1.0);
  options.codel.interval = units::Seconds(10.0);
  options.brownout.enter_pressure = 2.0;
  options.brownout.exit_pressure = 0.75;
  options.brownout.rung_streak = 4;
  options.metastability.window = 8;
  options.metastability.goodput_fraction = 0.5;
  options.metastability.drain_delay = units::Seconds(1.0);
  return options;
}

DoorSample HealthySample(double now) {
  DoorSample sample;
  sample.now = units::Seconds(now);
  sample.queue_delay = units::Seconds(0.2);
  return sample;
}

class DoorControlTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPointRegistry::Global().DisarmAll(); }
};

TEST_F(DoorControlTest, DisabledDoorStillEnforcesQuota) {
  DoorController door({});  // enabled = false
  DoorSample sample = HealthySample(0.0);
  EXPECT_EQ(door.Decide(sample), std::nullopt);
  sample.quota_exceeded = true;
  auto verdict = door.Decide(sample);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(*verdict, ShedReason::kQuota);
  // Quota is a hard limit: even critical work is rejected.
  sample.criticality = Criticality::kCritical;
  EXPECT_EQ(door.Decide(sample), ShedReason::kQuota);
  EXPECT_EQ(door.stats().decisions, 3u);
  EXPECT_EQ(door.stats().admitted, 1u);
  EXPECT_EQ(door.stats().shed, 2u);
  EXPECT_EQ(door.stats().shed_by_reason.at(ShedReason::kQuota), 2u);
}

TEST_F(DoorControlTest, DisabledDoorIgnoresAdaptiveSignals) {
  DoorController door({});
  // Massive queue delay, memory pressure flagged: with the controller
  // off, everything but quota/chaos is a passthrough.
  DoorSample sample;
  sample.queue_delay = units::Seconds(500.0);
  sample.memory_exceeded = true;
  for (int i = 0; i < 64; ++i) {
    sample.now = units::Seconds(i);
    EXPECT_EQ(door.Decide(sample), std::nullopt);
  }
}

TEST_F(DoorControlTest, MemoryPressureBeatsEveryAdaptiveSignalAndIsHard) {
  DoorController door(EnabledOptions());
  DoorSample sample = HealthySample(0.0);
  sample.memory_exceeded = true;
  sample.criticality = Criticality::kCritical;
  EXPECT_EQ(door.Decide(sample), ShedReason::kMemoryPressure)
      << "memory is a hard limit even for critical work";
}

TEST_F(DoorControlTest, CoDelShedsSustainedQueueDelayButExemptsCritical) {
  DoorController door(EnabledOptions());
  // Delay just above target but below the brownout enter pressure
  // (2.0 * target), and completions tracking decisions so the
  // metastability detector stays quiet: CoDel is the only signal that
  // can fire.
  auto jammed = [](double now, uint64_t completions) {
    DoorSample sample;
    sample.now = units::Seconds(now);
    sample.queue_delay = units::Seconds(1.5);
    sample.predicted_completions = completions;
    return sample;
  };
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(door.Decide(jammed(i, static_cast<uint64_t>(i))),
              std::nullopt)
        << "t=" << i;
  }
  EXPECT_EQ(door.Decide(jammed(10.0, 10)), ShedReason::kQueueDelay);
  // An identically-jammed critical arrival is exempt from queue-delay
  // shedding (only hard limits touch it).
  DoorSample critical = jammed(10.5, 11);
  critical.criticality = Criticality::kCritical;
  EXPECT_EQ(door.Decide(critical), std::nullopt);
}

TEST_F(DoorControlTest, BrownoutShedsLowestTierFirst) {
  DoorController door(EnabledOptions());
  // Pressure 3x target for a full streak escalates the ladder one rung.
  DoorSample sample;
  sample.queue_delay = units::Seconds(3.0);
  for (int i = 0; i < 4; ++i) {
    sample.now = units::Seconds(0.1 * i);
    sample.criticality = Criticality::kCritical;  // nothing shed yet
    door.Decide(sample);
  }
  EXPECT_EQ(door.brownout_floor(), Criticality::kStandard);
  sample.now = units::Seconds(1.0);
  sample.criticality = Criticality::kSheddable;
  EXPECT_EQ(door.Decide(sample), ShedReason::kCriticalityBrownout);
  sample.criticality = Criticality::kStandard;
  // Standard still passes the rung-1 floor; CoDel has not completed an
  // interval yet, so it admits.
  EXPECT_EQ(door.Decide(sample), std::nullopt);
  EXPECT_GE(door.stats().brownout_escalations, 1u);
}

TEST_F(DoorControlTest, RecoveryModeShedsEverythingBelowCritical) {
  DoorController door(EnabledOptions());
  // Window of 8 decisions: high delay, zero predicted completions.
  DoorSample jammed;
  jammed.queue_delay = units::Seconds(6.0);
  jammed.predicted_completions = 0;
  for (int i = 0; i < 8; ++i) {
    jammed.now = units::Seconds(0.1 * i);
    door.Decide(jammed);
  }
  ASSERT_TRUE(door.in_recovery());
  EXPECT_EQ(door.stats().recovery_entries, 1u);

  jammed.now = units::Seconds(2.0);
  jammed.criticality = Criticality::kStandard;
  EXPECT_EQ(door.Decide(jammed), ShedReason::kQueueDelay);
  const uint64_t recovery_sheds = door.stats().recovery_sheds;
  EXPECT_GE(recovery_sheds, 1u);
  // Critical work rides through recovery.
  jammed.criticality = Criticality::kCritical;
  EXPECT_EQ(door.Decide(jammed), std::nullopt);
  // Once delay drains below drain_delay, recovery ends (the brownout
  // ladder de-escalates separately, on its own calm streak).
  DoorSample drained = HealthySample(3.0);
  drained.criticality = Criticality::kCritical;
  EXPECT_EQ(door.Decide(drained), std::nullopt);
  EXPECT_FALSE(door.in_recovery());
}

TEST_F(DoorControlTest, ChaosShedFiresDeterministically) {
  auto run = [] {
    auto& registry = FailPointRegistry::Global();
    registry.SetRootSeed(11);
    registry.ArmProbability("overload.door.shed", 0.3);
    DoorController door({});
    std::vector<bool> shed;
    for (int i = 0; i < 64; ++i) {
      shed.push_back(door.Decide(HealthySample(i)).has_value());
    }
    registry.Disarm("overload.door.shed");
    return std::make_pair(shed, door.stats().chaos_sheds);
  };
  const auto first = run();
  const auto second = run();
  EXPECT_GT(first.second, 0u) << "chaos shed never fired at p=0.3";
  EXPECT_LT(first.second, 64u);
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

TEST_F(DoorControlTest, ShedStatusMapsHardAndTransientCodes) {
  // Hard limits: retrying cannot refill them.
  EXPECT_EQ(DoorController::ShedStatus(ShedReason::kQuota).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(DoorController::ShedStatus(ShedReason::kMemoryPressure).code(),
            StatusCode::kResourceExhausted);
  // Transient load sheds: retry-with-backoff later may succeed.
  EXPECT_EQ(DoorController::ShedStatus(ShedReason::kQueueDelay).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(
      DoorController::ShedStatus(ShedReason::kCriticalityBrownout).code(),
      StatusCode::kUnavailable);
  // Every status names its reason.
  for (ShedReason reason : AllShedReasons()) {
    const Status status = DoorController::ShedStatus(reason);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find(ShedReasonName(reason)),
              std::string::npos)
        << status;
  }
}

}  // namespace
}  // namespace contender::overload
