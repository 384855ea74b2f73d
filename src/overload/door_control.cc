#include "overload/door_control.h"

#include <string>

#include "util/failpoint.h"

namespace contender::overload {

namespace {
/// Chaos injection for door sheds: when armed, arrivals are shed at the
/// door with a seeded, replayable pattern (stamped kQueueDelay — from
/// the caller's perspective an injected shed is indistinguishable from
/// a real queue-delay shed, which is the point).
auto& kDoorShedFailPoint = CONTENDER_DEFINE_FAILPOINT("overload.door.shed");
}  // namespace

DoorController::DoorController(const DoorOptions& options)
    : options_(options),
      codel_(options.codel),
      brownout_(options.brownout),
      metastability_(options.metastability) {}

std::optional<ShedReason> DoorController::Decide(const DoorSample& sample) {
  ++stats_.decisions;
  auto shed = [&](ShedReason reason) {
    ++stats_.shed;
    ++stats_.shed_by_reason[reason];
    return reason;
  };

  // Every decision feeds the aggregate signals exactly once, before any
  // early-out, so the controller trajectory does not depend on which
  // branch fired.
  if (options_.enabled) {
    metastability_.Observe(sample.queue_delay, sample.predicted_completions);
    brownout_.Observe(sample.queue_delay.value() /
                      options_.codel.target.value());
    stats_.recovery_entries = metastability_.recovery_entries();
    stats_.brownout_escalations = brownout_.escalations();
    stats_.brownout_deescalations = brownout_.deescalations();
  }

  if (kDoorShedFailPoint.ShouldFail()) {
    ++stats_.chaos_sheds;
    return shed(ShedReason::kQueueDelay);
  }
  if (sample.quota_exceeded) {
    return shed(ShedReason::kQuota);
  }
  if (options_.enabled) {
    if (sample.memory_exceeded) {
      return shed(ShedReason::kMemoryPressure);
    }
    if (metastability_.in_recovery() &&
        sample.criticality < Criticality::kCritical) {
      ++stats_.recovery_sheds;
      return shed(ShedReason::kQueueDelay);
    }
    if (!brownout_.Admits(sample.criticality)) {
      return shed(ShedReason::kCriticalityBrownout);
    }
    if (sample.criticality < Criticality::kCritical &&
        codel_.ShouldShed(sample.now, sample.queue_delay)) {
      return shed(ShedReason::kQueueDelay);
    }
  }
  ++stats_.admitted;
  return std::nullopt;
}

const DoorStats& DoorController::stats() const { return stats_; }

Status DoorController::ShedStatus(ShedReason reason) {
  const std::string name = ShedReasonName(reason);
  switch (reason) {
    case ShedReason::kQuota:
    case ShedReason::kMemoryPressure:
      return Status::ResourceExhausted("shed: " + name);
    case ShedReason::kQueueDelay:
    case ShedReason::kCriticalityBrownout:
      return Status::Unavailable("shed: " + name);
  }
  return Status::Unavailable("shed: " + name);
}

}  // namespace contender::overload
