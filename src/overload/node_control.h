// Node-level overload control: the per-node composition of the AIMD
// adaptive limiter (how many slots the scheduler may fill) and a CoDel
// controller over the head of the admission queue (how stale a queued
// request may get before it is shed instead of started).
//
// ScheduleSimulator owns one NodeOverloadControl per run; both
// sub-controllers are disabled by default so existing schedules replay
// unchanged. All state advances on simulated time only.

#ifndef CONTENDER_OVERLOAD_NODE_CONTROL_H_
#define CONTENDER_OVERLOAD_NODE_CONTROL_H_

#include <cstdint>

#include "overload/adaptive_limiter.h"
#include "overload/codel.h"
#include "util/units.h"

namespace contender::overload {

struct NodeOverloadOptions {
  /// Replace the static MPL budget with the AIMD limiter (the static
  /// budget remains the limiter's ceiling).
  bool adaptive_limit = false;
  /// Shed queued requests whose sojourn violates CoDel before starting
  /// them.
  bool codel_shed = false;
};

class NodeOverloadControl {
 public:
  /// The CoDel over the queue head.
  static constexpr CoDelOptions kCoDel{units::Seconds(30.0),
                                       units::Seconds(90.0)};

  /// `target_mpl` is the node's static MPL budget and the limiter's
  /// ceiling.
  NodeOverloadControl(const NodeOverloadOptions& options, int target_mpl);

  /// The admission limit to use where the target MPL was used before.
  /// With the adaptive limiter off this is exactly the target MPL.
  [[nodiscard]] int EffectiveLimit() const;

  /// Feeds a completion into the adaptive limiter.
  void OnCompletion(units::Seconds predicted, units::Seconds observed);

  /// CoDel decision for the queue-head candidate with `sojourn` of
  /// queue delay at simulated time `now`. Always false when codel_shed
  /// is off.
  [[nodiscard]] bool ShouldShedQueueHead(units::Seconds now,
                                         units::Seconds sojourn);

  [[nodiscard]] const AdaptiveLimiter& limiter() const { return limiter_; }
  [[nodiscard]] const CoDelController& codel() const { return codel_; }
  [[nodiscard]] uint64_t queue_sheds() const { return codel_.sheds(); }

 private:
  const NodeOverloadOptions options_;
  const int target_mpl_;
  AdaptiveLimiter limiter_;
  CoDelController codel_;
};

}  // namespace contender::overload

#endif  // CONTENDER_OVERLOAD_NODE_CONTROL_H_
