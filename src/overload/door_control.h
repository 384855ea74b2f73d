// The router-door admission controller: one Decide() per arriving
// request, composing every door-side overload signal in a fixed
// precedence order and stamping each drop with its ShedReason.
//
// Precedence (first match wins):
//   1. chaos       — the seeded "overload.door.shed" fail point, so chaos
//                    replay can exercise shed paths deterministically;
//   2. quota       — the tenant's static admission quota (a hard limit,
//                    applied even with the controller disabled and even
//                    to critical work);
//   3. memory      — predicted outstanding working-set bytes would blow
//                    the node memory budget on every healthy node (also
//                    a hard limit — admitting past it buys a spill
//                    cascade, not throughput);
//   4. recovery    — the metastability detector is draining queues;
//                    sheds everything below kCritical;
//   5. brownout    — the criticality ladder's floor excludes this tier;
//   6. queue-delay — CoDel on the best predicted wait across nodes;
//                    kCritical work is exempt.
//
// Signals (metastability, brownout) observe every decision exactly once
// before the precedence walk, so the controller state trajectory is a
// pure function of the decision sequence — the two-pass fleet design
// routes sequentially, which makes the whole door bit-reproducible at
// any thread count.

#ifndef CONTENDER_OVERLOAD_DOOR_CONTROL_H_
#define CONTENDER_OVERLOAD_DOOR_CONTROL_H_

#include <cstdint>
#include <map>
#include <optional>

#include "overload/brownout.h"
#include "overload/codel.h"
#include "overload/metastability.h"
#include "overload/shed_reason.h"
#include "util/status.h"
#include "util/units.h"

namespace contender::overload {

struct DoorOptions {
  /// Master switch for the adaptive signals (codel/brownout/recovery/
  /// memory). Quota and chaos are always live: quota is the legacy
  /// static limit, chaos only fires when armed.
  bool enabled = false;
  CoDelOptions codel;
  BrownoutOptions brownout;
  MetastabilityOptions metastability;
  /// Per-node budget for predicted outstanding working-set bytes;
  /// <= 0 disables the memory signal.
  units::Bytes node_memory_budget{0.0};
};

/// Everything the router knows at one door decision.
struct DoorSample {
  /// Arrival time of the candidate (simulated).
  units::Seconds now{0.0};
  /// Best predicted wait across healthy nodes — the door's queue-delay
  /// signal.
  units::Seconds queue_delay{0.0};
  Criticality criticality = Criticality::kStandard;
  /// Router-computed: the tenant's admission quota is full.
  bool quota_exceeded = false;
  /// Router-computed: no healthy node has memory headroom for the
  /// candidate's predicted working set.
  bool memory_exceeded = false;
  /// Router's cumulative predicted completions (the goodput proxy the
  /// metastability detector tracks).
  uint64_t predicted_completions = 0;
};

struct DoorStats {
  uint64_t decisions = 0;
  uint64_t admitted = 0;
  uint64_t shed = 0;
  std::map<ShedReason, uint64_t> shed_by_reason;
  /// Sheds issued while the metastability detector was in recovery
  /// (stamped kQueueDelay in shed_by_reason; this separates them).
  uint64_t recovery_sheds = 0;
  uint64_t recovery_entries = 0;
  uint64_t brownout_escalations = 0;
  uint64_t brownout_deescalations = 0;
  /// Sheds injected by the "overload.door.shed" chaos fail point.
  uint64_t chaos_sheds = 0;
};

class DoorController {
 public:
  explicit DoorController(const DoorOptions& options);

  /// Decides one arrival: nullopt admits, otherwise the stamped reason.
  std::optional<ShedReason> Decide(const DoorSample& sample);

  [[nodiscard]] const DoorStats& stats() const;
  [[nodiscard]] bool in_recovery() const {
    return metastability_.in_recovery();
  }
  [[nodiscard]] Criticality brownout_floor() const {
    return brownout_.floor();
  }

  /// The canonical Status for a shed: kResourceExhausted for the hard
  /// limits (quota, memory — retrying cannot help),
  /// kUnavailable for the transient load sheds (retry later may).
  static Status ShedStatus(ShedReason reason);

 private:
  const DoorOptions options_;
  CoDelController codel_;
  BrownoutLadder brownout_;
  MetastabilityDetector metastability_;
  DoorStats stats_;
};

}  // namespace contender::overload

#endif  // CONTENDER_OVERLOAD_DOOR_CONTROL_H_
