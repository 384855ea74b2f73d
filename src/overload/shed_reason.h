// Shed-reason taxonomy and tenant criticality tiers — the vocabulary the
// whole overload-control subsystem (DESIGN.md §16) speaks.
//
// Every dropped request in the stack must be stamped with a ShedReason
// (lint rule R10 bans silent drops), so FleetMetrics can keep a
// conservation ledger (admitted + shed == offered) broken out by tenant
// and reason, and the bench can say *which* controller shed *what*.
//
// Criticality is the brownout axis: under pressure the door sheds
// kSheddable work first, then kStandard, and only hard resource limits
// (quota, memory) ever reject kCritical work.

#ifndef CONTENDER_OVERLOAD_SHED_REASON_H_
#define CONTENDER_OVERLOAD_SHED_REASON_H_

#include <vector>

namespace contender::overload {

/// Why a request was dropped instead of executed. Stamped on every
/// rejection in serve/sched/fleet — there is no anonymous drop.
enum class ShedReason {
  /// Queue delay (predicted or observed sojourn) exceeded the CoDel
  /// target for a full interval, or the metastability detector is in
  /// recovery mode and draining queues.
  kQueueDelay = 0,
  /// The tenant's static admission quota was full.
  kQuota,
  /// Predicted outstanding working-set bytes would exceed the node
  /// memory budget (the LearnedWMP-style pre-spill signal).
  kMemoryPressure,
  /// The brownout ladder's criticality floor excluded this tier.
  kCriticalityBrownout,
};

/// Stable lowercase-hyphen name ("queue-delay", "quota", ...).
const char* ShedReasonName(ShedReason reason);

/// Every ShedReason, in enum order (for ledgers and round-trip tests).
const std::vector<ShedReason>& AllShedReasons();

/// Tenant service tier: what the brownout ladder may shed. Higher values
/// are more protected; comparisons are meaningful (kCritical > kStandard).
enum class Criticality {
  /// Best-effort work, first to go in a brownout.
  kSheddable = 0,
  /// The default tier.
  kStandard = 1,
  /// Exempt from queue-delay and brownout shedding; only hard resource
  /// limits (quota, memory) may reject it.
  kCritical = 2,
};

/// Stable lowercase name ("sheddable", "standard", "critical").
const char* CriticalityName(Criticality criticality);

/// Every Criticality, from least to most protected.
const std::vector<Criticality>& AllCriticalities();

/// The default fleet tier ladder, a pure function of tenant id: tenant 0
/// (the heaviest Zipf share) is critical, and the ladder then rotates
/// standard → sheddable → critical → ... so every fleet population mixes
/// all three tiers deterministically.
Criticality CriticalityForTenant(int tenant_id);

}  // namespace contender::overload

#endif  // CONTENDER_OVERLOAD_SHED_REASON_H_
