// Admission policies: given the waiting queue and the live running mix,
// choose which request gets the free execution slot. This is the paper's
// motivating consumer (§1): the predictor exists so that exactly this
// decision can be made from predicted-in-mix latencies instead of arrival
// order.
//
// Every policy is deterministic: scores are pure functions of the queue,
// the mix and the oracle, and ties break by queue position (earliest
// arrival, then lowest request id — the queue's sort order). An in-mix
// prediction depends only on (template, running mix), so the scoring
// policies prepare the running mix once per Pick and probe the oracle once
// per distinct arrived template against it, not once per queued request:
// at most num_templates probes per Pick, and one queue rank, for the
// winner. A policy keeps its scratch buffers across Picks, so a decision
// allocates nothing once they have grown, and one policy object decides
// for one thread at a time.

#ifndef CONTENDER_SCHED_POLICY_H_
#define CONTENDER_SCHED_POLICY_H_

#include <memory>
#include <string>
#include <vector>

#include "sched/mix_oracle.h"
#include "sched/request.h"
#include "util/statusor.h"
#include "util/units.h"

namespace contender::sched {

/// Decision context for one admission: the instant the slot is granted,
/// the templates currently occupying the other slots (admitted and not yet
/// completed), and the prediction oracle.
struct SchedContext {
  units::Seconds now;
  const std::vector<int>* running_templates = nullptr;
  MixOracle* oracle = nullptr;
};

/// An admission policy. Pick returns the queue position of the request to
/// admit, restricted to the arrived prefix queue.ArrivedBy(ctx.now), which
/// the caller guarantees is non-empty.
class Policy {
 public:
  virtual ~Policy() = default;

  [[nodiscard]] virtual const std::string& name() const = 0;
  [[nodiscard]] virtual StatusOr<size_t> Pick(const RequestQueue& queue,
                                              const SchedContext& ctx) = 0;
};

/// The four shipped policies.
enum class PolicyKind {
  /// Arrival order; the work-conserving baseline.
  kFifo,
  /// Shortest predicted *isolated* latency first (contention-blind SJF).
  kShortestIsolatedFirst,
  /// Greedy contention-aware: admit the candidate whose predicted
  /// continuum latency in the current running mix (CQI against the live
  /// mix) minimizes the predicted added completion time.
  kGreedyContention,
  /// Earliest-slack-first over deadline-carrying candidates using
  /// predicted-in-mix latency; degrades to greedy when nothing in the
  /// arrived prefix has a deadline.
  kDeadlineAware,
};

[[nodiscard]] std::unique_ptr<Policy> MakePolicy(PolicyKind kind);
[[nodiscard]] const std::string& PolicyKindName(PolicyKind kind);
[[nodiscard]] const std::vector<PolicyKind>& AllPolicyKinds();

}  // namespace contender::sched

#endif  // CONTENDER_SCHED_POLICY_H_
