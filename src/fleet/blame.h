// Per-query contention-blame attribution, following Kalmegh et al.
// ("Analyzing Query Performance and Attributing Blame for Contentions in
// a Cluster Computing Framework", PAPERS.md), adapted to Contender's
// latency continuum.
//
// A query's contention cost is its realized excess over the measured
// isolated latency: excess(q) = max(0, L_exec(q) - L_iso(q)). That excess
// is decomposed across the queries co-resident with q on its node —
// Kalmegh et al.'s "blame the co-runners for the waits they induced" —
// with each co-runner r weighted by
//
//     overlap(q, r) * antagonism(q, r)
//
// where overlap is the shared wall-clock of their execution intervals
// and antagonism is the predictor's own pairwise contention estimate
// L(q | {r}) - L_iso(q) (how much a mix of exactly r is predicted to
// slow q). Weights are normalized so the shares sum to excess(q) exactly
// (up to float residue, folded into self_blame): when every pairwise
// prediction is zero the split degrades to pure overlap proportions, and
// a query with no co-residency keeps its whole excess as self blame (the
// queue blamed nobody — e.g. cold-cache variance the predictor priced
// in). This makes the mix scores actionable: aggregated per tenant the
// shares say who slowed whom down by how many seconds, the
// tenant-accountability signal FleetMetrics reports.

#ifndef CONTENDER_FLEET_BLAME_H_
#define CONTENDER_FLEET_BLAME_H_

#include <vector>

#include "fleet/node.h"
#include "sched/mix_oracle.h"
#include "util/units.h"

namespace contender::fleet {

/// One co-runner's attributed share of a query's slowdown.
struct BlameShare {
  /// Fleet-wide id of the co-runner blamed.
  int culprit_request = -1;
  int culprit_tenant = 0;
  int culprit_template = -1;
  /// Seconds of the victim's excess attributed to this co-runner.
  units::Seconds seconds;
};

/// The full decomposition of one query's slowdown.
struct QueryBlame {
  /// Fleet-wide id of the slowed-down (victim) query.
  int request_id = -1;
  int tenant_id = 0;
  int template_index = -1;
  units::Seconds isolated_latency;
  units::Seconds execution_latency;
  /// max(0, execution - isolated): the attributed total.
  units::Seconds excess;
  /// Excess not attributable to any co-runner (no overlap, or the float
  /// residue of the normalized split). Invariant:
  /// self_blame + sum(shares) == excess.
  units::Seconds self_blame;
  std::vector<BlameShare> shares;
};

/// Attributes blame for every completed query of one node's realized
/// schedule. `oracle` supplies isolated latencies and the pairwise
/// antagonism weights (the node's own oracle, so the same ladder answers
/// the admission path saw); it is probed once per overlapping pair, in
/// (victim, culprit) index order. Co-runners are found by one sweep over
/// the admit-sorted outcomes: O(n log n + n * k log k) for n outcomes that
/// each overlap at most k others. Shares are ordered by culprit request id.
std::vector<QueryBlame> ComputeNodeBlame(const NodeResult& node,
                                         const sched::MixOracle& oracle);

}  // namespace contender::fleet

#endif  // CONTENDER_FLEET_BLAME_H_
