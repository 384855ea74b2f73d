#include "fleet/blame.h"

#include <algorithm>

#include "util/logging.h"

namespace contender::fleet {

namespace {

/// Shared wall-clock of two execution intervals [admit, completion].
double Overlap(const sched::RequestOutcome& a,
               const sched::RequestOutcome& b) {
  const double lo =
      std::max(a.admit_time.value(), b.admit_time.value());
  const double hi =
      std::min(a.completion_time.value(), b.completion_time.value());
  return std::max(0.0, hi - lo);
}

/// For each outcome, the ascending indices of the other outcomes whose
/// execution intervals overlap its own. One sweep over the admit-sorted
/// intervals finds each overlapping pair from its earlier-admitted side:
/// the scan forward from an interval stops at the first admit at or after
/// its completion. O(n log n + n * k log k) for n outcomes that each
/// overlap at most k others, instead of all n^2 pairs.
std::vector<std::vector<size_t>> CoRunners(
    const std::vector<sched::RequestOutcome>& outcomes) {
  // Only an interval of positive length can overlap another.
  std::vector<size_t> order;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].admit_time < outcomes[i].completion_time) {
      order.push_back(i);
    }
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (outcomes[a].admit_time != outcomes[b].admit_time) {
      return outcomes[a].admit_time < outcomes[b].admit_time;
    }
    return a < b;
  });
  std::vector<std::vector<size_t>> corunners(outcomes.size());
  for (size_t p = 0; p < order.size(); ++p) {
    const units::Seconds completion = outcomes[order[p]].completion_time;
    for (size_t q = p + 1;
         q < order.size() && outcomes[order[q]].admit_time < completion;
         ++q) {
      corunners[order[p]].push_back(order[q]);
      corunners[order[q]].push_back(order[p]);
    }
  }
  for (std::vector<size_t>& list : corunners) {
    std::sort(list.begin(), list.end());
  }
  return corunners;
}

}  // namespace

std::vector<QueryBlame> ComputeNodeBlame(const NodeResult& node,
                                         const sched::MixOracle& oracle) {
  const std::vector<sched::RequestOutcome>& outcomes =
      node.schedule.outcomes;
  const std::vector<std::vector<size_t>> corunners = CoRunners(outcomes);
  std::vector<QueryBlame> blames;
  blames.reserve(outcomes.size());

  for (size_t i = 0; i < outcomes.size(); ++i) {
    const sched::RequestOutcome& victim = outcomes[i];
    QueryBlame blame;
    blame.request_id = node.global_ids[i];
    blame.tenant_id = victim.request.tenant_id;
    blame.template_index = victim.request.template_index;
    blame.isolated_latency =
        oracle.IsolatedLatency(victim.request.template_index);
    blame.execution_latency = victim.execution_latency;
    blame.excess = units::Seconds(
        std::max(0.0, (victim.execution_latency -
                       blame.isolated_latency).value()));

    // Co-residents: every other outcome whose execution interval
    // overlaps the victim's, in index order. Local ids are dense, so
    // index order == id order == deterministic share order (by culprit
    // fleet id after the node's sort, which preserves arrival order), and
    // the sums below add in the same order as an all-pairs scan would.
    struct Candidate {
      size_t index;
      double overlap;
      double weight;
    };
    std::vector<Candidate> candidates;
    double weighted_sum = 0.0;
    double overlap_sum = 0.0;
    for (const size_t j : corunners[i]) {
      const double overlap = Overlap(victim, outcomes[j]);
      CONTENDER_DCHECK(overlap > 0.0);
      // Pairwise antagonism: how much a mix of exactly this co-runner is
      // predicted to slow the victim — one oracle probe per overlapping
      // pair.
      const double antagonism =
          std::max(0.0,
                   (oracle.PredictInMix(
                        victim.request.template_index,
                        {outcomes[j].request.template_index}) -
                    blame.isolated_latency)
                       .value());
      candidates.push_back({j, overlap, overlap * antagonism});
      weighted_sum += overlap * antagonism;
      overlap_sum += overlap;
    }

    double attributed = 0.0;
    if (!candidates.empty() && blame.excess.value() > 0.0) {
      // Normalized split: antagonism-weighted when the predictor sees any
      // pairwise contention, pure overlap proportions otherwise.
      const bool use_weights = weighted_sum > 0.0;
      const double denom = use_weights ? weighted_sum : overlap_sum;
      for (const Candidate& c : candidates) {
        const double mass = use_weights ? c.weight : c.overlap;
        const double share = blame.excess.value() * (mass / denom);
        if (share <= 0.0) continue;
        const sched::RequestOutcome& culprit = outcomes[c.index];
        BlameShare s;
        s.culprit_request = node.global_ids[c.index];
        s.culprit_tenant = culprit.request.tenant_id;
        s.culprit_template = culprit.request.template_index;
        s.seconds = units::Seconds(share);
        blame.shares.push_back(s);
        attributed += share;
      }
    }
    // The float residue of the normalized split (and the whole excess
    // when nothing overlapped) stays with the query itself, keeping the
    // decomposition exactly conservative.
    blame.self_blame = units::Seconds(blame.excess.value() - attributed);
    blames.push_back(std::move(blame));
  }
  return blames;
}

}  // namespace contender::fleet
