#include "fleet/blame.h"

#include <algorithm>

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

}  // namespace

std::vector<QueryBlame> ComputeNodeBlame(const NodeResult& node,
                                         const sched::MixOracle& oracle) {
  const std::vector<sched::RequestOutcome>& outcomes =
      node.schedule.outcomes;
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

    // Co-residency scan: every other outcome whose execution interval
    // overlaps the victim's. Local ids are dense, so index order == id
    // order == deterministic share order (by culprit fleet id after the
    // node's sort, which preserves arrival order).
    struct Candidate {
      size_t index;
      double overlap;
      double weight;
    };
    std::vector<Candidate> candidates;
    double weighted_sum = 0.0;
    double overlap_sum = 0.0;
    for (size_t j = 0; j < outcomes.size(); ++j) {
      if (j == i) continue;
      const double overlap = Overlap(victim, outcomes[j]);
      if (overlap <= 0.0) continue;
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
