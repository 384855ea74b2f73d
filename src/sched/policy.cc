#include "sched/policy.h"

#include <limits>
#include <vector>

#include "util/logging.h"

namespace contender::sched {

namespace {

Status ValidateContext(const RequestQueue& queue, const SchedContext& ctx,
                       size_t* arrived) {
  if (ctx.oracle == nullptr || ctx.running_templates == nullptr) {
    return Status::InvalidArgument("SchedContext is incomplete");
  }
  *arrived = queue.ArrivedBy(ctx.now);
  if (*arrived == 0) {
    return Status::FailedPrecondition(
        "Pick called with no arrived request in the queue");
  }
  return Status::OK();
}

using TemplateHead = RequestQueue::TemplateHead;

/// Fills `heads` with the distinct templates of the arrived prefix, each
/// with its earliest request, in queue order — the queue's template index
/// answers without reading the prefix.
void ArrivedHeads(const RequestQueue& queue, size_t arrived,
                  const MixOracle& oracle, std::vector<TemplateHead>* heads) {
  queue.LeadingTemplateHeads(arrived, heads);
  for (const TemplateHead& head : *heads) {
    CONTENDER_CHECK(head.template_index < oracle.num_templates())
        << "Pick: unknown template index " << head.template_index;
  }
}

/// Queue position of the earliest request of the template minimizing
/// `score` (ScoreFn: int template -> double); strict `<`, so the earliest
/// head takes ties. For a score that depends only on the template (and
/// the running mix), this is exactly the position a per-request scan with
/// earliest-position ties would pick — at one evaluation per distinct
/// template instead of one per request, and one rank for the winner.
/// `heads` is never empty: every arrived request has a head.
template <typename ScoreFn>
size_t PickBestTemplate(const RequestQueue& queue,
                        const std::vector<TemplateHead>& heads,
                        ScoreFn&& score) {
  size_t best = 0;
  double best_score = score(heads[0].template_index);
  for (size_t k = 1; k < heads.size(); ++k) {
    const double s = score(heads[k].template_index);
    if (s < best_score) {
      best = k;
      best_score = s;
    }
  }
  return queue.PositionOf(*heads[best].request);
}

/// Greedy contention score of admitting a request of `template_index`:
/// its predicted slowdown ratio L(t | M) / L_iso(t) in the live mix M,
/// prepared once per decision — one mix-oracle probe.
double GreedyScore(int template_index, const PreparedMix& running,
                   const MixOracle& oracle) {
  const double in_mix = oracle.PredictInMix(template_index, running).value();
  const double isolated = oracle.IsolatedLatency(template_index).value();
  return in_mix / isolated;
}

class FifoPolicy : public Policy {
 public:
  const std::string& name() const override {
    static const std::string kName = "fifo";
    return kName;
  }
  StatusOr<size_t> Pick(const RequestQueue& queue,
                        const SchedContext& ctx) override {
    size_t arrived = 0;
    CONTENDER_RETURN_IF_ERROR(ValidateContext(queue, ctx, &arrived));
    // The queue is sorted by (arrival, id): position 0 is FIFO order.
    return size_t{0};
  }
};

class ShortestIsolatedFirstPolicy : public Policy {
 public:
  const std::string& name() const override {
    static const std::string kName = "shortest-isolated";
    return kName;
  }
  StatusOr<size_t> Pick(const RequestQueue& queue,
                        const SchedContext& ctx) override {
    size_t arrived = 0;
    CONTENDER_RETURN_IF_ERROR(ValidateContext(queue, ctx, &arrived));
    ArrivedHeads(queue, arrived, *ctx.oracle, &heads_);
    return PickBestTemplate(queue, heads_, [&](int t) {
      return ctx.oracle->IsolatedLatency(t).value();
    });
  }

 private:
  std::vector<TemplateHead> heads_;
};

class GreedyContentionPolicy : public Policy {
 public:
  const std::string& name() const override {
    static const std::string kName = "greedy-contention";
    return kName;
  }
  StatusOr<size_t> Pick(const RequestQueue& queue,
                        const SchedContext& ctx) override {
    size_t arrived = 0;
    CONTENDER_RETURN_IF_ERROR(ValidateContext(queue, ctx, &arrived));
    ArrivedHeads(queue, arrived, *ctx.oracle, &heads_);
    ctx.oracle->predictor().PrepareMix(*ctx.running_templates, &running_);
    return PickBestTemplate(queue, heads_, [&](int t) {
      return GreedyScore(t, running_, *ctx.oracle);
    });
  }

 private:
  std::vector<TemplateHead> heads_;
  PreparedMix running_;
};

class DeadlineAwarePolicy : public Policy {
 public:
  const std::string& name() const override {
    static const std::string kName = "deadline-aware";
    return kName;
  }
  StatusOr<size_t> Pick(const RequestQueue& queue,
                        const SchedContext& ctx) override {
    size_t arrived = 0;
    CONTENDER_RETURN_IF_ERROR(ValidateContext(queue, ctx, &arrived));
    ArrivedHeads(queue, arrived, *ctx.oracle, &heads_);
    ctx.oracle->predictor().PrepareMix(*ctx.running_templates, &running_);
    bool any_deadline = false;
    queue.ForEachLeadingDeadline(arrived, [&](const Request&) {
      any_deadline = true;
      return false;
    });
    if (!any_deadline) {
      // Nothing to protect: behave exactly like greedy.
      return PickBestTemplate(queue, heads_, [&](int t) {
        return GreedyScore(t, running_, *ctx.oracle);
      });
    }
    // Slack depends on each request's own deadline, so the scan stays per
    // request — but the in-mix latency is predicted once per template.
    // Every arrived request's template has a head, so the walk reads only
    // entries written here.
    predicted_.resize(static_cast<size_t>(ctx.oracle->num_templates()));
    for (const TemplateHead& head : heads_) {
      predicted_[static_cast<size_t>(head.template_index)] =
          ctx.oracle->PredictInMix(head.template_index, running_);
    }
    const auto slack = [&](const Request& r) {
      if (!r.deadline.has_value()) {
        return std::numeric_limits<double>::infinity();
      }
      return (*r.deadline - ctx.now -
              predicted_[static_cast<size_t>(r.template_index)])
          .value();
    };
    // Earliest predicted slack first, strict `<` so the earliest position
    // takes ties, starting from position 0. A best-effort request has
    // infinite slack, so past position 0 it never wins: the walk visits
    // only the deadline-carrying requests.
    const Request* best = &queue.at(0);
    double best_slack = slack(*best);
    queue.ForEachLeadingDeadline(arrived, [&](const Request& r) {
      const double s = slack(r);
      if (s < best_slack) {
        best = &r;
        best_slack = s;
      }
      return true;
    });
    return queue.PositionOf(*best);
  }

 private:
  std::vector<TemplateHead> heads_;
  PreparedMix running_;
  /// In-mix latency per template index; only the heads' entries are live.
  std::vector<units::Seconds> predicted_;
};

}  // namespace

std::unique_ptr<Policy> MakePolicy(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kFifo:
      return std::make_unique<FifoPolicy>();
    case PolicyKind::kShortestIsolatedFirst:
      return std::make_unique<ShortestIsolatedFirstPolicy>();
    case PolicyKind::kGreedyContention:
      return std::make_unique<GreedyContentionPolicy>();
    case PolicyKind::kDeadlineAware:
      return std::make_unique<DeadlineAwarePolicy>();
  }
  CONTENDER_CHECK(false) << "unknown PolicyKind";
  return nullptr;
}

const std::string& PolicyKindName(PolicyKind kind) {
  return MakePolicy(kind)->name();
}

const std::vector<PolicyKind>& AllPolicyKinds() {
  static const std::vector<PolicyKind>* kinds = new std::vector<PolicyKind>{
      PolicyKind::kFifo, PolicyKind::kShortestIsolatedFirst,
      PolicyKind::kGreedyContention, PolicyKind::kDeadlineAware};
  return *kinds;
}

}  // namespace contender::sched
