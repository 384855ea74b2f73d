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

/// The earliest arrived request of one template.
struct TemplateHead {
  int template_index;
  size_t position;
};

/// The distinct templates of the arrived prefix, each with the queue
/// position of its earliest request, in order of that position. The scan
/// stops once every template has been seen, so on a deep queue it reads
/// only the leading requests.
std::vector<TemplateHead> DistinctTemplates(const RequestQueue& queue,
                                            size_t arrived,
                                            const MixOracle& oracle) {
  const size_t num_templates = static_cast<size_t>(oracle.num_templates());
  std::vector<bool> seen(num_templates, false);
  std::vector<TemplateHead> heads;
  for (size_t i = 0; i < arrived && heads.size() < num_templates; ++i) {
    const int t = queue.at(i).template_index;
    CONTENDER_CHECK(t >= 0 && static_cast<size_t>(t) < num_templates)
        << "Pick: unknown template index " << t;
    if (seen[static_cast<size_t>(t)]) continue;
    seen[static_cast<size_t>(t)] = true;
    heads.push_back({t, i});
  }
  return heads;
}

/// Minimal score wins, strict `<` so the lowest index takes ties.
/// ScoreFn: size_t index -> double.
template <typename ScoreFn>
size_t ArgMinScore(size_t count, ScoreFn&& score) {
  size_t best = 0;
  double best_score = score(size_t{0});
  for (size_t i = 1; i < count; ++i) {
    const double s = score(i);
    if (s < best_score) {
      best = i;
      best_score = s;
    }
  }
  return best;
}

/// Queue position of the earliest request of the template minimizing
/// `score` (ScoreFn: int template -> double). For a score that depends
/// only on the template (and the running mix), this is exactly the
/// position a per-request scan with earliest-position ties would pick —
/// at one evaluation per distinct template instead of one per request.
template <typename ScoreFn>
size_t PickBestTemplate(const std::vector<TemplateHead>& heads,
                        ScoreFn&& score) {
  return heads[ArgMinScore(heads.size(),
                           [&](size_t k) {
                             return score(heads[k].template_index);
                           })]
      .position;
}

/// Greedy contention score of admitting a request of `template_index`:
/// its predicted slowdown ratio L(t | M) / L_iso(t) in the live mix M — one
/// mix-oracle probe.
double GreedyScore(int template_index, const SchedContext& ctx) {
  const double in_mix =
      ctx.oracle->PredictInMix(template_index, *ctx.running_templates)
          .value();
  const double isolated = ctx.oracle->IsolatedLatency(template_index).value();
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
    return PickBestTemplate(DistinctTemplates(queue, arrived, *ctx.oracle),
                            [&](int t) {
                              return ctx.oracle->IsolatedLatency(t).value();
                            });
  }
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
    return PickBestTemplate(DistinctTemplates(queue, arrived, *ctx.oracle),
                            [&](int t) { return GreedyScore(t, ctx); });
  }
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
    const std::vector<TemplateHead> heads =
        DistinctTemplates(queue, arrived, *ctx.oracle);
    bool any_deadline = false;
    for (size_t i = 0; i < arrived && !any_deadline; ++i) {
      any_deadline = queue.at(i).deadline.has_value();
    }
    if (!any_deadline) {
      // Nothing to protect: behave exactly like greedy.
      return PickBestTemplate(heads,
                              [&](int t) { return GreedyScore(t, ctx); });
    }
    // Slack depends on each request's own deadline, so the scan stays per
    // request — but the in-mix latency is predicted once per template.
    std::vector<units::Seconds> predicted(
        static_cast<size_t>(ctx.oracle->num_templates()));
    for (const TemplateHead& head : heads) {
      predicted[static_cast<size_t>(head.template_index)] =
          ctx.oracle->PredictInMix(head.template_index,
                                   *ctx.running_templates);
    }
    // Earliest predicted slack first; best-effort requests rank after every
    // deadline-carrying one (infinite slack).
    return ArgMinScore(arrived, [&](size_t i) {
      const Request& r = queue.at(i);
      if (!r.deadline.has_value()) {
        return std::numeric_limits<double>::infinity();
      }
      return (*r.deadline - ctx.now -
              predicted[static_cast<size_t>(r.template_index)])
          .value();
    });
  }
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
