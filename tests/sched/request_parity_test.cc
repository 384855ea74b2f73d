// Bit-parity of the template-indexed RequestQueue against a verbatim copy
// of the sorted-vector queue it replaced, and of the four policies' picks
// against verbatim copies of the policies that found template heads by
// scanning the arrived prefix (DistinctTemplates). Seeded streams with
// 1-25 templates, exact arrival ties, 0-60% deadlines and 1-4096 requests
// run randomly interleaved operations on both queues: Take at the head and
// elsewhere; ArrivedBy, NextArrival and at at random instants and
// positions; template heads, deadline walks with PositionOf, and the Pick
// of every policy. Every size, position, request and pick must match
// exactly; a failure here means the index moved an answer.
//
// PickChaosTest arms the ladder's fail points during greedy and
// deadline-aware Picks, which prepare the running mix once, and checks
// them against the reference policies, which score each head through the
// one-probe PredictInMix: the same position, the same fail-point hits and
// fires, the same MixOracle counts.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sched/mix_oracle.h"
#include "sched/policy.h"
#include "sched/request.h"
#include "test_support.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/units.h"

namespace contender::sched {
namespace reference {

// ---------------------------------------------------------------------------
// Verbatim copy of the vector queue (sched/request.{h,cc}) before the
// template index, minus Push, which left with it.

class RequestQueue {
 public:
  RequestQueue() = default;
  /// Takes ownership of `requests` and sorts them into queue order.
  explicit RequestQueue(std::vector<Request> requests);

  [[nodiscard]] bool empty() const { return requests_.empty(); }
  [[nodiscard]] size_t size() const { return requests_.size(); }
  [[nodiscard]] const Request& at(size_t i) const {
    return requests_[i];
  }

  /// Number of leading requests with arrival_time <= t (the admissible
  /// prefix at time t).
  [[nodiscard]] size_t ArrivedBy(units::Seconds t) const;

  /// Earliest arrival among queued requests; queue must be non-empty.
  [[nodiscard]] units::Seconds NextArrival() const;

  /// Removes and returns the request at position i.
  Request Take(size_t i);

 private:
  std::vector<Request> requests_;
};

// Queue order: arrival time, then request id (insertion order of the
// generator), so ties are deterministic.
bool QueueBefore(const Request& a, const Request& b) {
  if (a.arrival_time != b.arrival_time) {
    return a.arrival_time < b.arrival_time;
  }
  return a.request_id < b.request_id;
}

RequestQueue::RequestQueue(std::vector<Request> requests)
    : requests_(std::move(requests)) {
  std::stable_sort(requests_.begin(), requests_.end(), QueueBefore);
}

size_t RequestQueue::ArrivedBy(units::Seconds t) const {
  const auto end = std::upper_bound(
      requests_.begin(), requests_.end(), t,
      [](units::Seconds time, const Request& r) {
        return time < r.arrival_time;
      });
  return static_cast<size_t>(end - requests_.begin());
}

units::Seconds RequestQueue::NextArrival() const {
  CONTENDER_CHECK(!requests_.empty());
  return requests_.front().arrival_time;
}

Request RequestQueue::Take(size_t i) {
  CONTENDER_CHECK(i < requests_.size());
  Request r = requests_[i];
  requests_.erase(requests_.begin() + static_cast<std::ptrdiff_t>(i));
  return r;
}

// ---------------------------------------------------------------------------
// Verbatim copy of sched/policy.cc's prefix-scan heads and its four
// policies over the vector queue; only the Policy base (whose Pick takes
// the indexed queue), `override` and name() are dropped.

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

class FifoPolicy {
 public:
  StatusOr<size_t> Pick(const RequestQueue& queue,
                        const SchedContext& ctx) {
    size_t arrived = 0;
    CONTENDER_RETURN_IF_ERROR(ValidateContext(queue, ctx, &arrived));
    // The queue is sorted by (arrival, id): position 0 is FIFO order.
    return size_t{0};
  }
};

class ShortestIsolatedFirstPolicy {
 public:
  StatusOr<size_t> Pick(const RequestQueue& queue,
                        const SchedContext& ctx) {
    size_t arrived = 0;
    CONTENDER_RETURN_IF_ERROR(ValidateContext(queue, ctx, &arrived));
    return PickBestTemplate(DistinctTemplates(queue, arrived, *ctx.oracle),
                            [&](int t) {
                              return ctx.oracle->IsolatedLatency(t).value();
                            });
  }
};

class GreedyContentionPolicy {
 public:
  StatusOr<size_t> Pick(const RequestQueue& queue,
                        const SchedContext& ctx) {
    size_t arrived = 0;
    CONTENDER_RETURN_IF_ERROR(ValidateContext(queue, ctx, &arrived));
    return PickBestTemplate(DistinctTemplates(queue, arrived, *ctx.oracle),
                            [&](int t) { return GreedyScore(t, ctx); });
  }
};

class DeadlineAwarePolicy {
 public:
  StatusOr<size_t> Pick(const RequestQueue& queue,
                        const SchedContext& ctx) {
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

StatusOr<size_t> Pick(PolicyKind kind, const RequestQueue& queue,
                      const SchedContext& ctx) {
  switch (kind) {
    case PolicyKind::kFifo:
      return FifoPolicy().Pick(queue, ctx);
    case PolicyKind::kShortestIsolatedFirst:
      return ShortestIsolatedFirstPolicy().Pick(queue, ctx);
    case PolicyKind::kGreedyContention:
      return GreedyContentionPolicy().Pick(queue, ctx);
    case PolicyKind::kDeadlineAware:
      return DeadlineAwarePolicy().Pick(queue, ctx);
  }
  CONTENDER_CHECK(false) << "unknown PolicyKind";
  return size_t{0};
}

}  // namespace reference

namespace {

using contender::testing::SharedPredictor;

/// The paper workload's template count, which the oracle scores.
constexpr int kTemplates = 25;

bool SameRequest(const Request& a, const Request& b) {
  return a.request_id == b.request_id &&
         a.template_index == b.template_index &&
         a.tenant_id == b.tenant_id && a.arrival_time == b.arrival_time &&
         a.deadline == b.deadline && a.criticality == b.criticality;
}

/// A seeded stream of `size` requests over `num_templates` distinct
/// template indices (a random subset of the oracle's, so index gaps are
/// common). Arrivals sit on a coarse grid, about four requests per instant,
/// so exact ties are the rule; deadlines sit on a grid too, so exact slack
/// ties happen. The vector comes back shuffled: the queues must sort it.
std::vector<Request> MakeStream(Rng* rng, int size, int num_templates,
                                double deadline_probability) {
  std::vector<int> pool = rng->Permutation(kTemplates);
  pool.resize(static_cast<size_t>(num_templates));
  const uint64_t instants = static_cast<uint64_t>(std::max(1, size / 4));
  std::vector<Request> requests(static_cast<size_t>(size));
  for (int id = 0; id < size; ++id) {
    Request& r = requests[static_cast<size_t>(id)];
    r.request_id = id;
    r.template_index = pool[rng->UniformInt(pool.size())];
    r.tenant_id = static_cast<int>(rng->UniformInt(3));
    r.arrival_time =
        units::Seconds(2.5 * static_cast<double>(rng->UniformInt(instants)));
    if (rng->Uniform01() < deadline_probability) {
      r.deadline = r.arrival_time +
                   units::Seconds(100.0 * static_cast<double>(
                                              1 + rng->UniformInt(40)));
    }
    if (rng->Uniform01() < 0.1) {
      r.criticality = overload::Criticality::kCritical;
    }
  }
  rng->Shuffle(&requests);
  return requests;
}

/// A decision instant: an exact queued arrival (the prefix boundary falls
/// on a tie), a uniform instant around the queued span, or one before
/// every arrival (an empty prefix).
units::Seconds DrawInstant(Rng* rng, const reference::RequestQueue& ref) {
  const double first = ref.at(0).arrival_time.value();
  const double last = ref.at(ref.size() - 1).arrival_time.value();
  const uint64_t kind = rng->UniformInt(8);
  if (kind < 4) return ref.at(rng->UniformInt(ref.size())).arrival_time;
  if (kind < 7) return units::Seconds(rng->Uniform(first - 1.0, last + 1.0));
  return units::Seconds(first - 1.0);
}

class RequestParityTest : public ::testing::Test {
 protected:
  RequestParityTest() : oracle_(&SharedPredictor()) {
    for (PolicyKind kind : AllPolicyKinds()) {
      policies_.push_back(MakePolicy(kind));
    }
  }

  /// Compares everything a reader of the queue can see at instant `now`;
  /// returns the picks of every policy that could pick (for the caller to
  /// Take one of them).
  std::vector<size_t> CheckState(const RequestQueue& queue,
                                 const reference::RequestQueue& ref,
                                 units::Seconds now, Rng* rng,
                                 const std::string& where) {
    std::vector<size_t> picks;
    EXPECT_EQ(queue.size(), ref.size()) << where;
    const size_t arrived = queue.ArrivedBy(now);
    EXPECT_EQ(arrived, ref.ArrivedBy(now)) << where;
    EXPECT_EQ(queue.NextArrival(), ref.NextArrival()) << where;
    for (int k = 0; k < 4; ++k) {
      const size_t i = rng->UniformInt(ref.size());
      EXPECT_TRUE(SameRequest(queue.at(i), ref.at(i)))
          << where << " at(" << i << ")";
    }

    // Heads of the arrived prefix and of an arbitrary leading count.
    const size_t any_count = rng->UniformInt(ref.size() + 1);
    for (const size_t count : {arrived, any_count}) {
      std::vector<RequestQueue::TemplateHead> heads;
      queue.LeadingTemplateHeads(count, &heads);
      const auto want = reference::DistinctTemplates(ref, count, oracle_);
      EXPECT_EQ(heads.size(), want.size())
          << where << " heads(" << count << ")";
      for (size_t k = 0; k < std::min(heads.size(), want.size()); ++k) {
        EXPECT_EQ(heads[k].template_index, want[k].template_index)
            << where << " head " << k;
        EXPECT_EQ(queue.PositionOf(*heads[k].request), want[k].position)
            << where << " head " << k;
      }
    }

    // The deadline-carrying requests among a leading count, with their
    // positions, stopped by the callback after `stop` of them (a stop
    // past their number runs the walk to the end).
    const size_t walk = rng->UniformInt(ref.size() + 1);
    std::vector<size_t> want_positions;
    for (size_t i = 0; i < walk; ++i) {
      if (ref.at(i).deadline.has_value()) want_positions.push_back(i);
    }
    const size_t stop = 1 + rng->UniformInt(want_positions.size() + 1);
    size_t visited = 0;
    queue.ForEachLeadingDeadline(walk, [&](const Request& r) {
      if (visited < want_positions.size()) {
        const size_t i = want_positions[visited];
        EXPECT_TRUE(SameRequest(r, ref.at(i)))
            << where << " deadline walk step " << visited;
        EXPECT_EQ(queue.PositionOf(r), i) << where << " PositionOf";
      }
      return ++visited < stop;
    });
    EXPECT_EQ(visited, std::min(want_positions.size(), stop))
        << where << " deadline walk length";

    // The Pick of every policy, on a fresh random running mix.
    std::vector<int> running(rng->UniformInt(5));
    for (int& t : running) t = static_cast<int>(rng->UniformInt(kTemplates));
    const SchedContext ctx{now, &running, &oracle_};
    for (size_t p = 0; p < policies_.size(); ++p) {
      const PolicyKind kind = AllPolicyKinds()[p];
      const StatusOr<size_t> got = policies_[p]->Pick(queue, ctx);
      const StatusOr<size_t> want = reference::Pick(kind, ref, ctx);
      EXPECT_EQ(got.ok(), want.ok()) << where << " " << PolicyKindName(kind);
      if (got.ok() && want.ok()) {
        EXPECT_EQ(*got, *want) << where << " " << PolicyKindName(kind);
        picks.push_back(*got);
        ++picks_compared_;
      }
    }
    return picks;
  }

  MixOracle oracle_;
  std::vector<std::unique_ptr<Policy>> policies_;
  size_t picks_compared_ = 0;
};

TEST_F(RequestParityTest, InterleavedOperationsMatchTheVectorQueue) {
  Rng rng(20140324);
  constexpr int kTrials = 120;
  size_t takes = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    // Sizes 1 and 4096 always; log-uniform in between otherwise.
    const int size =
        trial == 0 ? 4096
        : trial == 1
            ? 1
            : static_cast<int>(std::exp(rng.Uniform(0.0, std::log(4096.0))));
    const int num_templates =
        1 + static_cast<int>(rng.UniformInt(kTemplates));
    const double deadline_probability =
        trial % 5 == 0 ? 0.0 : rng.Uniform(0.0, 0.6);
    std::vector<Request> stream =
        MakeStream(&rng, size, num_templates, deadline_probability);
    RequestQueue queue(stream);
    reference::RequestQueue ref(std::move(stream));
    // About 64 full comparisons per trial, whatever its size.
    const double check_rate = std::min(1.0, 64.0 / size);
    std::vector<size_t> picks;
    while (!ref.empty()) {
      const std::string where = "trial " + std::to_string(trial) +
                                " size " + std::to_string(ref.size());
      if (rng.Uniform01() < check_rate) {
        picks = CheckState(queue, ref, DrawInstant(&rng, ref), &rng, where);
        if (::testing::Test::HasFailure()) return;
      }
      // Take at the head, at a policy's pick, or anywhere.
      const uint64_t kind = rng.UniformInt(3);
      size_t i = rng.UniformInt(ref.size());
      if (kind == 0) i = 0;
      if (kind == 1 && !picks.empty()) {
        i = picks[rng.UniformInt(picks.size())];
      }
      picks.clear();
      const Request got = queue.Take(i);
      const Request want = ref.Take(i);
      ASSERT_TRUE(SameRequest(got, want)) << where << " Take(" << i << ")";
      ++takes;
    }
    EXPECT_TRUE(queue.empty()) << "trial " << trial;
    EXPECT_EQ(queue.size(), 0u);
    EXPECT_EQ(queue.ArrivedBy(units::Seconds(1e9)), 0u);
    std::vector<RequestQueue::TemplateHead> heads = {{0, nullptr}};
    queue.LeadingTemplateHeads(0, &heads);
    EXPECT_TRUE(heads.empty());
  }
  // The suite must have exercised what it claims to.
  EXPECT_GT(takes, 20000u);
  EXPECT_GT(picks_compared_, 10000u);
}

// ---------------------------------------------------------------------------
// Picks under chaos.

/// Degraded (open breaker) for exactly the listed templates.
class FixedHealth : public TemplateHealth {
 public:
  explicit FixedHealth(std::vector<int> degraded)
      : degraded_(std::move(degraded)) {}
  bool Degraded(int template_index) const override {
    return std::find(degraded_.begin(), degraded_.end(), template_index) !=
           degraded_.end();
  }

 private:
  std::vector<int> degraded_;
};

/// What one Pick leaves behind in the ladder's fail points and the oracle.
struct LadderLedger {
  uint64_t full_model_hits = 0;
  uint64_t full_model_fires = 0;
  uint64_t transfer_hits = 0;
  uint64_t transfer_fires = 0;
  uint64_t evaluations = 0;
  uint64_t fallbacks = 0;
  uint64_t degradations = 0;

  bool operator==(const LadderLedger&) const = default;
};

std::ostream& operator<<(std::ostream& os, const LadderLedger& l) {
  return os << "full_model " << l.full_model_hits << "/"
            << l.full_model_fires << " transfer " << l.transfer_hits << "/"
            << l.transfer_fires << " oracle " << l.evaluations << "/"
            << l.fallbacks << "/" << l.degradations;
}

constexpr const char* kFullModelSite = "core.ladder.full_model";
constexpr const char* kTransferSite = "core.ladder.transfer";

/// How one ladder site is armed for one Pick.
struct SiteArming {
  /// 0: nth hit, 1: probability, 2: disarmed.
  int kind = 2;
  uint64_t nth = 1;
  double probability = 0.0;

  void Apply(const char* site) const {
    FailPointRegistry& registry = FailPointRegistry::Global();
    if (kind == 0) {
      registry.ArmNthHit(site, nth);
    } else if (kind == 1) {
      registry.ArmProbability(site, probability);
    } else {
      registry.Disarm(site);
    }
  }
};

SiteArming DrawArming(Rng* rng) {
  SiteArming arming;
  arming.kind = static_cast<int>(rng->UniformInt(3));
  arming.nth = 1 + rng->UniformInt(16);
  arming.probability = rng->Uniform(0.05, 0.6);
  return arming;
}

class PickChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPointRegistry::Global().DisarmAll(); }

  /// Runs one Pick with both sites armed afresh, and reports its answer
  /// and ledger; `oracle`'s counters are read as deltas.
  template <typename PickFn>
  static std::pair<StatusOr<size_t>, LadderLedger> Run(
      const SiteArming& full_model, const SiteArming& transfer,
      const MixOracle& oracle, PickFn&& pick) {
    full_model.Apply(kFullModelSite);
    transfer.Apply(kTransferSite);
    LadderLedger before;
    before.evaluations = oracle.evaluations();
    before.fallbacks = oracle.fallbacks();
    before.degradations = oracle.degradations();
    StatusOr<size_t> got = pick();
    FailPointRegistry& registry = FailPointRegistry::Global();
    LadderLedger ledger;
    ledger.full_model_hits = registry.Site(kFullModelSite).hits();
    ledger.full_model_fires = registry.Site(kFullModelSite).fires();
    ledger.transfer_hits = registry.Site(kTransferSite).hits();
    ledger.transfer_fires = registry.Site(kTransferSite).fires();
    ledger.evaluations = oracle.evaluations() - before.evaluations;
    ledger.fallbacks = oracle.fallbacks() - before.fallbacks;
    ledger.degradations = oracle.degradations() - before.degradations;
    return {std::move(got), ledger};
  }
};

TEST_F(PickChaosTest, ArmedLadderPicksMatchThePerProbeReference) {
  // Templates 4 and 11 have no QS model at any MPL, so tier 1 answers for
  // them even when nothing fires; template 7's breaker is open.
  static const ContenderPredictor* const predictor =
      new ContenderPredictor(testing::TrainWithoutModelsFor({4, 11}));
  const FixedHealth health({7});
  const MixOracle::Options oracle_options{&health};
  MixOracle oracle(predictor, oracle_options);
  MixOracle reference_oracle(predictor, oracle_options);
  const std::unique_ptr<Policy> greedy =
      MakePolicy(PolicyKind::kGreedyContention);
  const std::unique_ptr<Policy> deadline_aware =
      MakePolicy(PolicyKind::kDeadlineAware);

  FailPointRegistry::Global().SetRootSeed(20141215);
  Rng rng(2014);
  LadderLedger total;
  size_t picks = 0;
  for (const int depth : {64, 512, 4096, 97, 1500}) {
    // 13 templates, 4, 7 and 11 among them; arrivals and deadlines on
    // coarse grids, so ties are common.
    std::vector<int> pool = {4, 7, 11};
    for (int t : rng.Permutation(kTemplates)) {
      if (pool.size() < 13 && t != 4 && t != 7 && t != 11) pool.push_back(t);
    }
    const double deadline_probability =
        depth == 97 ? 0.0 : rng.Uniform(0.05, 0.6);
    const uint64_t instants = static_cast<uint64_t>(depth / 4);
    std::vector<Request> stream(static_cast<size_t>(depth));
    for (int id = 0; id < depth; ++id) {
      Request& r = stream[static_cast<size_t>(id)];
      r.request_id = id;
      r.template_index = pool[rng.UniformInt(pool.size())];
      r.arrival_time = units::Seconds(
          2.5 * static_cast<double>(rng.UniformInt(instants)));
      if (rng.Uniform01() < deadline_probability) {
        r.deadline = r.arrival_time +
                     units::Seconds(100.0 * static_cast<double>(
                                                1 + rng.UniformInt(40)));
      }
    }
    RequestQueue queue(stream);
    reference::RequestQueue ref(std::move(stream));
    for (int step = 0; step < 48; ++step) {
      const units::Seconds now = DrawInstant(&rng, ref);
      if (queue.ArrivedBy(now) == 0) continue;
      // 0-4 co-runners from the whole workload, repeats allowed: MPL 1-5.
      std::vector<int> running;
      const uint64_t corunners = rng.UniformInt(5);
      for (uint64_t i = 0; i < corunners; ++i) {
        running.push_back(i > 0 && rng.Uniform01() < 0.3
                              ? running.back()
                              : static_cast<int>(rng.UniformInt(kTemplates)));
      }
      const SchedContext ctx{now, &running, &oracle};
      const SchedContext ref_ctx{now, &running, &reference_oracle};
      for (const PolicyKind kind : {PolicyKind::kGreedyContention,
                                    PolicyKind::kDeadlineAware}) {
        Policy& policy =
            kind == PolicyKind::kGreedyContention ? *greedy : *deadline_aware;
        const SiteArming full_model = DrawArming(&rng);
        const SiteArming transfer = DrawArming(&rng);
        const auto [got, got_ledger] =
            Run(full_model, transfer, oracle,
                [&] { return policy.Pick(queue, ctx); });
        const auto [want, want_ledger] =
            Run(full_model, transfer, reference_oracle,
                [&] { return reference::Pick(kind, ref, ref_ctx); });
        const std::string where = "depth " + std::to_string(depth) +
                                  " step " + std::to_string(step) + " " +
                                  PolicyKindName(kind);
        ASSERT_TRUE(got.ok()) << where << ": " << got.status();
        ASSERT_TRUE(want.ok()) << where << ": " << want.status();
        EXPECT_EQ(*got, *want) << where;
        EXPECT_EQ(got_ledger, want_ledger) << where;
        total.full_model_fires += got_ledger.full_model_fires;
        total.transfer_fires += got_ledger.transfer_fires;
        total.fallbacks += got_ledger.fallbacks;
        total.degradations += got_ledger.degradations;
        ++picks;
      }
      FailPointRegistry::Global().DisarmAll();
      // Take the greedy pick, to move the heads.
      const StatusOr<size_t> take = greedy->Pick(queue, ctx);
      ASSERT_TRUE(take.ok()) << take.status();
      ASSERT_TRUE(SameRequest(queue.Take(*take), ref.Take(*take)));
      if (ref.empty()) break;
    }
  }
  // The suite must have exercised what it claims to.
  EXPECT_GT(picks, 300u);
  EXPECT_GT(total.full_model_fires, 50u);
  EXPECT_GT(total.transfer_fires, 50u);
  EXPECT_GT(total.fallbacks, 100u);
  EXPECT_GT(total.degradations, 50u);
}

}  // namespace
}  // namespace contender::sched
