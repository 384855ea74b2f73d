#include "sched/policy.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "test_support.h"

namespace contender::sched {
namespace {

using contender::testing::SharedPredictor;

Request MakeRequest(int id, int template_index, double arrival,
                    std::optional<double> deadline = std::nullopt) {
  Request r;
  r.request_id = id;
  r.template_index = template_index;
  r.arrival_time = units::Seconds(arrival);
  if (deadline.has_value()) r.deadline = units::Seconds(*deadline);
  return r;
}

SchedContext MakeContext(MixOracle* oracle,
                         const std::vector<int>* running, double now) {
  SchedContext ctx;
  ctx.now = units::Seconds(now);
  ctx.running_templates = running;
  ctx.oracle = oracle;
  return ctx;
}

TEST(PolicyTest, FactoryCoversAllKinds) {
  EXPECT_EQ(AllPolicyKinds().size(), 4u);
  EXPECT_EQ(PolicyKindName(PolicyKind::kFifo), "fifo");
  EXPECT_EQ(PolicyKindName(PolicyKind::kShortestIsolatedFirst),
            "shortest-isolated");
  EXPECT_EQ(PolicyKindName(PolicyKind::kGreedyContention),
            "greedy-contention");
  EXPECT_EQ(PolicyKindName(PolicyKind::kDeadlineAware), "deadline-aware");
  for (PolicyKind kind : AllPolicyKinds()) {
    EXPECT_NE(MakePolicy(kind), nullptr);
  }
}

TEST(PolicyTest, RejectsIncompleteContextAndEmptyPrefix) {
  MixOracle oracle(&SharedPredictor());
  const std::vector<int> running;
  RequestQueue queue({MakeRequest(0, 0, 50.0)});
  for (PolicyKind kind : AllPolicyKinds()) {
    auto policy = MakePolicy(kind);
    SchedContext no_oracle = MakeContext(nullptr, &running, 100.0);
    EXPECT_FALSE(policy->Pick(queue, no_oracle).ok());
    // t=0 precedes the only arrival: the admissible prefix is empty.
    SchedContext too_early = MakeContext(&oracle, &running, 0.0);
    EXPECT_FALSE(policy->Pick(queue, too_early).ok());
  }
}

TEST(PolicyTest, FifoPicksHeadOfQueue) {
  MixOracle oracle(&SharedPredictor());
  const std::vector<int> running = {3};
  RequestQueue queue({MakeRequest(0, 5, 0.0), MakeRequest(1, 2, 1.0),
                      MakeRequest(2, 8, 2.0)});
  auto policy = MakePolicy(PolicyKind::kFifo);
  auto pick = policy->Pick(queue, MakeContext(&oracle, &running, 10.0));
  ASSERT_TRUE(pick.ok());
  EXPECT_EQ(*pick, 0u);
}

TEST(PolicyTest, TiedScoresBreakToEarliestQueuePosition) {
  MixOracle oracle(&SharedPredictor());
  const std::vector<int> running = {3};
  // Identical template => identical score under every scoring policy; the
  // earliest queue position must win deterministically.
  RequestQueue queue({MakeRequest(0, 4, 0.0), MakeRequest(1, 4, 1.0),
                      MakeRequest(2, 4, 2.0)});
  for (PolicyKind kind : AllPolicyKinds()) {
    auto policy = MakePolicy(kind);
    auto pick = policy->Pick(queue, MakeContext(&oracle, &running, 10.0));
    ASSERT_TRUE(pick.ok());
    EXPECT_EQ(*pick, 0u) << PolicyKindName(kind);
  }
}

TEST(PolicyTest, ShortestIsolatedPrefersFastestTemplate) {
  MixOracle oracle(&SharedPredictor());
  const std::vector<int> running;
  // Find the workload's fastest and slowest templates by isolated latency.
  int fastest = 0, slowest = 0;
  for (int t = 1; t < oracle.num_templates(); ++t) {
    if (oracle.IsolatedLatency(t) < oracle.IsolatedLatency(fastest)) {
      fastest = t;
    }
    if (oracle.IsolatedLatency(t) > oracle.IsolatedLatency(slowest)) {
      slowest = t;
    }
  }
  ASSERT_NE(fastest, slowest);
  RequestQueue queue({MakeRequest(0, slowest, 0.0),
                      MakeRequest(1, fastest, 1.0)});
  auto policy = MakePolicy(PolicyKind::kShortestIsolatedFirst);
  auto pick = policy->Pick(queue, MakeContext(&oracle, &running, 10.0));
  ASSERT_TRUE(pick.ok());
  EXPECT_EQ(queue.at(*pick).template_index, fastest);
}

TEST(PolicyTest, DeadlineAwareDegradesToGreedyWithoutDeadlines) {
  MixOracle oracle(&SharedPredictor());
  auto greedy = MakePolicy(PolicyKind::kGreedyContention);
  auto deadline = MakePolicy(PolicyKind::kDeadlineAware);
  const int n = oracle.num_templates();
  for (int shift = 0; shift < n; ++shift) {
    const std::vector<int> running = {shift, (shift + 4) % n};
    RequestQueue queue({MakeRequest(0, (shift + 1) % n, 0.0),
                        MakeRequest(1, (shift + 9) % n, 1.0),
                        MakeRequest(2, (shift + 17) % n, 2.0)});
    const SchedContext ctx = MakeContext(&oracle, &running, 10.0);
    auto g = greedy->Pick(queue, ctx);
    auto d = deadline->Pick(queue, ctx);
    ASSERT_TRUE(g.ok());
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(*d, *g) << "mix shift " << shift;
  }
}

// A controllable health signal (mirrors serve::HealthTracker's shape).
class StubHealth : public TemplateHealth {
 public:
  bool Degraded(int template_index) const override {
    for (int d : degraded) {
      if (d == template_index) return true;
    }
    return false;
  }
  std::vector<int> degraded;
};

TEST(PolicyTest, OpenBreakerDropsScoringPoliciesToShortestIsolated) {
  StubHealth health;
  MixOracle::Options options;
  options.health = &health;
  MixOracle oracle(&SharedPredictor(), options);
  auto shortest = MakePolicy(PolicyKind::kShortestIsolatedFirst);
  const int n = oracle.num_templates();
  for (PolicyKind kind :
       {PolicyKind::kGreedyContention, PolicyKind::kDeadlineAware}) {
    auto policy = MakePolicy(kind);
    for (int shift = 0; shift < n; ++shift) {
      const std::vector<int> running = {shift, (shift + 4) % n};
      RequestQueue queue({MakeRequest(0, (shift + 1) % n, 0.0, 500.0),
                          MakeRequest(1, (shift + 9) % n, 1.0),
                          MakeRequest(2, (shift + 17) % n, 2.0)});
      const SchedContext ctx = MakeContext(&oracle, &running, 10.0);

      // Degrade a template in the running mix: every contention score
      // would consult its garbage model, so the policy must fall back to
      // the same pick shortest-isolated makes.
      health.degraded = {shift};
      auto degraded_pick = policy->Pick(queue, ctx);
      auto expected = shortest->Pick(queue, ctx);
      ASSERT_TRUE(degraded_pick.ok());
      ASSERT_TRUE(expected.ok());
      EXPECT_EQ(*degraded_pick, *expected)
          << PolicyKindName(kind) << " shift " << shift;

      // Degrading a queued candidate (not in the mix) also forces the
      // fallback — its own in-mix score is untrustworthy.
      health.degraded = {(shift + 9) % n};
      degraded_pick = policy->Pick(queue, ctx);
      ASSERT_TRUE(degraded_pick.ok());
      EXPECT_EQ(*degraded_pick, *expected)
          << PolicyKindName(kind) << " candidate shift " << shift;

      health.degraded = {};
    }
  }
}

TEST(PolicyTest, HealthySignalLeavesPicksUnchanged) {
  StubHealth health;
  MixOracle::Options with_health;
  with_health.health = &health;
  MixOracle tracked(&SharedPredictor(), with_health);
  MixOracle plain(&SharedPredictor());
  const int n = plain.num_templates();
  for (PolicyKind kind : AllPolicyKinds()) {
    auto policy = MakePolicy(kind);
    for (int shift = 0; shift < n; shift += 5) {
      const std::vector<int> running = {(shift + 2) % n};
      RequestQueue queue({MakeRequest(0, (shift + 1) % n, 0.0),
                          MakeRequest(1, (shift + 9) % n, 1.0)});
      auto a = policy->Pick(queue, MakeContext(&tracked, &running, 10.0));
      auto b = policy->Pick(queue, MakeContext(&plain, &running, 10.0));
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(*a, *b) << PolicyKindName(kind) << " shift " << shift;
    }
  }
}

TEST(PolicyTest, DeadlineAwareProtectsTightestSlack) {
  MixOracle oracle(&SharedPredictor());
  const std::vector<int> running;
  // Request 1 has far less slack than request 0; request 2 is best-effort
  // and must rank last regardless of its score.
  RequestQueue queue({MakeRequest(0, 2, 0.0, 1e6),
                      MakeRequest(1, 2, 1.0, 500.0),
                      MakeRequest(2, 2, 2.0)});
  auto policy = MakePolicy(PolicyKind::kDeadlineAware);
  auto pick = policy->Pick(queue, MakeContext(&oracle, &running, 10.0));
  ASSERT_TRUE(pick.ok());
  EXPECT_EQ(queue.at(*pick).request_id, 1);
}

// The per-request scan the scoring policies are defined by: every arrived
// request scored on its own, the earliest position taking ties.
size_t PerRequestPick(PolicyKind kind, const RequestQueue& queue,
                      const SchedContext& ctx) {
  const MixOracle& oracle = *ctx.oracle;
  const size_t arrived = queue.ArrivedBy(ctx.now);
  const auto arg_min = [&](const auto& score) {
    size_t best = 0;
    for (size_t i = 1; i < arrived; ++i) {
      if (score(i) < score(best)) best = i;
    }
    return best;
  };
  const auto isolated = [&](size_t i) {
    return oracle.IsolatedLatency(queue.at(i).template_index).value();
  };
  const auto greedy = [&](size_t i) {
    const int t = queue.at(i).template_index;
    return oracle.PredictInMix(t, *ctx.running_templates).value() /
           oracle.IsolatedLatency(t).value();
  };
  const auto slack = [&](size_t i) {
    const Request& r = queue.at(i);
    if (!r.deadline.has_value()) {
      return std::numeric_limits<double>::infinity();
    }
    return (*r.deadline - ctx.now -
            oracle.PredictInMix(r.template_index, *ctx.running_templates))
        .value();
  };
  switch (kind) {
    case PolicyKind::kFifo:
      return 0;
    case PolicyKind::kShortestIsolatedFirst:
      return arg_min(isolated);
    case PolicyKind::kGreedyContention:
      return arg_min(greedy);
    case PolicyKind::kDeadlineAware:
      for (size_t i = 0; i < arrived; ++i) {
        if (queue.at(i).deadline.has_value()) return arg_min(slack);
      }
      return arg_min(greedy);
  }
  return 0;
}

TEST(PolicyTest, PerTemplateScoringMatchesPerRequestScan) {
  MixOracle oracle(&SharedPredictor());
  const int n = oracle.num_templates();
  Rng rng(2014);
  for (int trial = 0; trial < 300; ++trial) {
    // Few distinct templates over many requests, so repeats and exact ties
    // between requests are the common case.
    std::vector<int> pool(1 + rng.UniformInt(6));
    for (int& t : pool) t = static_cast<int>(rng.UniformInt(n));
    std::vector<Request> requests;
    const int size = 1 + static_cast<int>(rng.UniformInt(60));
    for (int id = 0; id < size; ++id) {
      const int t = pool[rng.UniformInt(pool.size())];
      const double arrival = rng.Uniform(0.0, 100.0);
      std::optional<double> deadline;
      if (rng.Uniform01() < 0.3) deadline = arrival + rng.Uniform(0.0, 3e3);
      requests.push_back(MakeRequest(id, t, arrival, deadline));
    }
    RequestQueue queue(std::move(requests));
    std::vector<int> running(rng.UniformInt(4));
    for (int& t : running) t = static_cast<int>(rng.UniformInt(n));
    const double now = std::max(queue.at(0).arrival_time.value(),
                                rng.Uniform(0.0, 120.0));
    const SchedContext ctx = MakeContext(&oracle, &running, now);
    for (PolicyKind kind : AllPolicyKinds()) {
      auto pick = MakePolicy(kind)->Pick(queue, ctx);
      ASSERT_TRUE(pick.ok()) << pick.status();
      EXPECT_EQ(*pick, PerRequestPick(kind, queue, ctx))
          << PolicyKindName(kind) << " trial " << trial;
    }
  }
}

TEST(PolicyTest, ScoringPoliciesProbeEachDistinctTemplateOnce) {
  const std::vector<int> running = {3, 7};
  std::vector<Request> requests;
  for (int id = 0; id < 60; ++id) {
    requests.push_back(MakeRequest(id, 2 + 4 * (id % 3), 0.1 * id, 5e3));
  }
  const RequestQueue queue(std::move(requests));
  for (PolicyKind kind :
       {PolicyKind::kGreedyContention, PolicyKind::kDeadlineAware}) {
    MixOracle oracle(&SharedPredictor());
    auto pick = MakePolicy(kind)->Pick(queue,
                                       MakeContext(&oracle, &running, 10.0));
    ASSERT_TRUE(pick.ok()) << pick.status();
    // 60 queued requests, 3 distinct templates: 3 oracle evaluations.
    EXPECT_EQ(oracle.evaluations(), 3u) << PolicyKindName(kind);
  }
}

}  // namespace
}  // namespace contender::sched
