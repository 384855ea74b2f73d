#include "fleet/router.h"

#include <gtest/gtest.h>

#include <vector>

#include "sched/mix_oracle.h"
#include "test_support.h"
#include "util/failpoint.h"

namespace contender::fleet {
namespace {

using contender::testing::SharedPredictor;

sched::Request MakeRequest(int id, int template_index, double arrival,
                           int tenant = 0) {
  sched::Request r;
  r.request_id = id;
  r.template_index = template_index;
  r.tenant_id = tenant;
  r.arrival_time = units::Seconds(arrival);
  return r;
}

/// Marks a fixed template set degraded (breaker open).
class FakeHealth : public sched::TemplateHealth {
 public:
  explicit FakeHealth(std::vector<int> degraded)
      : degraded_(std::move(degraded)) {}
  bool Degraded(int template_index) const override {
    for (int t : degraded_) {
      if (t == template_index) return true;
    }
    return false;
  }

 private:
  const std::vector<int> degraded_;
};

TEST(RouterTest, RoundRobinCyclesOverNodes) {
  sched::MixOracle oracle(&SharedPredictor());
  RouterOptions options;
  options.num_nodes = 3;
  options.policy = RoutePolicy::kRoundRobin;
  Router router(&oracle, options);
  for (int i = 0; i < 9; ++i) {
    auto node = router.Route(MakeRequest(i, 0, 0.0));
    ASSERT_TRUE(node.ok()) << node.status();
    EXPECT_EQ(*node, i % 3);
  }
  EXPECT_EQ(router.stats().routed, 9u);
  EXPECT_EQ(router.stats().rejected, 0u);
}

TEST(RouterTest, RejectsNonDenseIdsAndTimeTravel) {
  sched::MixOracle oracle(&SharedPredictor());
  Router router(&oracle, RouterOptions{});
  ASSERT_TRUE(router.Route(MakeRequest(0, 0, 10.0)).ok());
  EXPECT_FALSE(router.Route(MakeRequest(5, 0, 11.0)).ok());  // gap in ids
  EXPECT_FALSE(router.Route(MakeRequest(1, 0, 9.0)).ok());   // backwards
  ASSERT_TRUE(router.Route(MakeRequest(1, 0, 10.0)).ok());   // ties are fine
}

// An unknown template is rejected before any state is touched (the
// placement would index the profiles with it), under every policy and
// with the door's memory signal on; the same id then routes normally.
TEST(RouterTest, RejectsOutOfRangeTemplateIndexUnderEveryPolicy) {
  sched::MixOracle oracle(&SharedPredictor());
  const int n = oracle.num_templates();
  for (RoutePolicy policy : AllRoutePolicies()) {
    for (bool memory_door : {false, true}) {
      SCOPED_TRACE(RoutePolicyName(policy) +
                   (memory_door ? " + memory door" : ""));
      RouterOptions options;
      options.num_nodes = 2;
      options.policy = policy;
      options.door.enabled = memory_door;
      options.door.node_memory_budget =
          units::Bytes(memory_door ? 6e9 : 0.0);
      Router router(&oracle, options);
      ASSERT_TRUE(router.Route(MakeRequest(0, 1, 5.0)).ok());
      for (int bad : {-1, n}) {
        auto routed = router.Route(MakeRequest(1, bad, 6.0));
        EXPECT_EQ(routed.status().code(), StatusCode::kInvalidArgument)
            << bad;
      }
      EXPECT_EQ(router.assignments().size(), 1u);
      EXPECT_EQ(router.stats().routed, 1u);
      auto valid = router.Route(MakeRequest(1, n - 1, 6.0));
      ASSERT_TRUE(valid.ok()) << valid.status();
      EXPECT_EQ(router.assignments().size(), 2u);
    }
  }
}

TEST(RouterTest, ContentionAwareSpreadsLoadOffBusyNodes) {
  sched::MixOracle oracle(&SharedPredictor());
  RouterOptions options;
  options.num_nodes = 2;
  options.policy = RoutePolicy::kContentionAware;
  Router router(&oracle, options);
  // Simultaneous arrivals: each placement inflates the predicted slowdown
  // of the node it lands on, so the next request prefers the other node.
  auto first = router.Route(MakeRequest(0, 2, 0.0));
  auto second = router.Route(MakeRequest(1, 2, 0.0));
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_NE(*first, *second);
}

TEST(RouterTest, LeastLoadedPicksTheEmptiestNode) {
  sched::MixOracle oracle(&SharedPredictor());
  RouterOptions options;
  options.num_nodes = 3;
  options.policy = RoutePolicy::kLeastLoaded;
  Router router(&oracle, options);
  ASSERT_TRUE(router.Route(MakeRequest(0, 0, 0.0)).ok());
  ASSERT_TRUE(router.Route(MakeRequest(1, 0, 0.0)).ok());
  ASSERT_TRUE(router.Route(MakeRequest(2, 0, 0.0)).ok());
  // All nodes hold one outstanding request; the tie resolves to node 0.
  auto fourth = router.Route(MakeRequest(3, 0, 0.0));
  ASSERT_TRUE(fourth.ok()) << fourth.status();
  EXPECT_EQ(*fourth, 0);
  EXPECT_EQ(router.Outstanding(0), 2);
}

TEST(RouterTest, TenantQuotaRejectsAtTheDoor) {
  sched::MixOracle oracle(&SharedPredictor());
  RouterOptions options;
  options.num_nodes = 2;
  options.tenant_quota = 2;
  Router router(&oracle, options);
  ASSERT_TRUE(router.Route(MakeRequest(0, 0, 0.0, /*tenant=*/1)).ok());
  ASSERT_TRUE(router.Route(MakeRequest(1, 0, 0.0, /*tenant=*/1)).ok());
  auto over = router.Route(MakeRequest(2, 0, 0.0, /*tenant=*/1));
  ASSERT_TRUE(over.ok()) << over.status();
  EXPECT_EQ(*over, -1);
  EXPECT_TRUE(router.assignments()[2].rejected);
  // A different tenant is unaffected.
  auto other = router.Route(MakeRequest(3, 0, 0.0, /*tenant=*/2));
  ASSERT_TRUE(other.ok()) << other.status();
  EXPECT_GE(*other, 0);
  EXPECT_EQ(router.stats().rejected, 1u);
  EXPECT_EQ(router.stats().routed, 3u);
}

TEST(RouterTest, DrainFailsOverPredictedBacklog) {
  sched::MixOracle oracle(&SharedPredictor());
  RouterOptions options;
  options.num_nodes = 2;
  options.target_mpl = 2;
  options.policy = RoutePolicy::kRoundRobin;
  Router router(&oracle, options);
  // Six simultaneous arrivals round-robin to 3 per node: 2 predicted
  // running + 1 backlogged each.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(router.Route(MakeRequest(i, 1, 0.0)).ok());
  }
  ASSERT_EQ(router.Outstanding(0), 3);
  ASSERT_EQ(router.Outstanding(1), 3);

  // Node 0's backlog holds request 4 (ids 0, 2, 4 landed there).
  ASSERT_TRUE(router.BeginDrain(0, units::Seconds(1.0)).ok());
  EXPECT_TRUE(router.draining(0));
  const Assignment& moved = router.assignments()[4];
  EXPECT_EQ(moved.node, 1);
  EXPECT_TRUE(moved.failed_over);
  EXPECT_EQ(moved.effective_arrival, units::Seconds(1.0));
  // Predicted-running queries stay on the draining node.
  EXPECT_EQ(router.assignments()[0].node, 0);
  EXPECT_FALSE(router.assignments()[0].failed_over);
  EXPECT_EQ(router.Outstanding(0), 2);
  EXPECT_EQ(router.Outstanding(1), 4);
  EXPECT_EQ(router.stats().failovers, 1u);
  ASSERT_EQ(router.stats().drains.size(), 1u);
  EXPECT_EQ(router.stats().drains[0].failovers, 1);

  // New arrivals only go to the healthy node; draining again is a no-op
  // and draining the last healthy node is refused.
  auto next = router.Route(MakeRequest(6, 1, 2.0));
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(*next, 1);
  EXPECT_TRUE(router.BeginDrain(0, units::Seconds(3.0)).ok());
  EXPECT_EQ(router.stats().drains.size(), 1u);
  EXPECT_EQ(router.BeginDrain(1, units::Seconds(3.0)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(router.BeginDrain(7, units::Seconds(3.0)).ok());
}

TEST(RouterTest, DrainAdvancesEveryNodeBeforeFailingOver) {
  // Node 0 runs the slowest template, node 1 the fastest; one more request
  // waits in node 0's backlog (MPL 1).
  const std::vector<TemplateProfile>& profiles = SharedPredictor().profiles();
  int slowest = 0;
  int fastest = 0;
  for (int t = 0; t < static_cast<int>(profiles.size()); ++t) {
    const auto idx = static_cast<size_t>(t);
    if (profiles[idx].isolated_latency >
        profiles[static_cast<size_t>(slowest)].isolated_latency) {
      slowest = t;
    }
    if (profiles[idx].isolated_latency <
        profiles[static_cast<size_t>(fastest)].isolated_latency) {
      fastest = t;
    }
  }
  const double fast = profiles[static_cast<size_t>(fastest)]
                          .isolated_latency.value();
  const double slow = profiles[static_cast<size_t>(slowest)]
                          .isolated_latency.value();
  ASSERT_LT(fast, slow);

  sched::MixOracle oracle(&SharedPredictor());
  RouterOptions options;
  options.num_nodes = 2;
  options.target_mpl = 1;
  options.policy = RoutePolicy::kRoundRobin;
  Router router(&oracle, options);
  ASSERT_TRUE(router.Route(MakeRequest(0, slowest, 0.0)).ok());  // node 0
  ASSERT_TRUE(router.Route(MakeRequest(1, fastest, 0.0)).ok());  // node 1
  ASSERT_TRUE(router.Route(MakeRequest(2, fastest, 0.0)).ok());  // backlog
  ASSERT_EQ(router.Outstanding(0), 2);
  ASSERT_EQ(router.Outstanding(1), 1);

  // Drain node 0 after node 1's query is predicted done but before node
  // 0's is. The failover must start on node 1's free slot, not queue
  // behind a completion that has already passed.
  const double drain_at = 0.5 * (fast + slow);
  ASSERT_TRUE(router.BeginDrain(0, units::Seconds(drain_at)).ok());
  EXPECT_EQ(router.assignments()[2].node, 1);
  EXPECT_TRUE(router.assignments()[2].failed_over);
  EXPECT_EQ(router.Outstanding(0), 1);
  EXPECT_EQ(router.Outstanding(1), 1);
  EXPECT_EQ(router.predicted_completions(), 1u);

  // The drain instant is the routing clock now: neither an arrival nor a
  // drain may go back before it.
  EXPECT_EQ(router.Route(MakeRequest(3, fastest, drain_at - 1.0))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(router.Route(MakeRequest(3, fastest, drain_at)).ok());
  EXPECT_EQ(router.BeginDrain(1, units::Seconds(drain_at - 1.0)).code(),
            StatusCode::kInvalidArgument);
}

TEST(RouterTest, FirstDrainStartsTheRoutingClock) {
  sched::MixOracle oracle(&SharedPredictor());
  RouterOptions options;
  options.num_nodes = 3;
  Router router(&oracle, options);
  // Nothing is routed yet, so the drain alone starts the clock: the node
  // states now stand at 100 s, and neither a drain nor an arrival may be
  // placed before that.
  ASSERT_TRUE(router.BeginDrain(0, units::Seconds(100.0)).ok());
  EXPECT_EQ(router.BeginDrain(1, units::Seconds(50.0)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(router.draining(1));
  EXPECT_EQ(router.Route(MakeRequest(0, 0, 50.0)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(router.assignments().empty());
  auto on_time = router.Route(MakeRequest(0, 0, 100.0));
  ASSERT_TRUE(on_time.ok()) << on_time.status();
  EXPECT_NE(*on_time, 0);
}

TEST(RouterTest, DegradedTemplateDescendsTheLadder) {
  FakeHealth health({3});
  sched::MixOracle::Options oracle_options;
  oracle_options.health = &health;
  sched::MixOracle oracle(&SharedPredictor(), oracle_options);
  RouterOptions options;
  options.num_nodes = 2;
  options.policy = RoutePolicy::kContentionAware;
  Router router(&oracle, options);
  auto node = router.Route(MakeRequest(0, 3, 0.0));
  ASSERT_TRUE(node.ok()) << node.status();
  EXPECT_TRUE(router.assignments()[0].degraded);
  EXPECT_EQ(router.stats().degraded_routes, 1u);
  // A healthy template joining a mix that contains the degraded one is
  // scored on its own full model (a co-runner contributes its profile,
  // never its QS model), so its route is not degraded.
  auto second = router.Route(MakeRequest(1, 2, 0.0));
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_FALSE(router.assignments()[1].degraded);
  EXPECT_EQ(router.stats().degraded_routes, 1u);
}

TEST(RouterTest, ChaosDrainReplaysBitExactly) {
  auto run = [] {
    sched::MixOracle oracle(&SharedPredictor());
    RouterOptions options;
    options.num_nodes = 4;
    options.policy = RoutePolicy::kContentionAware;
    Router router(&oracle, options);
    for (int i = 0; i < 40; ++i) {
      auto node = router.Route(MakeRequest(i, i % 5, 0.5 * i));
      CONTENDER_CHECK(node.ok()) << node.status();
    }
    return std::make_pair(std::vector<Assignment>(router.assignments()),
                          router.stats().drains);
  };

  auto& registry = FailPointRegistry::Global();
  registry.SetRootSeed(42);
  registry.ArmProbability("fleet.node.drain", 0.25);
  auto first = run();
  // Re-arming with the same root seed resets the evaluation counter, so
  // the fired subset — and every downstream failover — replays exactly.
  registry.SetRootSeed(42);
  registry.ArmProbability("fleet.node.drain", 0.25);
  auto second = run();
  registry.Disarm("fleet.node.drain");

  ASSERT_FALSE(first.second.empty()) << "chaos drain never fired";
  ASSERT_EQ(first.second.size(), second.second.size());
  for (size_t i = 0; i < first.second.size(); ++i) {
    EXPECT_EQ(first.second[i].node, second.second[i].node);
    EXPECT_EQ(first.second[i].time, second.second[i].time);
    EXPECT_EQ(first.second[i].failovers, second.second[i].failovers);
  }
  ASSERT_EQ(first.first.size(), second.first.size());
  for (size_t i = 0; i < first.first.size(); ++i) {
    EXPECT_EQ(first.first[i].node, second.first[i].node);
    EXPECT_EQ(first.first[i].failed_over, second.first[i].failed_over);
    EXPECT_EQ(first.first[i].effective_arrival,
              second.first[i].effective_arrival);
  }
}

}  // namespace
}  // namespace contender::fleet
