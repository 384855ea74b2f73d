#include "sched/request.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "scenario/scenario.h"
#include "util/statusor.h"
#include "util/units.h"

namespace contender::sched {
namespace {

// The single-node request stream the scheduler consumes: poisson-steady's
// GenerateTrace. The suite keeps the name of the sched entry point that
// drew this stream before the scenario module owned it.
scenario::ScenarioParams SmallStream() {
  scenario::ScenarioParams params;
  params.num_requests = 64;
  params.mean_interarrival = units::Seconds(10.0);
  params.deadline_probability = 0.5;
  params.min_slack = 2.0;
  params.max_slack = 5.0;
  params.seed = 7;
  return params;
}

std::vector<units::Seconds> Reference() {
  return {units::Seconds(30.0), units::Seconds(60.0), units::Seconds(90.0)};
}

StatusOr<scenario::ScenarioTrace> Generate(
    const std::vector<units::Seconds>& ref,
    const scenario::ScenarioParams& params) {
  return scenario::FindScenario(scenario::kPoissonSteadyName)
      ->GenerateTrace(ref, params);
}

// Unwraps a stream the test expects to be well-formed.
std::vector<Request> MustGenerate(const std::vector<units::Seconds>& ref,
                                  const scenario::ScenarioParams& params) {
  auto trace = Generate(ref, params);
  EXPECT_TRUE(trace.ok()) << trace.status();
  return std::move(trace->requests);
}

TEST(GenerateArrivalsTest, RejectsNonPositiveArrivalRate) {
  scenario::ScenarioParams params = SmallStream();
  params.mean_interarrival = units::Seconds(0.0);
  auto zero = Generate(Reference(), params);
  ASSERT_FALSE(zero.ok());
  EXPECT_EQ(zero.status().code(), StatusCode::kInvalidArgument);

  params.mean_interarrival = units::Seconds(-3.0);
  auto negative = Generate(Reference(), params);
  ASSERT_FALSE(negative.ok());
  EXPECT_EQ(negative.status().code(), StatusCode::kInvalidArgument);
}

TEST(GenerateArrivalsTest, RejectsMalformedOptions) {
  auto no_templates = Generate({}, SmallStream());
  ASSERT_FALSE(no_templates.ok());
  EXPECT_EQ(no_templates.status().code(), StatusCode::kInvalidArgument);

  scenario::ScenarioParams negative_count = SmallStream();
  negative_count.num_requests = -1;
  EXPECT_FALSE(Generate(Reference(), negative_count).ok());

  scenario::ScenarioParams bad_probability = SmallStream();
  bad_probability.deadline_probability = 1.5;
  EXPECT_FALSE(Generate(Reference(), bad_probability).ok());

  scenario::ScenarioParams inverted_slack = SmallStream();
  inverted_slack.min_slack = 5.0;
  inverted_slack.max_slack = 2.0;
  EXPECT_FALSE(Generate(Reference(), inverted_slack).ok());
}

TEST(GenerateArrivalsTest, StreamShapeInvariants) {
  const auto reference = Reference();
  const auto requests = MustGenerate(reference, SmallStream());
  ASSERT_EQ(requests.size(), 64u);
  EXPECT_EQ(requests.front().arrival_time, units::Seconds(0.0));
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(requests[i].request_id, static_cast<int>(i));
    EXPECT_GE(requests[i].template_index, 0);
    EXPECT_LT(requests[i].template_index,
              static_cast<int>(reference.size()));
    if (i > 0) {
      EXPECT_GE(requests[i].arrival_time, requests[i - 1].arrival_time);
    }
  }
}

TEST(GenerateArrivalsTest, DeadlineSlackWithinConfiguredBand) {
  scenario::ScenarioParams params = SmallStream();
  params.deadline_probability = 1.0;
  const auto reference = Reference();
  const auto requests = MustGenerate(reference, params);
  for (const Request& r : requests) {
    ASSERT_TRUE(r.deadline.has_value());
    const double slack =
        (*r.deadline - r.arrival_time).value() /
        reference[static_cast<size_t>(r.template_index)].value();
    EXPECT_GE(slack, params.min_slack);
    EXPECT_LT(slack, params.max_slack);
  }
}

TEST(GenerateArrivalsTest, ZeroProbabilityMeansBestEffortOnly) {
  scenario::ScenarioParams params = SmallStream();
  params.deadline_probability = 0.0;
  for (const Request& r : MustGenerate(Reference(), params)) {
    EXPECT_FALSE(r.deadline.has_value());
  }
}

Request MakeRequest(int id, double arrival, int template_index = 0) {
  Request r;
  r.request_id = id;
  r.template_index = template_index;
  r.arrival_time = units::Seconds(arrival);
  return r;
}

TEST(RequestQueueTest, SortsByArrivalThenId) {
  RequestQueue queue({MakeRequest(2, 5.0), MakeRequest(0, 9.0),
                      MakeRequest(1, 5.0)});
  ASSERT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.at(0).request_id, 1);  // t=5, lower id first
  EXPECT_EQ(queue.at(1).request_id, 2);  // t=5
  EXPECT_EQ(queue.at(2).request_id, 0);  // t=9
}

TEST(RequestQueueTest, ArrivedByIsTheAdmissiblePrefix) {
  RequestQueue queue({MakeRequest(0, 0.0), MakeRequest(1, 4.0),
                      MakeRequest(2, 8.0)});
  EXPECT_EQ(queue.ArrivedBy(units::Seconds(-1.0)), 0u);
  EXPECT_EQ(queue.ArrivedBy(units::Seconds(0.0)), 1u);
  EXPECT_EQ(queue.ArrivedBy(units::Seconds(4.0)), 2u);
  EXPECT_EQ(queue.ArrivedBy(units::Seconds(100.0)), 3u);
  EXPECT_EQ(queue.NextArrival(), units::Seconds(0.0));
}

TEST(RequestQueueTest, TakeRemovesExactlyOnePosition) {
  RequestQueue queue({MakeRequest(0, 0.0), MakeRequest(1, 4.0),
                      MakeRequest(2, 8.0)});
  const Request taken = queue.Take(1);
  EXPECT_EQ(taken.request_id, 1);
  ASSERT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.at(0).request_id, 0);
  EXPECT_EQ(queue.at(1).request_id, 2);
}

TEST(RequestQueueTest, TemplateHeadsFollowTakes) {
  // Queue order: ids 0..5; templates 3, 1, 3, 1, 0, 3.
  RequestQueue queue({MakeRequest(0, 0.0, 3), MakeRequest(1, 1.0, 1),
                      MakeRequest(2, 2.0, 3), MakeRequest(3, 3.0, 1),
                      MakeRequest(4, 4.0, 0), MakeRequest(5, 5.0, 3)});
  const auto heads_of = [&](size_t count) {
    std::vector<std::pair<int, size_t>> out;
    for (const auto& h : queue.LeadingTemplateHeads(count)) {
      out.emplace_back(h.template_index, h.position);
    }
    return out;
  };
  using Heads = std::vector<std::pair<int, size_t>>;
  EXPECT_EQ(heads_of(0), Heads{});
  EXPECT_EQ(heads_of(4), (Heads{{3, 0}, {1, 1}}));
  EXPECT_EQ(heads_of(6), (Heads{{3, 0}, {1, 1}, {0, 4}}));

  // A non-head take of template 3 (id 2) leaves its head in place; taking
  // the head (id 0) then skips the taken id 2 and lands on id 5.
  EXPECT_EQ(queue.Take(2).request_id, 2);
  EXPECT_EQ(heads_of(5), (Heads{{3, 0}, {1, 1}, {0, 3}}));
  EXPECT_EQ(queue.Take(0).request_id, 0);
  EXPECT_EQ(heads_of(4), (Heads{{1, 0}, {0, 2}, {3, 3}}));
  EXPECT_EQ(heads_of(2), (Heads{{1, 0}}));
  EXPECT_EQ(queue.NextArrival(), units::Seconds(1.0));
}

TEST(RequestQueueTest, DeadlineWalkSkipsBestEffortAndTakenRequests) {
  // Queue order: ids 0..4; ids 1, 2 and 4 carry deadlines.
  std::vector<Request> requests;
  for (int id = 0; id < 5; ++id) {
    requests.push_back(MakeRequest(id, static_cast<double>(id)));
  }
  for (int id : {1, 2, 4}) {
    requests[static_cast<size_t>(id)].deadline = units::Seconds(100.0);
  }
  RequestQueue queue(std::move(requests));
  const auto walk = [&](size_t count, int stop_after_id) {
    std::vector<std::pair<int, size_t>> out;
    queue.ForEachLeadingDeadline(count, [&](const Request& r) {
      out.emplace_back(r.request_id, queue.PositionOf(r));
      return r.request_id != stop_after_id;
    });
    return out;
  };
  using Walk = std::vector<std::pair<int, size_t>>;
  EXPECT_EQ(walk(5, -1), (Walk{{1, 1}, {2, 2}, {4, 4}}));
  EXPECT_EQ(walk(3, -1), (Walk{{1, 1}, {2, 2}}));
  EXPECT_EQ(walk(5, 2), (Walk{{1, 1}, {2, 2}}));
  EXPECT_EQ(walk(1, -1), Walk{});
  // Taking ids 2 (a deadline) and 0 (best-effort) unlinks and shifts.
  EXPECT_EQ(queue.Take(2).request_id, 2);
  EXPECT_EQ(queue.Take(0).request_id, 0);
  EXPECT_EQ(walk(3, -1), (Walk{{1, 0}, {4, 2}}));
  EXPECT_EQ(queue.Take(0).request_id, 1);
  EXPECT_EQ(walk(2, -1), (Walk{{4, 1}}));
}

TEST(RequestQueueDeathTest, NegativeTemplateIndexChecks) {
  EXPECT_DEATH(RequestQueue({MakeRequest(0, 0.0, -1)}),
               "negative template index -1");
}

TEST(RequestQueueDeathTest, PositionOfRejectsForeignAndTakenRequests) {
  RequestQueue queue({MakeRequest(0, 0.0), MakeRequest(1, 1.0)});
  const Request foreign = MakeRequest(0, 0.0);
  EXPECT_DEATH((void)queue.PositionOf(foreign), "not a request of this queue");
  const Request& second = queue.at(1);
  EXPECT_EQ(queue.PositionOf(second), 1u);
  (void)queue.Take(1);
  EXPECT_DEATH((void)queue.PositionOf(second), "already taken");
}

}  // namespace
}  // namespace contender::sched
