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

Request MakeRequest(int id, double arrival) {
  Request r;
  r.request_id = id;
  r.template_index = 0;
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

TEST(RequestQueueTest, PushKeepsQueueOrder) {
  RequestQueue queue;
  queue.Push(MakeRequest(0, 6.0));
  queue.Push(MakeRequest(1, 2.0));
  queue.Push(MakeRequest(2, 6.0));
  ASSERT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.at(0).request_id, 1);
  EXPECT_EQ(queue.at(1).request_id, 0);
  EXPECT_EQ(queue.at(2).request_id, 2);
}

}  // namespace
}  // namespace contender::sched
