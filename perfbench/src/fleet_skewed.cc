// Workload `fleet-skewed`: FleetSimulator with 4 greedy-contention nodes at
// MPL 3 behind contention-aware routing, fed by 4 tenants at Zipf skew 1.5
// with 10-template windows. The only workload that exercises Router::Route
// backlog replay, ComputeNodeBlame and the thread-pool node pass.
//
// Per-layer numbers come from recomposing FleetSimulator::Run out of the
// public Router, Node and ComputeNodeBlame (node seeds drawn from
// Rng(seed).Next() in node order, exactly as the simulator draws them);
// every run checks that the recomposition matches the simulator outcome
// for outcome. A run cycles through kStreams populations derived from the
// seed, so its medians average over populations instead of hanging on one.

#include <algorithm>
#include <cmath>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "fleet/blame.h"
#include "fleet/fleet_simulator.h"
#include "fleet/metrics.h"
#include "fleet/node.h"
#include "fleet/population.h"
#include "fleet/router.h"
#include "harness.h"
#include "scenario/scenario.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/summary_stats.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using contender::Rng;
using contender::fleet::FleetOptions;
using contender::fleet::FleetResult;
using contender::fleet::FleetSimulator;
using contender::fleet::Node;
using contender::fleet::NodeOptions;
using contender::fleet::NodeResult;
using contender::fleet::Population;
using contender::fleet::QueryBlame;
using contender::fleet::Router;
using contender::fleet::RouterOptions;
using contender::sched::MixOracle;
using contender::sched::Request;

constexpr int kRequests = 6144;
constexpr int kNodes = 4;
constexpr int kMpl = 3;
constexpr int kStreams = 4;

/// One population and its N/4 prefix, with the fleet's root seed.
struct Stream {
  uint64_t seed = 0;
  Population full;
  Population quarter;
};

/// One node's slice of the recomposed execution pass.
struct NodeSlice {
  NodeResult result;
  std::vector<QueryBlame> blame;
  uint64_t oracle_hits = 0;
  uint64_t oracle_misses = 0;
  int64_t run_start_ns = 0, run_end_ns = 0, blame_end_ns = 0;
};

/// FleetSimulator::Run rebuilt from the public layer APIs, with per-call
/// timing of Route, Node::Run and ComputeNodeBlame.
struct Recomposition {
  std::vector<contender::fleet::Assignment> assignments;
  std::vector<NodeSlice> nodes;
  std::vector<uint64_t> node_seeds;
  double route_s = 0.0;
  double outstanding_mean = 0.0;
};

Recomposition Recompose(const Setup& setup, const Population& population,
                        const FleetOptions& options, Tracer* tracer) {
  ScopedSpan span(tracer, "fleet.recomposed");
  Tracer clock;  // timestamps for work done off the tracer's thread
  Tracer* stamps = tracer != nullptr ? tracer : &clock;
  Recomposition out;

  MixOracle routing_oracle(setup.predictor.get(), options.oracle_options);
  RouterOptions router_options;
  router_options.num_nodes = options.num_nodes;
  router_options.target_mpl = options.target_mpl;
  router_options.policy = options.policy;
  router_options.tenant_quota = options.tenant_quota;
  router_options.door = options.door;
  Router router(&routing_oracle, router_options);
  double outstanding = 0.0;
  for (const Request& request : population.requests) {
    const int64_t start = stamps->NowNs();
    CONTENDER_CHECK_OK(router.Route(request).status());
    const int64_t end = stamps->NowNs();
    if (tracer != nullptr) tracer->Add("fleet.Router.Route", start, end);
    out.route_s += static_cast<double>(end - start) * 1e-9;
    for (int node = 0; node < options.num_nodes; ++node) {
      outstanding += router.Outstanding(node);
    }
  }
  out.outstanding_mean =
      outstanding / static_cast<double>(population.requests.size() *
                                        static_cast<size_t>(options.num_nodes));
  out.assignments = router.assignments();

  std::vector<std::vector<Request>> per_node(
      static_cast<size_t>(options.num_nodes));
  for (size_t id = 0; id < out.assignments.size(); ++id) {
    if (out.assignments[id].rejected) continue;
    Request request = population.requests[id];
    request.arrival_time = out.assignments[id].effective_arrival;
    per_node[static_cast<size_t>(out.assignments[id].node)].push_back(request);
  }
  Rng root(options.seed);
  for (int i = 0; i < options.num_nodes; ++i) {
    out.node_seeds.push_back(root.Next());
  }

  contender::ThreadPool pool(options.threads);
  std::vector<std::future<NodeSlice>> futures;
  for (int i = 0; i < options.num_nodes; ++i) {
    futures.push_back(pool.Submit([&, i] {
      NodeOptions node_options;
      node_options.node_id = i;
      node_options.target_mpl = options.target_mpl;
      node_options.policy = options.node_policy;
      node_options.seed = out.node_seeds[static_cast<size_t>(i)];
      node_options.oracle_options = options.oracle_options;
      node_options.overload = options.node_overload;
      Node node(&setup.workload, setup.config, setup.predictor.get(),
                node_options);
      NodeSlice slice;
      slice.run_start_ns = stamps->NowNs();
      auto result = node.Run(per_node[static_cast<size_t>(i)]);
      slice.run_end_ns = stamps->NowNs();
      CONTENDER_CHECK(result.ok()) << result.status();
      slice.result = std::move(*result);
      slice.blame =
          contender::fleet::ComputeNodeBlame(slice.result, node.oracle());
      slice.blame_end_ns = stamps->NowNs();
      slice.oracle_hits = node.oracle().hits();
      slice.oracle_misses = node.oracle().misses();
      return slice;
    }));
  }
  for (auto& future : futures) out.nodes.push_back(future.get());
  if (tracer != nullptr) {
    for (const NodeSlice& slice : out.nodes) {
      tracer->Add("fleet.Node.Run", slice.run_start_ns, slice.run_end_ns);
      tracer->Add("fleet.ComputeNodeBlame", slice.run_end_ns,
                  slice.blame_end_ns);
    }
  }
  return out;
}

/// Outcomes of the recomposition that differ from the simulator's.
uint64_t RecompositionMismatches(const Recomposition& r,
                                 const FleetResult& fleet) {
  uint64_t bad = 0;
  for (size_t id = 0; id < fleet.outcomes.size(); ++id) {
    if (fleet.outcomes[id].node != r.assignments[id].node ||
        fleet.outcomes[id].rejected != r.assignments[id].rejected) {
      ++bad;
    }
  }
  std::vector<QueryBlame> blame;
  for (const NodeSlice& slice : r.nodes) {
    const auto& outcomes = slice.result.schedule.outcomes;
    for (size_t local = 0; local < outcomes.size(); ++local) {
      const auto& mine = outcomes[local];
      const auto& theirs = fleet.outcomes[static_cast<size_t>(
          slice.result.global_ids[local])];
      if (mine.shed != theirs.shed || mine.completed != theirs.completed ||
          mine.admit_time != theirs.admit_time ||
          mine.completion_time != theirs.completion_time ||
          mine.predicted_latency != theirs.predicted_latency ||
          mine.missed_deadline != theirs.missed_deadline) {
        ++bad;
      }
    }
    blame.insert(blame.end(), slice.blame.begin(), slice.blame.end());
  }
  std::sort(blame.begin(), blame.end(),
            [](const QueryBlame& a, const QueryBlame& b) {
              return a.request_id < b.request_id;
            });
  if (blame.size() != fleet.blame.size()) return bad + 1;
  for (size_t i = 0; i < blame.size(); ++i) {
    if (blame[i].request_id != fleet.blame[i].request_id ||
        blame[i].excess != fleet.blame[i].excess ||
        blame[i].self_blame != fleet.blame[i].self_blame ||
        blame[i].shares.size() != fleet.blame[i].shares.size()) {
      ++bad;
    }
  }
  return bad;
}

/// Outcomes that differ between two simulator runs.
uint64_t FleetMismatches(const FleetResult& a, const FleetResult& b) {
  if (a.outcomes.size() != b.outcomes.size()) return a.outcomes.size() + 1;
  uint64_t bad = a.makespan != b.makespan ? 1 : 0;
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    const auto& x = a.outcomes[i];
    const auto& y = b.outcomes[i];
    if (x.node != y.node || x.rejected != y.rejected || x.shed != y.shed ||
        x.completed != y.completed || x.admit_time != y.admit_time ||
        x.completion_time != y.completion_time ||
        x.predicted_latency != y.predicted_latency) {
      ++bad;
    }
  }
  return bad;
}

/// Queries whose blame shares plus self blame do not sum to the excess.
uint64_t BlameLeaks(const FleetResult& fleet) {
  uint64_t bad = 0;
  for (const QueryBlame& q : fleet.blame) {
    double sum = q.self_blame.value();
    for (const auto& share : q.shares) sum += share.seconds.value();
    const double excess = q.excess.value();
    if (std::abs(sum - excess) > 1e-9 * std::max(1.0, std::abs(excess))) {
      ++bad;
    }
  }
  return bad;
}

/// The in-mix (template, co-runners) pair each admitted query started with,
/// rebuilt from the node's realized schedule.
void AdmissionMixes(const NodeResult& node,
                    std::vector<std::pair<int, std::vector<int>>>* out) {
  const auto& outcomes = node.schedule.outcomes;
  std::vector<size_t> order;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].completed) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return outcomes[a].admit_time < outcomes[b].admit_time;
  });
  std::vector<size_t> running;
  for (size_t i : order) {
    const double now = outcomes[i].admit_time.value();
    std::erase_if(running, [&](size_t r) {
      return outcomes[r].completion_time.value() <= now;
    });
    std::vector<int> mix;
    for (size_t r : running) mix.push_back(outcomes[r].request.template_index);
    out->emplace_back(outcomes[i].request.template_index, std::move(mix));
    running.push_back(i);
  }
}

}  // namespace

void RunFleetSkewed(const RunOptions& options, Report* report) {
  const int n = kRequests;
  std::vector<Stream> streams;
  uint64_t digest = 0;
  const contender::scenario::Scenario* scenario =
      contender::scenario::FindScenario(
          contender::scenario::kPoissonSteadyName);
  CONTENDER_CHECK(scenario != nullptr);

  Tracer tracer;
  Tracer* spans = options.trace ? &tracer : nullptr;
  const Setup setup = RunSetup(
      options,
      [&](const Setup& s) {
        streams.clear();
        std::vector<Request> all;
        Rng seeds(options.seed);
        for (int k = 0; k < kStreams; ++k) {
          contender::fleet::PopulationOptions params;
          params.num_tenants = 4;
          params.num_requests = n;
          params.mean_interarrival = contender::units::Seconds(25.0);
          params.skew = 1.5;
          params.templates_per_tenant = 10;
          params.deadline_probability = 0.5;
          params.min_slack = 3.0;
          params.max_slack = 10.0;
          params.seed = seeds.Next();
          auto generated = contender::fleet::GeneratePopulation(
              s.reference, params, *scenario);
          CONTENDER_CHECK(generated.ok()) << generated.status();
          Stream stream;
          stream.seed = params.seed;
          stream.full = std::move(*generated);
          stream.quarter.requests.assign(stream.full.requests.begin(),
                                         stream.full.requests.begin() + n / 4);
          all.insert(all.end(), stream.full.requests.begin(),
                     stream.full.requests.end());
          streams.push_back(std::move(stream));
        }
        digest = contender::scenario::TraceDigest(all);
      },
      spans);
  report->Note("trace_digest: " + std::to_string(digest) + " (" +
               std::to_string(kStreams) + " populations x " +
               std::to_string(n) + " requests)");

  FleetSimulator simulator(&setup.workload, setup.config,
                           setup.predictor.get());
  const auto fleet_options = [&](const Stream& stream) {
    FleetOptions o;
    o.num_nodes = kNodes;
    o.target_mpl = kMpl;
    o.seed = stream.seed;
    o.threads = PoolWidth(options);
    return o;
  };
  const auto timed_run = [&](const Population& p, const FleetOptions& o,
                             FleetResult* out) {
    const Clock::time_point start = Clock::now();
    auto result = simulator.Run(p, o);
    const double wall = SecondsSince(start);
    CONTENDER_CHECK(result.ok()) << result.status();
    *out = std::move(*result);
    return wall;
  };

  std::vector<FleetResult> firsts(kStreams);
  std::vector<double> wall_us, exponent, p95_s, pred_err;
  std::vector<double> route_us, node_run_s, node_run_max_s, blame_s;
  std::vector<double> engine_us, predict_ns, overhead, node_hit_ratio;
  double outstanding = 0.0;

  const int reps = Repeat(options.seconds, kStreams, 1000, [&](int rep) {
    tracer.set_run(rep);
    const Stream& stream = streams[static_cast<size_t>(rep % kStreams)];
    const FleetOptions o = fleet_options(stream);
    FleetResult result;
    const double t_full = timed_run(stream.full, o, &result);
    report->checks.Attempt(static_cast<uint64_t>(n));
    if (!options.trace) {
      FleetResult quarter_result;
      const double t_quarter = timed_run(stream.quarter, o, &quarter_result);
      report->checks.Attempt(stream.quarter.requests.size());
      wall_us.push_back(t_full * 1e6 / n);
      exponent.push_back(std::log(t_full / t_quarter) / std::log(4.0));
    }

    FleetResult& first = firsts[static_cast<size_t>(rep % kStreams)];
    if (rep < kStreams) {
      const contender::fleet::FleetMetrics quality =
          contender::fleet::ComputeFleetMetrics(result);
      report->checks.Expect(
          quality.offered == quality.completed + quality.shed_total,
          "offered != completed + shed");
      const uint64_t leaks = BlameLeaks(result);
      report->checks.Expect(leaks == 0, "blame does not conserve excess",
                            leaks);
      p95_s.push_back(quality.p95_response.value());
      pred_err.push_back(quality.mean_prediction_error);
      first = result;
    } else {
      const uint64_t bad = FleetMismatches(first, result);
      report->checks.Expect(bad == 0,
                            "a population's run differs between repetitions",
                            bad);
    }
    if (rep > 0 && !options.trace) return;

    const Clock::time_point start = Clock::now();
    const Recomposition recomposed =
        Recompose(setup, stream.full, o, spans);
    const double recomposed_wall = SecondsSince(start);
    const uint64_t bad = RecompositionMismatches(recomposed, result);
    report->checks.Expect(bad == 0,
                          "public-API recomposition differs from "
                          "FleetSimulator::Run",
                          bad);
    if (rep == 0) {
      outstanding = recomposed.outstanding_mean;
      FleetOptions single = o;
      single.threads = 1;
      FleetResult serial;
      timed_run(stream.full, single, &serial);
      const uint64_t thread_bad = FleetMismatches(result, serial);
      report->checks.Expect(thread_bad == 0,
                            "threads=1 and threads=" +
                                std::to_string(o.threads) + " disagree",
                            thread_bad);
    }
    if (!options.trace) return;

    overhead.push_back(recomposed_wall - t_full);
    route_us.push_back(recomposed.route_s * 1e6 / n);
    double run_sum = 0.0, run_max = 0.0, blame_sum = 0.0;
    uint64_t hits = 0, misses = 0;
    std::vector<std::pair<int, std::vector<int>>> mixes;
    size_t processes = 0;
    const Clock::time_point replay_start = Clock::now();
    for (size_t i = 0; i < recomposed.nodes.size(); ++i) {
      const NodeSlice& slice = recomposed.nodes[i];
      const double run =
          static_cast<double>(slice.run_end_ns - slice.run_start_ns) * 1e-9;
      run_sum += run;
      run_max = std::max(run_max, run);
      blame_sum +=
          static_cast<double>(slice.blame_end_ns - slice.run_end_ns) * 1e-9;
      hits += slice.oracle_hits;
      misses += slice.oracle_misses;
      processes += ReplayEngine(setup, slice.result.schedule,
                                recomposed.node_seeds[i], spans);
    }
    engine_us.push_back(SecondsSince(replay_start) * 1e6 /
                        static_cast<double>(processes));
    for (const NodeSlice& slice : recomposed.nodes) {
      AdmissionMixes(slice.result, &mixes);
    }
    predict_ns.push_back(TimeCorePredict(*setup.predictor, mixes, spans));
    node_run_s.push_back(run_sum);
    node_run_max_s.push_back(run_max);
    blame_s.push_back(blame_sum);
    node_hit_ratio.push_back(
        static_cast<double>(hits) /
        static_cast<double>(std::max<uint64_t>(1, hits + misses)));
  });

  report->Note("regime: fleet.outstanding_mean " + Num(outstanding) +
               " per node at MPL " + std::to_string(kMpl));
  report->Note("repetitions: " + std::to_string(reps) +
               "; wall_us_per_request by repetition: " + Series(wall_us));
  report->Add("sim.p95_response_s", contender::Mean(p95_s), "s");
  report->Add("core.pred_err", contender::Mean(pred_err), "1");

  if (!options.trace) {
    report->Add("setup_s", setup.setup_s, "s");
    report->Add("peak_rss_mb", PeakRssMb(), "MB");
    report->Add("wall_us_per_request", QuietCost(wall_us, kStreams), "us");
    report->Add("scaling_exp", Median(exponent), "1");
    return;
  }
  AddSetupLayers(setup, report);
  report->Add("sim.engine_us_per_process", Median(engine_us), "us");
  report->Add("core.predict_ns", Median(predict_ns), "ns");
  report->Add("fleet.route_us", Median(route_us), "us");
  report->Add("fleet.outstanding_mean", outstanding, "count");
  report->Add("fleet.node_run_s", Median(node_run_s), "s");
  report->Add("fleet.node_run_max_s", Median(node_run_max_s), "s");
  report->Add("fleet.blame_s", Median(blame_s), "s");
  report->Add("fleet.node_oracle_hit_ratio", Median(node_hit_ratio), "1");
  report->Add("trace.overhead_s", Median(overhead), "s");
  FinishTrace(tracer, options, report);
}

}  // namespace perfbench
