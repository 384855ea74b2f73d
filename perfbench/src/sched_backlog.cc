// Workload `sched-backlog`: one ScheduleSimulator node, greedy-contention
// admission at MPL 5, fed poisson-steady streams whose arrivals far
// outpace service, so the arrived queue grows into the hundreds and the
// engine's bookkeeping plus Policy::Pick x MixOracle probing dominate.
// Single-threaded after set-up; router and serve are bypassed.
//
// A run cycles through kStreams streams derived from the seed, so its
// medians average over arrival streams instead of hanging on one.

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "scenario/scenario.h"
#include "sched/metrics.h"
#include "sched/mix_oracle.h"
#include "sched/policy.h"
#include "sched/simulator.h"
#include "sim/engine.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/summary_stats.h"

namespace perfbench {
namespace {

using contender::Rng;
using contender::StatusOr;
using contender::sched::MixOracle;
using contender::sched::Policy;
using contender::sched::PolicyKind;
using contender::sched::Request;
using contender::sched::RequestOutcome;
using contender::sched::RequestQueue;
using contender::sched::SchedContext;
using contender::sched::ScheduleOptions;
using contender::sched::ScheduleResult;
using contender::sched::ScheduleSimulator;

constexpr int kRequests = 2048;
constexpr int kMpl = 5;
constexpr int kStreams = 4;
/// The run is backlogged when the mean arrived queue at Pick is at least
/// this multiple of the MPL.
constexpr double kBacklogFactor = 4.0;

/// Counting (and, with a tracer, timing) decorator over the public Policy
/// interface. Records the arrived-prefix depth and the (template, running
/// mix) pair of every admission it decides.
class ObservedPolicy : public Policy {
 public:
  ObservedPolicy(Policy* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  const std::string& name() const override { return inner_->name(); }

  StatusOr<size_t> Pick(const RequestQueue& queue,
                        const SchedContext& ctx) override {
    depth_sum_ += static_cast<double>(queue.ArrivedBy(ctx.now));
    ++picks_;
    const int64_t start = tracer_ != nullptr ? tracer_->NowNs() : 0;
    StatusOr<size_t> pick = inner_->Pick(queue, ctx);
    if (tracer_ != nullptr) {
      tracer_->Add("sched.Policy.Pick", start, tracer_->NowNs());
    }
    if (pick.ok()) {
      admissions_.emplace_back(queue.at(*pick).template_index,
                               *ctx.running_templates);
    }
    return pick;
  }

  uint64_t picks() const { return picks_; }
  double mean_depth() const {
    return picks_ == 0 ? 0.0 : depth_sum_ / static_cast<double>(picks_);
  }
  const std::vector<std::pair<int, std::vector<int>>>& admissions() const {
    return admissions_;
  }

 private:
  Policy* inner_;
  Tracer* tracer_;
  uint64_t picks_ = 0;
  double depth_sum_ = 0.0;
  std::vector<std::pair<int, std::vector<int>>> admissions_;
};

/// Outcomes of `b` that differ from `a` in any admission-visible field.
uint64_t ScheduleMismatches(const ScheduleResult& a, const ScheduleResult& b) {
  if (a.outcomes.size() != b.outcomes.size()) {
    return std::max<uint64_t>(1, a.outcomes.size());
  }
  uint64_t bad = a.makespan != b.makespan ? 1 : 0;
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    const RequestOutcome& x = a.outcomes[i];
    const RequestOutcome& y = b.outcomes[i];
    if (x.admit_time != y.admit_time ||
        x.completion_time != y.completion_time ||
        x.predicted_latency != y.predicted_latency ||
        x.missed_deadline != y.missed_deadline || x.shed != y.shed ||
        x.completed != y.completed) {
      ++bad;
    }
  }
  return bad;
}

/// One arrival stream and its N/4 prefix, with the schedule seed.
struct Stream {
  uint64_t seed = 0;
  std::vector<Request> full;
  std::vector<Request> quarter;
};

}  // namespace

size_t ReplayEngine(const Setup& setup, const ScheduleResult& result,
                    uint64_t seed, Tracer* tracer) {
  Rng rng(seed);
  const uint64_t engine_seed = rng.Next();
  std::vector<contender::sim::QuerySpec> specs;
  specs.reserve(result.outcomes.size());
  for (const RequestOutcome& out : result.outcomes) {
    specs.push_back(
        setup.workload.Instantiate(out.request.template_index, &rng));
  }
  std::vector<std::pair<double, size_t>> admitted;
  for (size_t id = 0; id < result.outcomes.size(); ++id) {
    if (result.outcomes[id].completed) {
      admitted.emplace_back(result.outcomes[id].admit_time.value(), id);
    }
  }
  std::sort(admitted.begin(), admitted.end());
  contender::sim::Engine engine(setup.config, engine_seed);
  {
    ScopedSpan span(tracer, "sim.Engine.AddProcess");
    for (const auto& [admit, id] : admitted) {
      engine.AddProcess(specs[id], contender::units::Seconds(admit));
    }
  }
  {
    ScopedSpan span(tracer, "sim.Engine.Run");
    CONTENDER_CHECK_OK(engine.Run());
  }
  return admitted.size();
}

double TimeCorePredict(
    const contender::ContenderPredictor& predictor,
    const std::vector<std::pair<int, std::vector<int>>>& pairs,
    Tracer* tracer) {
  constexpr size_t kBlock = 256;
  double sink = 0.0;
  const Clock::time_point start = Clock::now();
  for (size_t begin = 0; begin < pairs.size(); begin += kBlock) {
    ScopedSpan span(tracer, "core.PredictInMix");
    const size_t end = std::min(pairs.size(), begin + kBlock);
    for (size_t i = begin; i < end; ++i) {
      sink += contender::sched::PredictInMixUncached(
                  predictor, pairs[i].first, pairs[i].second)
                  .value();
    }
  }
  const double elapsed = SecondsSince(start);
  CONTENDER_CHECK(sink > 0.0);
  return elapsed * 1e9 /
         static_cast<double>(std::max<size_t>(1, pairs.size()));
}

void RunSchedBacklog(const RunOptions& options, Report* report) {
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
          contender::scenario::ScenarioParams params;
          params.num_requests = n;
          params.mean_interarrival = contender::units::Seconds(25.0);
          params.deadline_probability = 0.5;
          params.min_slack = 3.0;
          params.max_slack = 10.0;
          params.seed = seeds.Next();
          auto trace = scenario->GenerateTrace(s.reference, params);
          CONTENDER_CHECK(trace.ok()) << trace.status();
          Stream stream;
          stream.seed = params.seed;
          stream.full = std::move(trace->requests);
          stream.quarter.assign(stream.full.begin(),
                                stream.full.begin() + n / 4);
          all.insert(all.end(), stream.full.begin(), stream.full.end());
          streams.push_back(std::move(stream));
        }
        digest = contender::scenario::TraceDigest(all);
      },
      spans);
  report->Note("trace_digest: " + std::to_string(digest) + " (" +
               std::to_string(kStreams) + " streams x " + std::to_string(n) +
               " requests)");

  ScheduleSimulator simulator(&setup.workload, setup.config);
  const auto greedy = [] {
    return contender::sched::MakePolicy(PolicyKind::kGreedyContention);
  };
  const auto schedule_options = [](const Stream& stream) {
    ScheduleOptions o;
    o.target_mpl = kMpl;
    o.seed = stream.seed;
    return o;
  };
  // One timed run of a fresh policy over `oracle`; returns wall seconds.
  const auto timed_run = [&](const Stream& stream,
                             const std::vector<Request>& requests,
                             MixOracle* oracle, ScheduleResult* out) {
    auto policy = greedy();
    const Clock::time_point start = Clock::now();
    auto result = simulator.Run(requests, policy.get(), oracle,
                                schedule_options(stream));
    const double wall = SecondsSince(start);
    CONTENDER_CHECK(result.ok()) << result.status();
    *out = std::move(*result);
    return wall;
  };

  std::vector<ScheduleResult> firsts(kStreams);
  std::vector<double> wall_us, exponent, p95_s, pred_err;
  std::vector<double> pick_s, engine_self_s, engine_us, predict_ns, overhead;
  std::vector<double> picks, probes, misses, hit_ratio;
  double depth = 0.0;

  const int reps = Repeat(options.seconds, kStreams, 1000, [&](int rep) {
    tracer.set_run(rep);
    const Stream& stream = streams[static_cast<size_t>(rep % kStreams)];
    MixOracle oracle(setup.predictor.get());
    ScheduleResult result;
    const double t_full = timed_run(stream, stream.full, &oracle, &result);
    report->checks.Attempt(static_cast<uint64_t>(n));

    if (!options.trace) {
      MixOracle quarter_oracle(setup.predictor.get());
      ScheduleResult quarter_result;
      const double t_quarter =
          timed_run(stream, stream.quarter, &quarter_oracle, &quarter_result);
      report->checks.Attempt(stream.quarter.size());
      wall_us.push_back(t_full * 1e6 / n);
      exponent.push_back(std::log(t_full / t_quarter) / std::log(4.0));
    }

    ScheduleResult& first = firsts[static_cast<size_t>(rep % kStreams)];
    if (rep < kStreams) {
      const contender::sched::ScheduleMetrics quality =
          contender::sched::ComputeScheduleMetrics(result);
      report->checks.Expect(
          quality.completed + quality.shed == static_cast<size_t>(n),
          "completed + shed != N");
      p95_s.push_back(quality.p95_response.value());
      pred_err.push_back(quality.mean_prediction_error);
      first = result;
    } else {
      const uint64_t bad = ScheduleMismatches(first, result);
      report->checks.Expect(bad == 0,
                            "a stream's schedule differs between repetitions",
                            bad);
    }
    if (rep > 0 && !options.trace) return;

    // Observed replay: the counting decorator over the warm oracle (or,
    // traced, a timing decorator over a fresh one) must reproduce the
    // timed schedule bit-exactly.
    auto inner = greedy();
    ObservedPolicy observed(inner.get(), spans);
    MixOracle fresh(setup.predictor.get());
    MixOracle* replay_oracle = options.trace ? &fresh : &oracle;
    ScheduleResult replay;
    double traced_wall = 0.0;
    {
      ScopedSpan span(spans, "sched.ScheduleSimulator.Run");
      const Clock::time_point start = Clock::now();
      auto got = simulator.Run(stream.full, &observed, replay_oracle,
                               schedule_options(stream));
      traced_wall = SecondsSince(start);
      CONTENDER_CHECK(got.ok()) << got.status();
      replay = std::move(*got);
    }
    const uint64_t mismatches = ScheduleMismatches(result, replay);
    report->checks.Expect(mismatches == 0,
                          "observed replay diverged from the timed schedule",
                          mismatches);
    if (rep == 0) {
      depth = observed.mean_depth();
      report->checks.Expect(
          depth >= kBacklogFactor * kMpl,
          "not backlogged: mean arrived queue at Pick " + Num(depth) +
              " < " + Num(kBacklogFactor * kMpl));
    }
    if (!options.trace) return;

    overhead.push_back(traced_wall - t_full);
    double pick_total = 0.0;
    for (const Span& s : tracer.spans()) {
      if (s.run == rep && s.name == "sched.Policy.Pick") {
        pick_total += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      }
    }
    pick_s.push_back(pick_total);
    engine_self_s.push_back(traced_wall - pick_total);
    const uint64_t probed =
        fresh.hits() + fresh.misses() + fresh.degradations();
    picks.push_back(static_cast<double>(observed.picks()));
    probes.push_back(static_cast<double>(probed));
    misses.push_back(static_cast<double>(fresh.misses()));
    hit_ratio.push_back(static_cast<double>(fresh.hits()) /
                        static_cast<double>(std::max<uint64_t>(1, probed)));
    const Clock::time_point start = Clock::now();
    const size_t processes = ReplayEngine(setup, replay, stream.seed, spans);
    engine_us.push_back(SecondsSince(start) * 1e6 /
                        static_cast<double>(processes));
    predict_ns.push_back(
        TimeCorePredict(*setup.predictor, observed.admissions(), spans));
  });

  report->Note("regime: sched.queue_depth_mean " + Num(depth) + " at MPL " +
               std::to_string(kMpl) + " (backlogged when >= " +
               Num(kBacklogFactor * kMpl) + ")");
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
  report->Add("sim.engine_self_s", Median(engine_self_s), "s");
  report->Add("sim.engine_us_per_process", Median(engine_us), "us");
  report->Add("sched.picks", Median(picks), "count");
  report->Add("sched.pick_s", Median(pick_s), "s");
  report->Add("sched.queue_depth_mean", depth, "count");
  report->Add("sched.oracle_probes", Median(probes), "count");
  report->Add("sched.oracle_hit_ratio", Median(hit_ratio), "1");
  report->Add("core.oracle_misses", Median(misses), "count");
  report->Add("core.predict_ns", Median(predict_ns), "ns");
  report->Add("trace.overhead_s", Median(overhead), "s");
  FinishTrace(tracer, options, report);
}

}  // namespace perfbench
