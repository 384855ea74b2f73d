// Workload `serve-refit`: a PredictionService behind a HealthTracker,
// driven in a closed loop by nproc-1 reader threads (each calls Predict on
// a uniformly drawn template with 0-3 uniformly drawn co-runners and waits
// for the answer) while one writer ingests perturbed training observations
// into an ObservationLog and calls RefitController::Step every 32 of them,
// so every step publishes a snapshot. After set-up it bypasses sim, sched
// and fleet entirely.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness.h"
#include "scenario/scenario.h"
#include "serve/health.h"
#include "serve/model_snapshot.h"
#include "serve/observation_log.h"
#include "serve/refit_controller.h"
#include "serve/service.h"
#include "util/logging.h"
#include "util/random.h"

namespace perfbench {
namespace {

using contender::MixObservation;
using contender::Rng;
using contender::serve::DegradationTier;
using contender::serve::HealthTracker;
using contender::serve::ModelSnapshot;
using contender::serve::ObservationLog;
using contender::serve::PredictionService;
using contender::serve::PredictResult;
using contender::serve::RefitController;

/// Requests per reader stream (readers cycle through it).
constexpr int kStreamPerReader = 8192;
/// Observations the writer ingests per repetition, and the refit cadence.
constexpr int kObservations = 1024;
constexpr int kStepEvery = 32;
/// Every kSampleEvery-th answer is audited against its snapshot.
constexpr uint64_t kSampleEvery = 64;
/// The untraced run times every kTimeEvery-th call for the latency
/// percentiles (timing every call would cost a large share of a call).
constexpr uint64_t kTimeEvery = 8;
/// Calls per reader span in the traced run.
constexpr int kBlock = 256;
/// Writer observations are drawn from training observations whose
/// |continuum residual| on the initial model is below this.
constexpr double kHealthyResidual = 0.1;

struct Call {
  int template_index = -1;
  std::vector<int> concurrent;
};

struct Sample {
  size_t call = 0;
  PredictResult result;
};

struct ReaderLog {
  uint64_t answers = 0;
  uint64_t errors = 0;
  std::vector<double> latency_us;
  std::vector<Sample> samples;
  std::vector<std::pair<int64_t, int64_t>> blocks;
};

/// What one repetition measured.
struct RepResult {
  double wall_s = 0.0;
  uint64_t answers = 0;
  double p50_us = 0.0, p99_us = 0.0;
  double pred_err = 0.0;
  /// Writer wall time after kObservations / 4 and after all observations.
  double writer_quarter_s = 0.0, writer_full_s = 0.0;
  double ingest_s = 0.0, step_s = 0.0;
  uint64_t refits = 0;
  double tier_full_frac = 0.0;
  double reader_call_ns = 0.0;
};

RepResult RunRep(const Setup& setup, const std::vector<std::vector<Call>>& streams,
                 const std::vector<MixObservation>& writes, bool traced,
                 Tracer* tracer, Checks* checks) {
  const int num_templates = static_cast<int>(setup.data.profiles.size());
  auto health = std::make_shared<HealthTracker>(num_templates);
  PredictionService::Options service_options;
  service_options.num_threads = 1;  // PredictBatch is not used
  service_options.health = health;
  PredictionService service(ModelSnapshot::Create(*setup.predictor, 1),
                            service_options);
  ObservationLog log(&service);
  contender::serve::RefitOptions refit_options;
  refit_options.min_new_observations = kStepEvery;
  RefitController controller(&service, &log, setup.data.observations,
                             refit_options);
  std::map<uint64_t, std::shared_ptr<const ModelSnapshot>> by_version;
  by_version[service.snapshot()->version()] = service.snapshot();

  Tracer clock;
  Tracer* stamps = tracer != nullptr ? tracer : &clock;
  std::atomic<bool> go{false}, stop{false};
  std::vector<ReaderLog> logs(streams.size());
  std::vector<std::thread> readers;
  for (size_t r = 0; r < streams.size(); ++r) {
    readers.emplace_back([&, r] {
      ReaderLog& out = logs[r];
      const std::vector<Call>& stream = streams[r];
      if (!traced) out.latency_us.reserve(1 << 17);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const int64_t block_start = traced ? stamps->NowNs() : 0;
        for (int b = 0; b < kBlock; ++b, ++i) {
          const Call& call = stream[i % stream.size()];
          if (out.answers % kSampleEvery == 0) {
            out.samples.push_back(
                {i % stream.size(),
                 service.PredictDetailed(call.template_index,
                                         call.concurrent)});
            if (!out.samples.back().result.status.ok()) ++out.errors;
          } else if (!traced && out.answers % kTimeEvery == 1) {
            const Clock::time_point start = Clock::now();
            const bool ok =
                service.Predict(call.template_index, call.concurrent).ok();
            out.latency_us.push_back(
                std::chrono::duration<double, std::micro>(Clock::now() -
                                                          start)
                    .count());
            if (!ok) ++out.errors;
          } else if (!service.Predict(call.template_index, call.concurrent)
                          .ok()) {
            ++out.errors;
          }
          ++out.answers;
        }
        if (traced) out.blocks.emplace_back(block_start, stamps->NowNs());
      }
    });
  }

  RepResult rep;
  double err_sum = 0.0;
  const Clock::time_point start = Clock::now();
  go.store(true, std::memory_order_release);
  for (int k = 0; k < kObservations; ++k) {
    const MixObservation& obs = writes[static_cast<size_t>(k)];
    auto predicted = service.Predict(obs.primary_index, obs.concurrent_indices);
    CONTENDER_CHECK(predicted.ok()) << predicted.status();
    err_sum += std::abs(predicted->value() - obs.latency.value()) /
               obs.latency.value();
    {
      const int64_t begin = stamps->NowNs();
      auto ingested = log.Ingest(obs);
      const int64_t end = stamps->NowNs();
      if (traced) tracer->Add("serve.ObservationLog.Ingest", begin, end);
      rep.ingest_s += static_cast<double>(end - begin) * 1e-9;
      checks->Expect(ingested.ok(), "ingest rejected a valid observation");
    }
    if ((k + 1) % kStepEvery == 0) {
      const int64_t begin = stamps->NowNs();
      auto step = controller.Step();
      const int64_t end = stamps->NowNs();
      if (traced) tracer->Add("serve.RefitController.Step", begin, end);
      rep.step_s += static_cast<double>(end - begin) * 1e-9;
      CONTENDER_CHECK(step.ok()) << step.status();
      checks->Expect(step->refit, "a step did not publish a snapshot");
      if (step->refit) {
        by_version[step->published_version] = service.snapshot();
      }
    }
    if (k + 1 == kObservations / 4) rep.writer_quarter_s = SecondsSince(start);
  }
  rep.writer_full_s = SecondsSince(start);
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  rep.wall_s = SecondsSince(start);

  rep.pred_err = err_sum / kObservations;
  rep.refits = controller.refits();
  std::vector<double> latencies;
  uint64_t errors = 0, audited = 0, torn = 0;
  int64_t block_ns = 0;
  uint64_t block_calls = 0;
  for (size_t r = 0; r < logs.size(); ++r) {
    const ReaderLog& out = logs[r];
    rep.answers += out.answers;
    errors += out.errors;
    latencies.insert(latencies.end(), out.latency_us.begin(),
                     out.latency_us.end());
    for (const Sample& s : out.samples) {
      const Call& call = streams[r][s.call];
      auto it = by_version.find(s.result.snapshot_version);
      ++audited;
      if (it == by_version.end() ||
          s.result.latency != it->second->PredictInMix(call.template_index,
                                                       call.concurrent)) {
        ++torn;
      }
    }
    for (const auto& [begin, end] : out.blocks) {
      if (traced) tracer->Add("serve.PredictionService.Predict", begin, end);
      block_ns += end - begin;
      block_calls += kBlock;
    }
  }
  if (block_calls > 0) {
    rep.reader_call_ns =
        static_cast<double>(block_ns) / static_cast<double>(block_calls);
  }
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    rep.p50_us = latencies[latencies.size() / 2];
    rep.p99_us = latencies[latencies.size() * 99 / 100];
  }
  const uint64_t served = service.served();
  const uint64_t full = service.tier_count(DegradationTier::kFullModel);
  rep.tier_full_frac =
      static_cast<double>(full) / static_cast<double>(std::max<uint64_t>(1, served));

  checks->Attempt(rep.answers + kObservations);
  checks->Expect(errors == 0, "Predict returned an error", errors);
  checks->Expect(torn == 0,
                 "sampled answer does not recompute on its snapshot version",
                 torn);
  checks->Expect(audited > 0, "no answers were audited");
  checks->Expect(full == served, "answers below tier 0", served - full);
  checks->Expect(health->trips() == 0,
                 "breaker trips: " + std::to_string(health->trips()));
  return rep;
}

/// True when the template's own QS model answers this mix (tier 0).
bool Covered(const contender::ContenderPredictor& predictor,
             int template_index, std::vector<int> concurrent) {
  if (concurrent.empty()) return true;
  std::sort(concurrent.begin(), concurrent.end());
  return predictor.PredictKnown(template_index, concurrent).ok();
}

/// Replays the writer's ingest/refit sequence without readers; returns the
/// template whose breaker trips first, or -1 when none does.
int FirstTrip(const Setup& setup, const std::vector<MixObservation>& writes) {
  auto health = std::make_shared<HealthTracker>(
      static_cast<int>(setup.data.profiles.size()));
  PredictionService::Options service_options;
  service_options.num_threads = 1;
  service_options.health = health;
  PredictionService service(ModelSnapshot::Create(*setup.predictor, 1),
                            service_options);
  ObservationLog log(&service);
  contender::serve::RefitOptions refit_options;
  refit_options.min_new_observations = kStepEvery;
  RefitController controller(&service, &log, setup.data.observations,
                             refit_options);
  for (size_t k = 0; k < writes.size(); ++k) {
    CONTENDER_CHECK(log.Ingest(writes[k]).ok());
    if (health->trips() > 0) return writes[k].primary_index;
    if ((k + 1) % kStepEvery == 0) CONTENDER_CHECK(controller.Step().ok());
  }
  return -1;
}

}  // namespace

void RunServeRefit(const RunOptions& options, Report* report) {
  const int readers = std::max(1, options.nproc - 1);
  const int per_reader = kStreamPerReader;
  std::vector<std::vector<Call>> streams;
  std::vector<MixObservation> writes;
  uint64_t digest = 0;
  const contender::scenario::Scenario* scenario =
      contender::scenario::FindScenario(contender::scenario::kPoissonSteadyName);
  CONTENDER_CHECK(scenario != nullptr);

  Tracer tracer;
  Tracer* spans = options.trace ? &tracer : nullptr;
  const Setup setup = RunSetup(
      options,
      [&](const Setup& s) {
        // Primary templates come from a poisson-steady trace (uniform
        // template draws); co-runner counts and templates from a seeded Rng.
        contender::scenario::ScenarioParams params;
        params.num_requests = readers * per_reader;
        params.seed = options.seed;
        auto trace = scenario->GenerateTrace(s.reference, params);
        CONTENDER_CHECK(trace.ok()) << trace.status();
        const uint64_t num_templates = s.reference.size();
        Rng rng(options.seed ^ 0x5e57e5eedULL);
        streams.assign(static_cast<size_t>(readers), {});
        std::vector<contender::sched::Request> encoded;
        for (const contender::sched::Request& r : trace->requests) {
          Call call;
          call.template_index = r.template_index;
          // Co-runners are redrawn until the full model covers the mix: a
          // (template, MPL) pair the training data never covered would be
          // answered by the transfer tier, and every answer must be tier 0.
          do {
            call.concurrent.clear();
            const uint64_t mix = rng.UniformInt(4);
            for (uint64_t j = 0; j < mix; ++j) {
              call.concurrent.push_back(
                  static_cast<int>(rng.UniformInt(num_templates)));
            }
          } while (!Covered(*s.predictor, call.template_index,
                            call.concurrent));
          // The digest covers every slot of every call: slot 0 is the
          // primary, slots 1..3 its co-runners.
          for (size_t slot = 0; slot <= call.concurrent.size(); ++slot) {
            contender::sched::Request e = r;
            e.request_id = static_cast<int>(encoded.size());
            e.tenant_id = static_cast<int>(slot);
            e.template_index =
                slot == 0 ? call.template_index : call.concurrent[slot - 1];
            encoded.push_back(e);
          }
          streams[static_cast<size_t>(r.request_id % readers)].push_back(
              std::move(call));
        }
        // The writer's perturbed training observations: a seeded shuffle
        // of the training observations the initial model scores inside the
        // breaker's healthy band, each latency scaled by a factor in
        // [0.97, 1.03). The writer's ingest/refit sequence is
        // deterministic, so it is replayed here once without readers; a
        // template whose breaker trips is dropped and the draw repeated.
        // Every answer of the measured repetitions then stays at tier 0,
        // and the audit can recompute each one on its snapshot.
        PredictionService::Options scratch_options;
        scratch_options.num_threads = 1;
        PredictionService scratch(ModelSnapshot::Create(*s.predictor, 1),
                                  scratch_options);
        ObservationLog scoring(&scratch);
        std::vector<const MixObservation*> healthy;
        for (const MixObservation& obs : s.data.observations) {
          auto scored = scoring.Ingest(obs);
          CONTENDER_CHECK(scored.ok()) << scored.status();
          if (std::abs(scored->continuum_residual) < kHealthyResidual &&
              Covered(*s.predictor, obs.primary_index,
                      obs.concurrent_indices)) {
            healthy.push_back(&obs);
          }
        }
        for (;;) {
          CONTENDER_CHECK(!healthy.empty());
          Rng draw(options.seed ^ 0xd1ceULL);
          const std::vector<int> order =
              draw.Permutation(static_cast<int>(healthy.size()));
          writes.clear();
          for (int k = 0; k < kObservations; ++k) {
            MixObservation obs = *healthy[static_cast<size_t>(
                order[static_cast<size_t>(k) % order.size()])];
            obs.latency = obs.latency * draw.Uniform(0.97, 1.03);
            writes.push_back(obs);
          }
          const int tripped = FirstTrip(s, writes);
          if (tripped < 0) break;
          std::erase_if(healthy, [&](const MixObservation* o) {
            return o->primary_index == tripped;
          });
        }
        for (const MixObservation& obs : writes) {
          contender::sched::Request e;
          e.request_id = static_cast<int>(encoded.size());
          e.template_index = obs.primary_index;
          e.tenant_id = obs.mpl;
          e.arrival_time = obs.latency;
          encoded.push_back(e);
        }
        digest = contender::scenario::TraceDigest(encoded);
      },
      spans);
  report->Note("trace_digest: " + std::to_string(digest) + " (" +
               std::to_string(readers) + " readers x " +
               std::to_string(per_reader) + " calls, " +
               std::to_string(kObservations) + " observations)");

  std::vector<double> wall_us, exponent, p50, p99, qps, pred_err;
  std::vector<double> serve_ns, ingest_us, step_ms, tier_frac, overhead;
  uint64_t refits = 0;
  const int reps = Repeat(options.seconds, 3, 1000, [&](int rep) {
    tracer.set_run(rep);
    const RepResult plain = RunRep(setup, streams, writes, false, nullptr,
                                   &report->checks);
    wall_us.push_back(plain.wall_s * 1e6 / static_cast<double>(plain.answers));
    exponent.push_back(std::log(plain.writer_full_s / plain.writer_quarter_s) /
                       std::log(4.0));
    p50.push_back(plain.p50_us);
    p99.push_back(plain.p99_us);
    qps.push_back(static_cast<double>(plain.answers) / plain.wall_s);
    pred_err.push_back(plain.pred_err);
    if (!options.trace) return;
    const RepResult t = [&] {
      ScopedSpan span(spans, "serve.rep");
      return RunRep(setup, streams, writes, true, spans, &report->checks);
    }();
    overhead.push_back(t.wall_s - plain.wall_s);
    serve_ns.push_back(t.reader_call_ns);
    ingest_us.push_back(t.ingest_s * 1e6 / kObservations);
    step_ms.push_back(t.step_s * 1e3 / (kObservations / kStepEvery));
    tier_frac.push_back(t.tier_full_frac);
    refits = t.refits;
  });
  report->Note("repetitions: " + std::to_string(reps) +
               "; wall_us_per_request by repetition: " + Series(wall_us));
  report->Note("serve_qps: " + Num(Median(qps)) + " 1/s");
  report->Note("predict_p50_us: " + Num(Median(p50)) + " us");
  report->Note("predict_p99_us: " + Num(Median(p99)) + " us");
  report->Add("core.pred_err", Median(pred_err), "1");

  if (!options.trace) {
    report->Add("setup_s", setup.setup_s, "s");
    report->Add("peak_rss_mb", PeakRssMb(), "MB");
    report->Add("wall_us_per_request", QuietCost(wall_us, 1), "us");
    report->Add("scaling_exp", Median(exponent), "1");
    return;
  }
  std::vector<std::pair<int, std::vector<int>>> pairs;
  for (const Call& call : streams.front()) {
    pairs.emplace_back(call.template_index, call.concurrent);
  }
  AddSetupLayers(setup, report);
  report->Add("core.predict_ns",
              TimeCorePredict(*setup.predictor, pairs, spans), "ns");
  report->Add("serve.predict_ns", Median(serve_ns), "ns");
  report->Add("serve.ingest_us", Median(ingest_us), "us");
  report->Add("serve.refit_step_ms", Median(step_ms), "ms");
  report->Add("serve.refits", static_cast<double>(refits), "count");
  report->Add("serve.tier_full_frac", Median(tier_frac), "1");
  report->Add("trace.overhead_s", Median(overhead), "s");
  FinishTrace(tracer, options, report);
}

}  // namespace perfbench
