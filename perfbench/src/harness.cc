#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

#include "sim/run_cache.h"
#include "util/logging.h"

namespace perfbench {

using contender::ContenderPredictor;
using contender::WorkloadSampler;

int Tracer::Begin(const std::string& name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(
      {name, NowNs(), 0, open_.empty() ? -1 : open_.back(), run_});
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  CONTENDER_CHECK(!open_.empty() && open_.back() == id)
      << "span " << spans_[static_cast<size_t>(id)].name
      << " closed out of order";
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  open_.pop_back();
}

int Tracer::Add(const std::string& name, int64_t start_ns, int64_t end_ns) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(
      {name, start_ns, end_ns, open_.empty() ? -1 : open_.back(), run_});
  return id;
}

std::map<std::string, Tracer::Totals> Tracer::Summarize() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::map<std::string, Totals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the child intervals, clipped to the parent: children timed
    // on parallel workers may overlap each other.
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = s.start_ns;
    for (const auto& [begin, end] : kids) {
      const int64_t from = std::max(begin, cursor);
      const int64_t to = std::min(end, s.end_ns);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    Totals& t = totals[s.name];
    ++t.count;
    t.total_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    t.self_s += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return totals;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"run\": " << s.run << "}\n";
  }
  return static_cast<bool>(out);
}

int PoolWidth(const RunOptions& options) {
  return std::max(1, std::min(4, options.nproc));
}

double Median(std::vector<double> v) {
  CONTENDER_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double QuietCost(const std::vector<double>& costs, int streams) {
  CONTENDER_CHECK(streams >= 1 && costs.size() >= static_cast<size_t>(streams));
  double sum = 0.0;
  for (int k = 0; k < streams; ++k) {
    std::vector<double> mine;
    for (size_t i = static_cast<size_t>(k); i < costs.size();
         i += static_cast<size_t>(streams)) {
      mine.push_back(costs[i]);
    }
    std::sort(mine.begin(), mine.end());
    sum += mine[(mine.size() - 1) / 10];
  }
  return sum / streams;
}

Setup RunSetup(const RunOptions& options,
               const TraceGenerator& generate, Tracer* tracer) {
  Setup setup;
  std::vector<double> total, collect, train, generate_ms;
  for (int i = 0; i <= kSetupRepeats; ++i) {  // iteration 0 is a warm-up
    ScopedSpan span(tracer, "setup");
    const Clock::time_point start = Clock::now();

    contender::sim::RunCache cache;
    WorkloadSampler::Options sampler_options;
    sampler_options.seed = options.seed;
    sampler_options.threads = PoolWidth(options);
    sampler_options.cache = &cache;
    WorkloadSampler sampler(&setup.workload, setup.config, sampler_options);
    contender::StatusOr<contender::TrainingData> data =
        contender::Status::Internal("not collected");
    {
      ScopedSpan collect_span(tracer, "workload.CollectAll");
      data = sampler.CollectAll();
    }
    CONTENDER_CHECK(data.ok()) << data.status();
    const double collected = SecondsSince(start);

    ContenderPredictor::Options predictor_options;
    predictor_options.train_threads = PoolWidth(options);
    contender::StatusOr<ContenderPredictor> predictor =
        contender::Status::Internal("not trained");
    {
      ScopedSpan train_span(tracer, "core.Train");
      predictor = ContenderPredictor::Train(
          data->profiles, data->scan_times, data->observations,
          predictor_options);
    }
    CONTENDER_CHECK(predictor.ok()) << predictor.status();
    const double trained = SecondsSince(start);

    setup.data = std::move(*data);
    setup.predictor =
        std::make_unique<ContenderPredictor>(std::move(*predictor));
    setup.reference.clear();
    for (const contender::TemplateProfile& p : setup.data.profiles) {
      setup.reference.push_back(p.isolated_latency);
    }
    {
      ScopedSpan generate_span(tracer, "scenario.Generate");
      generate(setup);
    }
    const double done = SecondsSince(start);
    setup.sim_runs = cache.misses();
    if (i == 0) continue;

    total.push_back(done);
    collect.push_back(collected);
    train.push_back(trained - collected);
    generate_ms.push_back((done - trained) * 1e3);
  }
  setup.setup_s = Median(total);
  setup.collect_s = Median(collect);
  setup.train_s = Median(train);
  setup.generate_ms = Median(generate_ms);
  return setup;
}

int Repeat(double seconds, int min_reps, int max_reps,
           const std::function<void(int)>& rep) {
  const Clock::time_point start = Clock::now();
  int reps = 0;
  while (reps < max_reps && (reps < min_reps || SecondsSince(start) < seconds)) {
    rep(reps++);
  }
  return reps;
}

void Checks::Expect(bool ok, const std::string& what, uint64_t weight) {
  if (ok) return;
  failed_ += weight;
  if (messages_.size() < 8) messages_.push_back(what);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Series(const std::vector<double>& values) {
  std::string out;
  char buf[32];
  for (double v : values) {
    std::snprintf(buf, sizeof(buf), "%s%.4g", out.empty() ? "" : " ", v);
    out += buf;
  }
  return out;
}

void FinishTrace(const Tracer& tracer, const RunOptions& options,
                 Report* report) {
  for (const auto& [name, t] : tracer.Summarize()) {
    report->Note("span " + name + ": calls " + std::to_string(t.count) +
                 ", total_s " + Num(t.total_s) + ", self_s " + Num(t.self_s));
  }
  if (!options.trace_out.empty() && !tracer.Write(options.trace_out)) {
    report->Note("could not write spans to " + options.trace_out);
  }
}

void AddSetupLayers(const Setup& setup, Report* report) {
  report->Add("workload.collect_s", setup.collect_s, "s");
  report->Add("workload.sim_runs", static_cast<double>(setup.sim_runs),
              "count");
  report->Add("core.train_s", setup.train_s, "s");
  report->Add("scenario.generate_ms", setup.generate_ms, "ms");
}

}  // namespace perfbench
