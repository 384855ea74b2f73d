// Shared machinery for the repository benchmark: run options, the timed
// set-up (sampling + training + trace generation), an in-memory span
// tracer, repetition/median helpers, correctness bookkeeping and the
// result line.
//
// Every layer is measured from outside: spans wrap calls into a module's
// public functions, never code inside the module.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/predictor.h"
#include "sched/simulator.h"
#include "sim/config.h"
#include "workload/sampler.h"
#include "workload/workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct RunOptions {
  std::string workload;
  uint64_t seed = 42;
  /// Measurement budget: repetitions continue until it is spent.
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (empty = do not write).
  std::string trace_out;
  std::string commit = "unknown";
  /// Host width; the load never uses more threads than this.
  int nproc = 1;
};

/// One recorded span. Times are nanoseconds since the tracer's epoch.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the enclosing span, -1 for a root.
  int parent = -1;
  /// Repetition the span belongs to (the "request" id of a benchmark run).
  int run = 0;
};

/// In-memory span recorder. Begin/End nest on the calling thread; spans
/// timed on worker threads are handed over with Add after the workers are
/// joined, so the tracer itself is never shared between threads.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }
  /// Opens a span under the innermost open one.
  int Begin(const std::string& name);
  void End(int id);
  /// Adds a span timed elsewhere (parent = innermost open span).
  int Add(const std::string& name, int64_t start_ns, int64_t end_ns);
  void set_run(int run) { run_ = run; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per-name totals: call count, total duration and self time (duration
  /// minus the union of child spans inside it), in seconds.
  struct Totals {
    uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, Totals> Summarize() const;

  /// Writes one JSON object per span to `path`.
  bool Write(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int run_ = 0;
};

/// RAII span; a no-op when the tracer is null (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// The trained system every workload starts from.
struct Setup {
  contender::Workload workload = contender::Workload::Paper();
  contender::sim::SimConfig config;
  contender::TrainingData data;
  std::unique_ptr<contender::ContenderPredictor> predictor;
  /// Isolated latency per template (the traces' reference latencies).
  std::vector<contender::units::Seconds> reference;

  /// Median over the set-up repetitions, seconds / milliseconds.
  double setup_s = 0.0;
  double collect_s = 0.0;
  double train_s = 0.0;
  double generate_ms = 0.0;
  /// Simulator runs CollectAll executed (misses of its fresh RunCache).
  uint64_t sim_runs = 0;
};

/// Generates the workload's input trace from the trained set-up; timed as
/// part of set-up. Called once per set-up repetition.
using TraceGenerator = std::function<void(const Setup&)>;

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupRepeats = 5;

/// Runs CollectAll (fresh RunCache, pool width min(4, nproc)), Train and
/// `generate` kSetupRepeats times and keeps the last result; the reported
/// times are medians. Spans go to `tracer` when non-null.
Setup RunSetup(const RunOptions& options, const TraceGenerator& generate,
               Tracer* tracer);

/// Threads the load may use beside the caller: min(4, nproc).
int PoolWidth(const RunOptions& options);

double Median(std::vector<double> v);

/// The steady per-request cost of a run whose repetition i measured
/// stream i % streams: the lowest decile of each stream's repetitions
/// (the minimum below ten), averaged over the streams. Other tenants of
/// the host slow repetitions down for seconds at a time, by a quarter and
/// more, and never speed one up, so the fast end of each stream's
/// repetitions is the steady estimate of the code's own cost.
double QuietCost(const std::vector<double>& costs, int streams);

/// Repeats `rep(index)` until `seconds` of wall time have been spent, at
/// least `min_reps` and at most `max_reps` times. Returns the count.
int Repeat(double seconds, int min_reps, int max_reps,
           const std::function<void(int)>& rep);

/// Correctness bookkeeping: operations attempted, operations failed, and
/// the first few failure messages.
class Checks {
 public:
  void Attempt(uint64_t n) { attempted_ += n; }
  /// Counts `weight` failed operations when `ok` is false.
  void Expect(bool ok, const std::string& what, uint64_t weight = 1);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports.
struct Report {
  Checks checks;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Note(const std::string& line) { notes.push_back(line); }
};

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// Formats a double with all its digits.
std::string Num(double v);
/// Formats per-repetition values, 4 significant digits each.
std::string Series(const std::vector<double>& values);

// The workloads. Each fills `report` with the metrics of its mode.
void RunSchedBacklog(const RunOptions& options, Report* report);
void RunFleetSkewed(const RunOptions& options, Report* report);
void RunServeRefit(const RunOptions& options, Report* report);

/// Adds the set-up's per-layer metrics (shared by every workload).
void AddSetupLayers(const Setup& setup, Report* report);

/// Notes every span name's call count, total and self time, and writes the
/// spans to options.trace_out when one is given.
void FinishTrace(const Tracer& tracer, const RunOptions& options,
                 Report* report);

/// Replays a schedule's admitted processes on a fresh sim::Engine: query
/// instances drawn exactly as ScheduleSimulator draws them from `seed`,
/// each added at its admit time. Returns the number of processes.
size_t ReplayEngine(const Setup& setup,
                    const contender::sched::ScheduleResult& result,
                    uint64_t seed, Tracer* tracer);

/// Times single-threaded uncached in-mix predictions over (template,
/// co-runners) pairs, one span per block of calls. Returns ns per call.
double TimeCorePredict(
    const contender::ContenderPredictor& predictor,
    const std::vector<std::pair<int, std::vector<int>>>& pairs,
    Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
