// The repository benchmark binary: runs one named workload at one seed,
// checks its outputs, and prints the environment, human-readable notes and
// every metric it measured. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   perfbench --workload=sched-backlog --seed=42 --seconds=20 --trace=0
//       [--trace_out=spans.jsonl] [--commit=<id>]
//
// --trace=0 reports end-to-end metrics; --trace=1 runs the traced variant
// and reports per-layer metrics plus the tracing overhead.

#include <unistd.h>

#include <algorithm>
#include <iostream>
#include <string>

#include "harness.h"
#include "util/flags.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

bool SanitizedBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

bool DebugBuild() {
#ifdef NDEBUG
  return false;
#else
  return true;
#endif
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  contender::Flags flags(argc, argv);
  perfbench::RunOptions options;
  options.workload = flags.GetString("workload", "");
  options.seed = flags.Seed();
  options.seconds = flags.GetDouble("seconds", 10.0);
  options.trace = flags.GetInt("trace", 0) != 0;
  options.trace_out = flags.GetString("trace_out", "");
  options.commit = flags.GetString("commit", "unknown");
  options.nproc = std::max(1, static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)));

  std::cout << "env: {\"nproc\": " << options.nproc
            << ", \"compiler\": " << Quote(__VERSION__)
            << ", \"build_type\": " << Quote(PERFBENCH_BUILD_TYPE)
            << ", \"commit\": " << Quote(options.commit) << "}\n";
  if (DebugBuild() || SanitizedBuild()) {
    std::cerr << "perfbench: refusing to report numbers from a debug or "
                 "sanitizer build\n";
    return 3;
  }

  perfbench::Report report;
  if (options.workload == "sched-backlog") {
    perfbench::RunSchedBacklog(options, &report);
  } else if (options.workload == "fleet-skewed") {
    perfbench::RunFleetSkewed(options, &report);
  } else if (options.workload == "serve-refit") {
    perfbench::RunServeRefit(options, &report);
  } else {
    std::cerr << "perfbench: unknown --workload '" << options.workload
              << "' (sched-backlog, fleet-skewed, serve-refit)\n";
    return 2;
  }

  std::cout << "workload: " << options.workload << " seed " << options.seed
            << (options.trace ? " (traced)" : "") << "\n";
  for (const std::string& note : report.notes) std::cout << note << "\n";
  for (const std::string& message : report.checks.messages()) {
    std::cout << "check failed: " << message << "\n";
  }
  for (const perfbench::Metric& m : report.metrics) {
    std::cout << "metric " << m.name << " = " << perfbench::Num(m.value)
              << " " << m.unit << "\n";
  }
  std::cout << "{\"correct\": "
            << (report.checks.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << report.checks.attempted()
            << ", \"failed\": " << report.checks.failed()
            << ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    std::cout << (i == 0 ? "" : ", ") << Quote(m.name)
              << ": {\"value\": " << perfbench::Num(m.value)
              << ", \"unit\": " << Quote(m.unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}
