#include "sched/simulator.h"

#include <algorithm>
#include <utility>

#include "sim/engine.h"
#include "util/logging.h"
#include "util/random.h"

namespace contender::sched {

ScheduleSimulator::ScheduleSimulator(const Workload* workload,
                                     const sim::SimConfig& config)
    : workload_(workload), config_(config) {
  CONTENDER_CHECK(workload_ != nullptr);
}

StatusOr<ScheduleResult> ScheduleSimulator::Run(
    const std::vector<Request>& requests, Policy* policy, MixOracle* oracle,
    const ScheduleOptions& options) const {
  if (policy == nullptr || oracle == nullptr) {
    return Status::InvalidArgument("ScheduleSimulator: null policy/oracle");
  }
  if (options.target_mpl < 1) {
    return Status::InvalidArgument("ScheduleSimulator: target_mpl < 1");
  }
  const size_t n = requests.size();
  std::vector<bool> seen(n, false);
  for (const Request& r : requests) {
    if (r.request_id < 0 || static_cast<size_t>(r.request_id) >= n ||
        seen[static_cast<size_t>(r.request_id)]) {
      return Status::InvalidArgument(
          "ScheduleSimulator: request ids must be dense and unique");
    }
    seen[static_cast<size_t>(r.request_id)] = true;
    if (r.template_index < 0 || r.template_index >= workload_->size()) {
      return Status::InvalidArgument(
          "ScheduleSimulator: template index outside the workload");
    }
  }

  // Draw every query instance up front, in request-id order: the executed
  // workload is identical for every policy (and for repeated runs with the
  // same seed), so schedules are compared on ordering alone.
  Rng rng(options.seed);
  const uint64_t engine_seed = rng.Next();
  std::vector<int> template_by_id(n, -1);
  for (const Request& r : requests) {
    template_by_id[static_cast<size_t>(r.request_id)] = r.template_index;
  }
  std::vector<sim::QuerySpec> specs(n);
  for (size_t id = 0; id < n; ++id) {
    specs[id] = workload_->Instantiate(template_by_id[id], &rng);
  }

  sim::Engine engine(config_, engine_seed);
  RequestQueue queue(requests);
  std::vector<int> running;  // template indices, admitted and unfinished
  std::vector<int> pid_to_request;
  int in_flight = 0;
  overload::NodeOverloadControl control(options.overload, options.target_mpl);

  ScheduleResult result;
  result.outcomes.resize(n);
  Status loop_status = Status::OK();

  // Grants every free slot it can: picks from the arrived prefix, or — when
  // the queue holds only future arrivals — advances the decision instant to
  // the earliest arrival and pre-schedules the admission there (the engine
  // activates it at that time). Pre-scheduled admissions commit against the
  // mix known at decision time; this only affects the choice among
  // same-instant arrival batches wider than the free slots.
  auto admit_free_slots = [&](units::Seconds now) -> Status {
    while (in_flight < control.EffectiveLimit() &&
           !queue.empty()) {
      const units::Seconds t = std::max(now, queue.NextArrival());
      // CoDel head-of-queue shedding: the oldest arrived request measures
      // the standing queue delay; when that delay has persisted above
      // target for a full interval, drop it (stamped kQueueDelay) instead
      // of starting it. Critical-tier work is exempt.
      if (queue.ArrivedBy(t) > 0) {
        const Request& head = queue.at(0);
        if (head.criticality < overload::Criticality::kCritical &&
            control.ShouldShedQueueHead(t, t - head.arrival_time)) {
          const Request r = queue.Take(0);
          RequestOutcome& out =
              result.outcomes[static_cast<size_t>(r.request_id)];
          out.request = r;
          out.queue_wait = t - r.arrival_time;
          out.shed = true;
          out.shed_reason = overload::ShedReason::kQueueDelay;
          continue;
        }
      }
      SchedContext ctx{t, &running, oracle};
      CONTENDER_ASSIGN_OR_RETURN(const size_t pick,
                                 policy->Pick(queue, ctx));
      if (pick >= queue.ArrivedBy(t)) {
        return Status::Internal("policy picked a request that has not "
                                "arrived at the decision instant");
      }
      const Request r = queue.Take(pick);
      RequestOutcome& out =
          result.outcomes[static_cast<size_t>(r.request_id)];
      out.request = r;
      out.admit_time = t;
      out.queue_wait = t - r.arrival_time;
      out.predicted_latency = oracle->PredictInMix(r.template_index, running);
      out.mix_size_at_admission = static_cast<int>(running.size());
      // Each request is admitted once, so its spec moves into the engine.
      const int pid = engine.AddProcess(
          std::move(specs[static_cast<size_t>(r.request_id)]), t);
      if (static_cast<size_t>(pid) >= pid_to_request.size()) {
        pid_to_request.resize(static_cast<size_t>(pid) + 1, -1);
      }
      pid_to_request[static_cast<size_t>(pid)] = r.request_id;
      running.push_back(r.template_index);
      ++in_flight;
    }
    return Status::OK();
  };

  engine.SetCompletionCallback([&](const sim::ProcessResult& res) {
    const int request_id = pid_to_request[static_cast<size_t>(res.process_id)];
    CONTENDER_CHECK(request_id >= 0);
    RequestOutcome& out = result.outcomes[static_cast<size_t>(request_id)];
    out.completion_time = units::Seconds(res.end_time);
    out.execution_latency = res.latency();
    out.response_time = out.completion_time - out.request.arrival_time;
    out.completed = true;
    if (out.request.deadline.has_value() &&
        out.completion_time > *out.request.deadline) {
      out.missed_deadline = true;
    }
    result.makespan = std::max(result.makespan, out.completion_time);

    auto slot = std::find(running.begin(), running.end(),
                          out.request.template_index);
    CONTENDER_CHECK(slot != running.end());
    running.erase(slot);
    --in_flight;
    control.OnCompletion(out.predicted_latency, out.execution_latency);

    if (loop_status.ok()) {
      const Status s = admit_free_slots(engine.now());
      if (!s.ok()) {
        loop_status = s;
        engine.RequestStop();
      }
    }
  });

  CONTENDER_RETURN_IF_ERROR(admit_free_slots(units::Seconds(0.0)));
  CONTENDER_RETURN_IF_ERROR(engine.Run());
  CONTENDER_RETURN_IF_ERROR(loop_status);
  for (const RequestOutcome& out : result.outcomes) {
    if (!out.completed && !out.shed) {
      return Status::Internal("request never completed");
    }
  }
  result.final_admission_limit = control.EffectiveLimit();
  result.limit_increases = control.limiter().increases();
  result.limit_decreases = control.limiter().decreases();
  result.queue_sheds = control.queue_sheds();
  return result;
}

}  // namespace contender::sched
