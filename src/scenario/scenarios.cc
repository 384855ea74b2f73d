#include "scenario/scenarios.h"

#include <algorithm>
#include <cmath>

#include "scenario/interarrival.h"
#include "util/logging.h"

namespace contender::scenario {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

/// Draws one template uniformly from `window` — the shared template draw
/// of every non-skewed scenario.
int UniformTemplate(Rng* rng, const std::vector<int>& window) {
  return window[static_cast<size_t>(
      rng->UniformInt(static_cast<uint64_t>(window.size())))];
}

/// Inverse-CDF draw over precomputed cumulative weights (last entry 1.0).
size_t CumulativeDraw(Rng* rng, const std::vector<double>& cumulative) {
  const double u = rng->Uniform01();
  const auto it =
      std::upper_bound(cumulative.begin(), cumulative.end(), u);
  const size_t i =
      static_cast<size_t>(std::distance(cumulative.begin(), it));
  return std::min(i, cumulative.size() - 1);
}

}  // namespace

// ---------------------------------------------------------------------------
// PoissonSteady

void PoissonSteady::FillTenantStream(
    const std::vector<units::Seconds>& reference_latencies,
    const ScenarioParams& params, const TenantPlan& plan, Rng* rng,
    std::vector<sched::Request>* out,
    std::map<std::string, double>* stats) const {
  (void)stats;
  units::Seconds clock;
  for (int k = 0; k < plan.num_requests; ++k) {
    sched::Request r;
    // Draw order template, gap, deadline; scenario_parity_test pins it.
    r.template_index = UniformTemplate(rng, plan.templates);
    if (plan.gap_before_first || k > 0) {
      clock += ExponentialGap(rng, plan.mean_gap);
    }
    r.arrival_time = clock;
    r.deadline = MaybeDeadline(
        rng, params.deadline_probability, params.min_slack, params.max_slack,
        clock, reference_latencies[static_cast<size_t>(r.template_index)]);
    out->push_back(r);
  }
}

// ---------------------------------------------------------------------------
// DiurnalCycle

static_assert(DiurnalCycle::kAmplitude >= 0.0 &&
                  DiurnalCycle::kAmplitude < 1.0,
              "diurnal amplitude must be in [0, 1)");
static_assert(DiurnalCycle::kPeriodGaps > 0.0);

void DiurnalCycle::FillTenantStream(
    const std::vector<units::Seconds>& reference_latencies,
    const ScenarioParams& params, const TenantPlan& plan, Rng* rng,
    std::vector<sched::Request>* out,
    std::map<std::string, double>* stats) const {
  // Thinning (Lewis–Shedler): candidates at the peak rate, accepted with
  // probability rate(t)/peak. The accepted stream is an inhomogeneous
  // Poisson process with rate (1 + A sin(2π t / period)) / mean_gap.
  const units::Seconds period = params.mean_interarrival * kPeriodGaps;
  const units::Seconds peak_gap = plan.mean_gap * (1.0 / (1.0 + kAmplitude));
  units::Seconds clock;
  double candidates = 0.0;
  for (int k = 0; k < plan.num_requests; ++k) {
    bool first_candidate = true;
    for (;;) {
      if (plan.gap_before_first || k > 0 || !first_candidate) {
        clock += ExponentialGap(rng, peak_gap);
      }
      first_candidate = false;
      candidates += 1.0;
      const double phase = kTwoPi * clock.value() / period.value();
      const double accept =
          (1.0 + kAmplitude * std::sin(phase)) / (1.0 + kAmplitude);
      if (rng->Uniform01() < accept) break;
    }
    sched::Request r;
    r.template_index = UniformTemplate(rng, plan.templates);
    r.arrival_time = clock;
    r.deadline = MaybeDeadline(
        rng, params.deadline_probability, params.min_slack, params.max_slack,
        clock, reference_latencies[static_cast<size_t>(r.template_index)]);
    out->push_back(r);
  }
  (*stats)["diurnal.candidates"] += candidates;
}

// ---------------------------------------------------------------------------
// FlashCrowd

static_assert(FlashCrowd::kBurstRateMultiplier > 0.0);
static_assert(FlashCrowd::kQuietRateMultiplier > 0.0);
static_assert(FlashCrowd::kQuietSojournGaps > 0.0);
static_assert(FlashCrowd::kBurstSojournGaps > 0.0);

void FlashCrowd::FillTenantStream(
    const std::vector<units::Seconds>& reference_latencies,
    const ScenarioParams& params, const TenantPlan& plan, Rng* rng,
    std::vector<sched::Request>* out,
    std::map<std::string, double>* stats) const {
  // 2-state MMPP. Sojourn times are exponential, so discarding the
  // partial gap at a state switch and redrawing from the new state's rate
  // is distributionally exact (memorylessness) — and keeps every draw
  // flowing through the one seeded Rng in a fixed order.
  units::Seconds clock;
  bool burst = false;
  units::Seconds next_switch =
      clock + ExponentialGap(rng, plan.mean_gap * kQuietSojournGaps);
  double switches = 0.0;
  double burst_requests = 0.0;
  for (int k = 0; k < plan.num_requests; ++k) {
    bool emitted_at_clock = false;
    if (!plan.gap_before_first && k == 0) {
      // Single-node contract: the stream starts at t = 0.
      emitted_at_clock = true;
    }
    while (!emitted_at_clock) {
      const double multiplier =
          burst ? kBurstRateMultiplier : kQuietRateMultiplier;
      const units::Seconds candidate =
          clock + ExponentialGap(rng, plan.mean_gap * (1.0 / multiplier));
      if (candidate < next_switch) {
        clock = candidate;
        emitted_at_clock = true;
        break;
      }
      clock = next_switch;
      burst = !burst;
      switches += 1.0;
      const double sojourn_gaps =
          burst ? kBurstSojournGaps : kQuietSojournGaps;
      next_switch = clock + ExponentialGap(rng, plan.mean_gap * sojourn_gaps);
    }
    sched::Request r;
    r.template_index = UniformTemplate(rng, plan.templates);
    r.arrival_time = clock;
    r.deadline = MaybeDeadline(
        rng, params.deadline_probability, params.min_slack, params.max_slack,
        clock, reference_latencies[static_cast<size_t>(r.template_index)]);
    out->push_back(r);
    if (burst) burst_requests += 1.0;
  }
  (*stats)["mmpp.switches"] += switches;
  (*stats)["mmpp.burst_requests"] += burst_requests;
}

// ---------------------------------------------------------------------------
// HeavyTailTenants

static_assert(HeavyTailTenants::kMinRateSkew >= 0.0);
static_assert(HeavyTailTenants::kTemplateSkew >= 0.0);

double HeavyTailTenants::TenantRateSkew(const ScenarioParams& params) const {
  // NaN propagates so the driver's skew validation still rejects it.
  if (!(params.skew >= 0.0)) return params.skew;
  return std::max(params.skew, kMinRateSkew);
}

void HeavyTailTenants::FillTenantStream(
    const std::vector<units::Seconds>& reference_latencies,
    const ScenarioParams& params, const TenantPlan& plan, Rng* rng,
    std::vector<sched::Request>* out,
    std::map<std::string, double>* stats) const {
  // Zipf over the tenant's window by position: weight(j) ∝ (j+1)^-s.
  std::vector<double> cumulative(plan.templates.size());
  double total = 0.0;
  for (size_t j = 0; j < plan.templates.size(); ++j) {
    total += std::pow(static_cast<double>(j + 1), -kTemplateSkew);
    cumulative[j] = total;
  }
  for (double& c : cumulative) c /= total;

  double head_requests = 0.0;
  units::Seconds clock;
  for (int k = 0; k < plan.num_requests; ++k) {
    sched::Request r;
    const size_t pick = CumulativeDraw(rng, cumulative);
    r.template_index = plan.templates[pick];
    if (pick == 0) head_requests += 1.0;
    if (plan.gap_before_first || k > 0) {
      clock += ExponentialGap(rng, plan.mean_gap);
    }
    r.arrival_time = clock;
    r.deadline = MaybeDeadline(
        rng, params.deadline_probability, params.min_slack, params.max_slack,
        clock, reference_latencies[static_cast<size_t>(r.template_index)]);
    out->push_back(r);
  }
  (*stats)["zipf.head_requests"] += head_requests;
}

// ---------------------------------------------------------------------------
// AdHocNovel

// Positive, so every request draws its novel-coin.
static_assert(AdHocNovel::kNovelProbability > 0.0 &&
              AdHocNovel::kNovelProbability <= 1.0);

std::vector<int> AdHocNovel::NovelTemplates(int num_templates) {
  CONTENDER_CHECK(num_templates > 0);
  const int held_out = std::max(1, num_templates / 5);
  std::vector<int> novel;
  novel.reserve(static_cast<size_t>(held_out));
  for (int t = num_templates - held_out; t < num_templates; ++t) {
    novel.push_back(t);
  }
  return novel;
}

void AdHocNovel::FillTenantStream(
    const std::vector<units::Seconds>& reference_latencies,
    const ScenarioParams& params, const TenantPlan& plan, Rng* rng,
    std::vector<sched::Request>* out,
    std::map<std::string, double>* stats) const {
  const std::vector<int> novel =
      NovelTemplates(static_cast<int>(reference_latencies.size()));
  // Base pool: the tenant's window minus the held-out slice. A window
  // living entirely inside the held-out slice falls back to the window
  // itself (every request is then novel-by-construction).
  std::vector<int> base;
  for (int t : plan.templates) {
    if (!std::binary_search(novel.begin(), novel.end(), t)) {
      base.push_back(t);
    }
  }
  const bool window_all_novel = base.empty();
  if (window_all_novel) base = plan.templates;

  double novel_requests = 0.0;
  units::Seconds clock;
  for (int k = 0; k < plan.num_requests; ++k) {
    sched::Request r;
    // Draw order: novel-coin, template, gap, deadline.
    const bool inject = rng->Uniform01() < kNovelProbability;
    if (inject) {
      r.template_index = UniformTemplate(rng, novel);
    } else {
      r.template_index = UniformTemplate(rng, base);
    }
    if (inject || window_all_novel) novel_requests += 1.0;
    if (plan.gap_before_first || k > 0) {
      clock += ExponentialGap(rng, plan.mean_gap);
    }
    r.arrival_time = clock;
    r.deadline = MaybeDeadline(
        rng, params.deadline_probability, params.min_slack, params.max_slack,
        clock, reference_latencies[static_cast<size_t>(r.template_index)]);
    out->push_back(r);
  }
  (*stats)["adhoc.novel_requests"] += novel_requests;
}

// ---------------------------------------------------------------------------
// MixedRefresh

static_assert(MixedRefresh::kPeriodGaps > 0.0);
static_assert(MixedRefresh::kStormSize > 0);

std::vector<int> MixedRefresh::RefreshTemplates(int num_templates) {
  CONTENDER_CHECK(num_templates > 0);
  const int width = std::max(1, num_templates / 10);
  std::vector<int> refresh;
  refresh.reserve(static_cast<size_t>(width));
  for (int t = 0; t < width; ++t) refresh.push_back(t);
  return refresh;
}

void MixedRefresh::FillTenantStream(
    const std::vector<units::Seconds>& reference_latencies,
    const ScenarioParams& params, const TenantPlan& plan, Rng* rng,
    std::vector<sched::Request>* out,
    std::map<std::string, double>* stats) const {
  const std::vector<int> refresh =
      RefreshTemplates(static_cast<int>(reference_latencies.size()));
  // OLAP pool: the window minus the refresh set (falling back to the
  // whole window when the window is nothing but refresh templates).
  std::vector<int> olap;
  for (int t : plan.templates) {
    if (!std::binary_search(refresh.begin(), refresh.end(), t)) {
      olap.push_back(t);
    }
  }
  if (olap.empty()) olap = plan.templates;

  // Storms fire at absolute multiples of the period (not offsets into the
  // tenant's own stream), so in fleet mode every tenant's refresh burst
  // lands at the same instant — a genuinely synchronized ETL window.
  const units::Seconds period = params.mean_interarrival * kPeriodGaps;
  // Requests inside a storm are spaced one millisecond apart so queue
  // order stays deterministic without colliding arrivals.
  const units::Seconds storm_spacing(1e-3);
  units::Seconds next_storm = period;
  units::Seconds clock;
  double storm_requests = 0.0;
  int emitted = 0;
  bool first = true;
  while (emitted < plan.num_requests) {
    units::Seconds candidate = clock;
    if (plan.gap_before_first || !first) {
      candidate = clock + ExponentialGap(rng, plan.mean_gap);
    }
    first = false;
    if (candidate >= next_storm) {
      for (int j = 0; j < kStormSize && emitted < plan.num_requests;
           ++j, ++emitted) {
        sched::Request r;
        r.template_index = UniformTemplate(rng, refresh);
        r.arrival_time = next_storm + storm_spacing * static_cast<double>(j);
        r.deadline = MaybeDeadline(rng, params.deadline_probability,
                                   params.min_slack, params.max_slack,
                                   r.arrival_time,
                                   reference_latencies[static_cast<size_t>(
                                       r.template_index)]);
        out->push_back(r);
        storm_requests += 1.0;
      }
      clock = next_storm;
      next_storm += period;
      continue;
    }
    clock = candidate;
    sched::Request r;
    r.template_index = UniformTemplate(rng, olap);
    r.arrival_time = clock;
    r.deadline = MaybeDeadline(
        rng, params.deadline_probability, params.min_slack, params.max_slack,
        clock, reference_latencies[static_cast<size_t>(r.template_index)]);
    out->push_back(r);
    ++emitted;
  }
  (*stats)["refresh.storm_requests"] += storm_requests;
}

// ---------------------------------------------------------------------------
// The table

const std::vector<const Scenario*>& AllScenarios() {
  // Sorted by name. A new scenario is one line here.
  static const std::vector<const Scenario*>* const table =
      new std::vector<const Scenario*>{
          new AdHocNovel(),
          new DiurnalCycle(),
          new FlashCrowd(),
          new HeavyTailTenants(),
          new MixedRefresh(),
          new PoissonSteady(),
      };
  return *table;
}

const Scenario* FindScenario(const std::string& name) {
  for (const Scenario* scenario : AllScenarios()) {
    if (name == scenario->name()) return scenario;
  }
  return nullptr;
}

}  // namespace contender::scenario
