// The built-in scenario suite. AllScenarios() (scenario.h) holds one
// instance of each, in a table in scenarios.cc; the classes are exported
// so tests can read their shape constants and construct one directly.
//
// Shape values are named constants (not ScenarioParams fields), so a
// scenario's behaviour is a pure function of (name, params) — the
// robustness matrix stays reproducible from the table alone.

#ifndef CONTENDER_SCENARIO_SCENARIOS_H_
#define CONTENDER_SCENARIO_SCENARIOS_H_

#include <vector>

#include "scenario/scenario.h"

namespace contender::scenario {

/// Homogeneous Poisson arrivals: the tree's default stream shape. Its
/// streams in both modes equal, draw for draw, the pre-scenario samplers
/// that scenario_parity_test keeps as its reference.
class PoissonSteady : public Scenario {
 public:
  PoissonSteady() = default;

  [[nodiscard]] const char* name() const override { return "poisson-steady"; }
  [[nodiscard]] const char* description() const override {
    return "homogeneous Poisson arrivals (legacy default, parity baseline)";
  }

 protected:
  void FillTenantStream(const std::vector<units::Seconds>& reference_latencies,
                        const ScenarioParams& params, const TenantPlan& plan,
                        Rng* rng, std::vector<sched::Request>* out,
                        std::map<std::string, double>* stats) const override;
};

/// Sinusoid-modulated arrivals via thinning: candidates are drawn at the
/// peak rate and accepted with probability proportional to
/// 1 + amplitude * sin(2π t / period), so the instantaneous rate swings
/// between (1-amplitude)x and (1+amplitude)x of the mean — a daily
/// load cycle compressed into the trace.
class DiurnalCycle : public Scenario {
 public:
  /// Rate swing around the mean, in [0, 1).
  static constexpr double kAmplitude = 0.8;
  /// Modulation period, in units of the merged mean interarrival gap.
  static constexpr double kPeriodGaps = 64.0;

  DiurnalCycle() = default;

  [[nodiscard]] const char* name() const override { return "diurnal-cycle"; }
  [[nodiscard]] const char* description() const override {
    return "sinusoid-modulated thinned Poisson (daily load cycle)";
  }

 protected:
  void FillTenantStream(const std::vector<units::Seconds>& reference_latencies,
                        const ScenarioParams& params, const TenantPlan& plan,
                        Rng* rng, std::vector<sched::Request>* out,
                        std::map<std::string, double>* stats) const override;
};

/// 2-state Markov-modulated Poisson process: exponential sojourns in a
/// quiet state (sub-mean rate) and a burst state (several times the mean
/// rate). Stresses admission control with flash crowds the long-run rate
/// hides. Reports "mmpp.switches" and "mmpp.burst_requests".
class FlashCrowd : public Scenario {
 public:
  /// Each state's rate, as a multiple of the tenant's mean rate.
  static constexpr double kBurstRateMultiplier = 6.0;
  static constexpr double kQuietRateMultiplier = 0.6;
  /// Mean sojourn in each state, in tenant mean gaps.
  static constexpr double kQuietSojournGaps = 30.0;
  static constexpr double kBurstSojournGaps = 6.0;

  FlashCrowd() = default;

  [[nodiscard]] const char* name() const override { return "flash-crowd"; }
  [[nodiscard]] const char* description() const override {
    return "2-state MMPP burst/quiet switching (flash crowds)";
  }

 protected:
  void FillTenantStream(const std::vector<units::Seconds>& reference_latencies,
                        const ScenarioParams& params, const TenantPlan& plan,
                        Rng* rng, std::vector<sched::Request>* out,
                        std::map<std::string, double>* stats) const override;
};

/// Heavy-tailed everything: tenant rate skew is floored at a Zipf
/// exponent well above uniform (fleet mode), and within each tenant's
/// window templates are drawn Zipf rather than uniformly, so a few
/// templates absorb most of the stream — where contention blame
/// concentrates (Kalmegh et al.).
class HeavyTailTenants : public Scenario {
 public:
  /// Floor of the Zipf exponent over tenant rates (fleet mode).
  static constexpr double kMinRateSkew = 1.6;
  /// Zipf exponent over each tenant's template window.
  static constexpr double kTemplateSkew = 1.1;

  HeavyTailTenants() = default;

  [[nodiscard]] const char* name() const override {
    return "heavy-tail-tenants";
  }
  [[nodiscard]] const char* description() const override {
    return "Zipf tenant rates + Zipf template skew (heavy-tailed load)";
  }

 protected:
  void FillTenantStream(const std::vector<units::Seconds>& reference_latencies,
                        const ScenarioParams& params, const TenantPlan& plan,
                        Rng* rng, std::vector<sched::Request>* out,
                        std::map<std::string, double>* stats) const override;
  [[nodiscard]] double TenantRateSkew(
      const ScenarioParams& params) const override;
};

/// Ad-hoc novel-template injection: a fixed held-out slice of the
/// workload (the last fifth of the template indices) is excluded from the
/// base stream and injected with a small per-request probability —
/// exactly the never-before-seen templates that force the paper's §6
/// KNN-spoiler transfer tier when the predictor was trained without them.
/// Reports "adhoc.novel_requests".
class AdHocNovel : public Scenario {
 public:
  /// Per-request probability of injecting a held-out template.
  static constexpr double kNovelProbability = 0.2;

  AdHocNovel() = default;

  [[nodiscard]] const char* name() const override { return "adhoc-novel"; }
  [[nodiscard]] const char* description() const override {
    return "held-out novel templates injected mid-stream (QS-transfer "
           "stress)";
  }

  /// The held-out slice: the last max(1, num_templates / 5) template
  /// indices. bench_scenarios trains its transfer-stressed predictor by
  /// dropping exactly these templates' primary observations.
  static std::vector<int> NovelTemplates(int num_templates);

 protected:
  void FillTenantStream(const std::vector<units::Seconds>& reference_latencies,
                        const ScenarioParams& params, const TenantPlan& plan,
                        Rng* rng, std::vector<sched::Request>* out,
                        std::map<std::string, double>* stats) const override;
};

/// Composite OLAP + refresh traffic: a steady Poisson OLAP stream with a
/// synchronized storm of refresh requests (drawn from the first tenth of
/// the workload) every kPeriodGaps mean gaps — ETL-style load spikes on
/// top of analytics. Reports "refresh.storm_requests".
class MixedRefresh : public Scenario {
 public:
  /// Storm period, in merged mean interarrival gaps.
  static constexpr double kPeriodGaps = 24.0;
  /// Refresh requests per storm.
  static constexpr int kStormSize = 4;

  MixedRefresh() = default;

  [[nodiscard]] const char* name() const override { return "mixed-refresh"; }
  [[nodiscard]] const char* description() const override {
    return "steady OLAP stream + periodic synchronized refresh storms";
  }

  /// The refresh set: the first max(1, num_templates / 10) template
  /// indices.
  static std::vector<int> RefreshTemplates(int num_templates);

 protected:
  void FillTenantStream(const std::vector<units::Seconds>& reference_latencies,
                        const ScenarioParams& params, const TenantPlan& plan,
                        Rng* rng, std::vector<sched::Request>* out,
                        std::map<std::string, double>* stats) const override;
};

}  // namespace contender::scenario

#endif  // CONTENDER_SCENARIO_SCENARIOS_H_
