// The built-in scenario suite. Each class is exported so tests and
// benches can construct one with non-default shape knobs; the registry
// holds one default-constructed instance of each, registered in
// scenarios.cc via CONTENDER_REGISTER_SCENARIO.
//
// Shape knobs are constructor parameters (not ScenarioParams fields) so a
// registered scenario's behaviour is a pure function of (name, params) —
// the robustness matrix stays reproducible from the registry alone.

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
  explicit DiurnalCycle(double amplitude = 0.8, double period_gaps = 64.0);

  [[nodiscard]] const char* name() const override { return "diurnal-cycle"; }
  [[nodiscard]] const char* description() const override {
    return "sinusoid-modulated thinned Poisson (daily load cycle)";
  }

  [[nodiscard]] double amplitude() const { return amplitude_; }
  /// Modulation period, in units of the merged mean interarrival gap.
  [[nodiscard]] double period_gaps() const { return period_gaps_; }

 protected:
  void FillTenantStream(const std::vector<units::Seconds>& reference_latencies,
                        const ScenarioParams& params, const TenantPlan& plan,
                        Rng* rng, std::vector<sched::Request>* out,
                        std::map<std::string, double>* stats) const override;

 private:
  const double amplitude_;
  const double period_gaps_;
};

/// 2-state Markov-modulated Poisson process: exponential sojourns in a
/// quiet state (sub-mean rate) and a burst state (several times the mean
/// rate). Stresses admission control with flash crowds the long-run rate
/// hides. Reports "mmpp.switches" and "mmpp.burst_requests".
class FlashCrowd : public Scenario {
 public:
  explicit FlashCrowd(double burst_rate_multiplier = 6.0,
                      double quiet_rate_multiplier = 0.6,
                      double quiet_sojourn_gaps = 30.0,
                      double burst_sojourn_gaps = 6.0);

  [[nodiscard]] const char* name() const override { return "flash-crowd"; }
  [[nodiscard]] const char* description() const override {
    return "2-state MMPP burst/quiet switching (flash crowds)";
  }

  [[nodiscard]] double burst_rate_multiplier() const {
    return burst_rate_multiplier_;
  }
  [[nodiscard]] double quiet_rate_multiplier() const {
    return quiet_rate_multiplier_;
  }

 protected:
  void FillTenantStream(const std::vector<units::Seconds>& reference_latencies,
                        const ScenarioParams& params, const TenantPlan& plan,
                        Rng* rng, std::vector<sched::Request>* out,
                        std::map<std::string, double>* stats) const override;

 private:
  const double burst_rate_multiplier_;
  const double quiet_rate_multiplier_;
  const double quiet_sojourn_gaps_;
  const double burst_sojourn_gaps_;
};

/// Heavy-tailed everything: tenant rate skew is floored at a Zipf
/// exponent well above uniform (fleet mode), and within each tenant's
/// window templates are drawn Zipf rather than uniformly, so a few
/// templates absorb most of the stream — where contention blame
/// concentrates (Kalmegh et al.).
class HeavyTailTenants : public Scenario {
 public:
  explicit HeavyTailTenants(double min_rate_skew = 1.6,
                            double template_skew = 1.1);

  [[nodiscard]] const char* name() const override {
    return "heavy-tail-tenants";
  }
  [[nodiscard]] const char* description() const override {
    return "Zipf tenant rates + Zipf template skew (heavy-tailed load)";
  }

  [[nodiscard]] double template_skew() const { return template_skew_; }

 protected:
  void FillTenantStream(const std::vector<units::Seconds>& reference_latencies,
                        const ScenarioParams& params, const TenantPlan& plan,
                        Rng* rng, std::vector<sched::Request>* out,
                        std::map<std::string, double>* stats) const override;
  [[nodiscard]] double TenantRateSkew(
      const ScenarioParams& params) const override;

 private:
  const double min_rate_skew_;
  const double template_skew_;
};

/// Ad-hoc novel-template injection: a fixed held-out slice of the
/// workload (the last fifth of the template indices) is excluded from the
/// base stream and injected with a small per-request probability —
/// exactly the never-before-seen templates that force the paper's §6
/// KNN-spoiler transfer tier when the predictor was trained without them.
/// Reports "adhoc.novel_requests".
class AdHocNovel : public Scenario {
 public:
  explicit AdHocNovel(double novel_probability = 0.2);

  [[nodiscard]] const char* name() const override { return "adhoc-novel"; }
  [[nodiscard]] const char* description() const override {
    return "held-out novel templates injected mid-stream (QS-transfer "
           "stress)";
  }

  /// The held-out slice: the last max(1, num_templates / 5) template
  /// indices. bench_scenarios trains its transfer-stressed predictor by
  /// dropping exactly these templates' primary observations.
  static std::vector<int> NovelTemplates(int num_templates);

  [[nodiscard]] double novel_probability() const { return novel_probability_; }

 protected:
  void FillTenantStream(const std::vector<units::Seconds>& reference_latencies,
                        const ScenarioParams& params, const TenantPlan& plan,
                        Rng* rng, std::vector<sched::Request>* out,
                        std::map<std::string, double>* stats) const override;

 private:
  const double novel_probability_;
};

/// Composite OLAP + refresh traffic: a steady Poisson OLAP stream with a
/// synchronized storm of refresh requests (drawn from the first tenth of
/// the workload) every `period_gaps` mean gaps — ETL-style load spikes on
/// top of analytics. Reports "refresh.storm_requests".
class MixedRefresh : public Scenario {
 public:
  explicit MixedRefresh(double period_gaps = 24.0, int storm_size = 4);

  [[nodiscard]] const char* name() const override { return "mixed-refresh"; }
  [[nodiscard]] const char* description() const override {
    return "steady OLAP stream + periodic synchronized refresh storms";
  }

  /// The refresh set: the first max(1, num_templates / 10) template
  /// indices.
  static std::vector<int> RefreshTemplates(int num_templates);

  [[nodiscard]] int storm_size() const { return storm_size_; }
  [[nodiscard]] double period_gaps() const { return period_gaps_; }

 protected:
  void FillTenantStream(const std::vector<units::Seconds>& reference_latencies,
                        const ScenarioParams& params, const TenantPlan& plan,
                        Rng* rng, std::vector<sched::Request>* out,
                        std::map<std::string, double>* stats) const override;

 private:
  const double period_gaps_;
  const int storm_size_;
};

}  // namespace contender::scenario

#endif  // CONTENDER_SCENARIO_SCENARIOS_H_
