// Pluggable workload scenarios: named, seeded arrival-trace generators
// that put non-Poisson traffic shapes through the same predictor /
// scheduler / serve stack the homogeneous stream always used. Every
// request stream in the tree is drawn here: ScenarioParams is the one
// description of a stream, and the base class's checks its one validation.
//
// A Scenario owns the per-tenant *shape* of the stream (when requests
// land, which templates they draw) while the shared driver in the base
// class owns everything that must stay identical across scenarios: option
// validation, tenant planning (Zipf rate shares, largest-remainder request
// apportionment, rotating template windows), per-tenant seed
// pre-derivation from the root seed, and the deterministic (arrival,
// tenant, draw-index) merge that assigns dense request ids. Scenarios
// therefore cannot accidentally break the tree's determinism
// discipline: all randomness a scenario sees is the one per-tenant Rng
// the base class hands it, whose seed is a pure function of (root seed,
// tenant order). No wall clock, no thread identity, no fail points — a
// scenario trace is bit-identical at any thread count and under an armed
// chaos harness.
//
// The built-in scenarios live in one table (AllScenarios, scenarios.cc),
// so benches, tests, and the fleet demo enumerate them by name.

#ifndef CONTENDER_SCENARIO_SCENARIO_H_
#define CONTENDER_SCENARIO_SCENARIO_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sched/request.h"
#include "util/random.h"
#include "util/statusor.h"
#include "util/units.h"

namespace contender::scenario {

/// The one description of an arrival stream, shared by every scenario.
/// The single-node entry point (GenerateTrace) ignores the tenant fields
/// and emits one merged stream with tenant_id 0; the fleet entry point
/// (GenerateFleetTrace) plans `num_tenants` independent sources.
/// Scenario-specific shape values (burst ratios, skew exponents, storm
/// sizes) are named constants of the concrete scenarios, so a scenario's
/// stream is a pure function of (name, params).
struct ScenarioParams {
  /// Total requests across all tenants.
  int num_requests = 32;
  /// Mean interarrival gap of the merged stream (per-tenant gaps divide
  /// this by the tenant's rate share). Non-stationary scenarios treat it
  /// as the long-run average rate they modulate around.
  units::Seconds mean_interarrival{20.0};
  /// Probability that a request carries an SLA deadline. Deadline =
  /// arrival + slack * reference latency of the drawn template, with
  /// slack uniform in [min_slack, max_slack).
  double deadline_probability = 0.0;
  double min_slack = 2.0;
  double max_slack = 6.0;
  /// Fleet mode only: tenant count; Zipf exponent over tenant rates,
  /// share(i) ∝ 1 / (i+1)^skew (0 = uniform, larger = tenant 0
  /// increasingly dominant); and the width of each tenant's rotating
  /// template window, so adjacent tenants overlap but differ (0 = every
  /// tenant draws from the whole workload).
  int num_tenants = 4;
  double skew = 0.0;
  int templates_per_tenant = 0;
  uint64_t seed = 42;
};

/// One tenant of a fleet-mode trace, with its derived traffic parameters.
struct TenantTraffic {
  int tenant_id = 0;
  double rate_share = 0.0;
  int num_requests = 0;
  std::vector<int> templates;
};

/// A generated trace: the merged request stream (dense ids in arrival
/// order, tenant stamped), the tenant plan it was drawn from, and
/// scenario-reported shape statistics (e.g. "mmpp.switches",
/// "adhoc.novel_requests") for benches and sanity tests.
struct ScenarioTrace {
  std::vector<sched::Request> requests;
  std::vector<TenantTraffic> tenants;
  std::map<std::string, double> stats;
};

/// Order-sensitive FNV-1a digest over every (id, template, tenant,
/// arrival, deadline) tuple of a trace. Two traces digest equal iff they
/// are bit-identical; tests and bench_scenarios use it to assert
/// thread-count invariance and chaos-replay identity cheaply.
uint64_t TraceDigest(const std::vector<sched::Request>& requests);

/// Interface + shared driver for workload scenarios. Concrete scenarios
/// implement FillTenantStream (the per-tenant shape) and optionally
/// override TenantRateSkew; everything else is fixed.
/// Scenario objects are immutable after construction and safe to share
/// across threads.
class Scenario {
 public:
  virtual ~Scenario() = default;

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// Stable lookup key, e.g. "poisson-steady".
  [[nodiscard]] virtual const char* name() const = 0;
  /// One-line human description for --scenario=list and the bench table.
  [[nodiscard]] virtual const char* description() const = 0;

  /// Single-node mode: one tenant spanning the whole workload at rate
  /// share 1, seeded directly from params.seed with no derivation and no
  /// gap before the first request (under PoissonSteady the first request
  /// lands at t = 0). InvalidArgument when `reference_latencies` is
  /// empty, num_requests is negative, the mean gap is not positive and
  /// finite, the deadline probability is NaN or outside [0, 1], or the
  /// slack band is non-finite, negative or inverted.
  [[nodiscard]] StatusOr<ScenarioTrace> GenerateTrace(
      const std::vector<units::Seconds>& reference_latencies,
      const ScenarioParams& params) const;

  /// Fleet mode: num_tenants independent sources with Zipf rate shares,
  /// largest-remainder request apportionment, rotating template windows,
  /// per-tenant seeds pre-derived from the root seed in tenant order, and
  /// a gap before every tenant's first request. InvalidArgument as for
  /// GenerateTrace, and also when num_tenants < 1, the skew is negative
  /// or NaN, or templates_per_tenant is outside [0, templates].
  [[nodiscard]] StatusOr<ScenarioTrace> GenerateFleetTrace(
      const std::vector<units::Seconds>& reference_latencies,
      const ScenarioParams& params) const;

 protected:
  Scenario() = default;

  /// The driver's per-tenant work order. Everything a scenario needs to
  /// emit one tenant's sub-stream deterministically.
  struct TenantPlan {
    int tenant_id = 0;
    double rate_share = 1.0;
    int num_requests = 0;
    /// Sorted unique template window the tenant draws from.
    std::vector<int> templates;
    /// This tenant's mean gap (merged mean / rate share).
    units::Seconds mean_gap;
    /// Fleet tenants gap before their first request; the single-node
    /// stream starts at t = 0.
    bool gap_before_first = true;
  };

  /// Emits plan.num_requests requests into `out` (template_index,
  /// arrival_time, deadline only — the driver stamps tenant_id and
  /// assigns request ids after the merge). All randomness must come from
  /// `rng`; shape statistics accumulate into `stats` with operator+=.
  virtual void FillTenantStream(
      const std::vector<units::Seconds>& reference_latencies,
      const ScenarioParams& params, const TenantPlan& plan, Rng* rng,
      std::vector<sched::Request>* out,
      std::map<std::string, double>* stats) const = 0;

  /// Effective Zipf exponent over tenant rates in fleet mode. Default:
  /// params.skew unchanged; HeavyTailTenants forces a heavy floor.
  [[nodiscard]] virtual double TenantRateSkew(
      const ScenarioParams& params) const;

 private:
  [[nodiscard]] StatusOr<ScenarioTrace> Generate(
      const std::vector<units::Seconds>& reference_latencies,
      const ScenarioParams& params, bool fleet_mode) const;
};

/// Name of the homogeneous Poisson scenario, the default stream shape of
/// the benches and examples.
inline constexpr char kPoissonSteadyName[] = "poisson-steady";

/// The scenario named `name`, or nullptr. The pointer lives for the
/// process lifetime.
const Scenario* FindScenario(const std::string& name);
/// Every built-in scenario, sorted by name. Defined in scenarios.cc next
/// to the scenarios themselves; the table is built once, thread-safely,
/// and never changes afterwards, so lookups take no lock.
const std::vector<const Scenario*>& AllScenarios();

}  // namespace contender::scenario

#endif  // CONTENDER_SCENARIO_SCENARIO_H_
