// The fleet's request stream: a scenario's fleet-mode trace
// (scenario::Scenario::GenerateFleetTrace) with every request stamped with
// its tenant's criticality tier.

#ifndef CONTENDER_FLEET_POPULATION_H_
#define CONTENDER_FLEET_POPULATION_H_

#include <vector>

#include "scenario/scenario.h"
#include "sched/request.h"
#include "util/statusor.h"
#include "util/units.h"

namespace contender::fleet {

/// The stream parameters are the scenario's. Kept as a name only because
/// perfbench/ spells it.
using PopulationOptions = scenario::ScenarioParams;

/// The generated population: the merged arrival stream (dense request ids
/// in arrival order, tenant and criticality stamped on every request).
struct Population {
  std::vector<sched::Request> requests;
};

/// Draws `scenario`'s fleet-mode trace over `reference_latencies.size()`
/// templates and stamps overload::CriticalityForTenant(tenant_id) on every
/// request; otherwise the requests are the trace's, bit for bit. Fails
/// with the scenario's InvalidArgument on malformed params.
StatusOr<Population> GeneratePopulation(
    const std::vector<units::Seconds>& reference_latencies,
    const scenario::ScenarioParams& params,
    const scenario::Scenario& scenario);

}  // namespace contender::fleet

#endif  // CONTENDER_FLEET_POPULATION_H_
