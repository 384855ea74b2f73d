#include "fleet/population.h"

#include <utility>

#include "overload/shed_reason.h"

namespace contender::fleet {

StatusOr<Population> GeneratePopulation(
    const std::vector<units::Seconds>& reference_latencies,
    const scenario::ScenarioParams& params,
    const scenario::Scenario& scenario) {
  CONTENDER_ASSIGN_OR_RETURN(
      scenario::ScenarioTrace trace,
      scenario.GenerateFleetTrace(reference_latencies, params));
  Population population;
  population.requests = std::move(trace.requests);
  // Criticality tiers — a pure function of tenant id — are stamped here
  // rather than in the scenario driver, which does not link the overload
  // layer.
  for (sched::Request& request : population.requests) {
    request.criticality = overload::CriticalityForTenant(request.tenant_id);
  }
  return population;
}

}  // namespace contender::fleet
