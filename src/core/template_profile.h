// Data types exchanged between the workload sampler and the Contender
// models: per-template isolated statistics and steady-state mix
// observations. Header-only so lower layers can produce them.
//
// All time, volume and ratio quantities are carried as util/units.h strong
// types; feeding a latency where a fraction belongs no longer compiles.

#ifndef CONTENDER_CORE_TEMPLATE_PROFILE_H_
#define CONTENDER_CORE_TEMPLATE_PROFILE_H_

#include <map>
#include <vector>

#include "sim/query_spec.h"
#include "util/units.h"

namespace contender {

/// Isolated full-scan time per fact table (the paper's s_f), keyed by
/// table id.
using ScanTimes = std::map<sim::TableId, units::Seconds>;

/// Isolated (cold-cache) execution statistics of one template, plus its
/// measured spoiler latencies. Everything Contender knows about a template
/// comes from this profile and the plan's semantic information.
struct TemplateProfile {
  /// Position in the workload.
  int template_index = -1;
  /// Paper template number.
  int template_id = 0;

  /// l_min: latency in isolation with a cold cache (continuum lower bound).
  units::Seconds isolated_latency;
  /// p_t: fraction of isolated execution time spent on I/O.
  units::Fraction io_fraction;
  /// Largest intermediate-result memory demand.
  units::Bytes working_set_bytes;
  /// Sum of optimizer cardinalities over the plan ("records accessed").
  double records_accessed = 0.0;
  /// Operator count of the plan.
  int plan_steps = 0;
  /// Fact tables sequentially scanned by the plan (sorted, deduplicated).
  std::vector<sim::TableId> fact_tables;

  /// l_max per MPL: measured latency against the spoiler.
  std::map<int, units::Seconds> spoiler_latency;

  [[nodiscard]] bool ScansFactTable(sim::TableId t) const {
    for (sim::TableId f : fact_tables) {
      if (f == t) return true;
    }
    return false;
  }
};

/// One steady-state observation: the primary template's mean latency when
/// executing inside a concurrent mix.
struct MixObservation {
  /// Workload index of the primary template.
  int primary_index = -1;
  /// Workload indices of the queries running concurrently with the primary
  /// (the other mix slots; size = MPL - 1).
  std::vector<int> concurrent_indices;
  /// Multiprogramming level of the mix (concurrent_indices.size() + 1).
  int mpl = 0;
  /// Observed steady-state mean latency of the primary.
  units::Seconds latency;
};

}  // namespace contender

#endif  // CONTENDER_CORE_TEMPLATE_PROFILE_H_
