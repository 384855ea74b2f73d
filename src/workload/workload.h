// The workload: a catalog plus an ordered set of query templates, with
// per-instance parameter variation.

#ifndef CONTENDER_WORKLOAD_WORKLOAD_H_
#define CONTENDER_WORKLOAD_WORKLOAD_H_

#include <vector>

#include "catalog/catalog.h"
#include "sim/query_spec.h"
#include "util/random.h"
#include "workload/plan_compiler.h"
#include "workload/templates.h"

namespace contender {

/// Immutable workload facade used by the sampler, the experiments and the
/// examples. Template positions ("indices") are stable; paper ids are
/// available through tmpl(i).id.
class Workload {
 public:
  Workload(Catalog catalog, std::vector<QueryTemplate> templates);

  /// The paper's setup: TPC-DS SF=100 with the 25 moderate templates.
  static Workload Paper();

  const Catalog& catalog() const { return catalog_; }
  int size() const { return static_cast<int>(templates_.size()); }
  /// Every index-taking method CHECK-fails on an index outside
  /// [0, size()) with "unknown template index N".
  const QueryTemplate& tmpl(int index) const;

  /// Index of the template with the given paper id; -1 when absent.
  int IndexOfId(int template_id) const;

  /// The nominal (optimizer-estimate) plan for a template, built once at
  /// construction.
  const PlanNode& NominalPlan(int index) const;

  /// Compiles an instance with randomly drawn predicate parameters (one
  /// DrawParams per call) from the template's nominal plan.
  sim::QuerySpec Instantiate(int index, Rng* rng) const;

  /// Compiles the nominal instance (parameters at their expected values).
  sim::QuerySpec InstantiateNominal(int index) const;

  /// Draws the per-instance parameters (exposed for testing).
  static InstanceParams DrawParams(Rng* rng);

 private:
  /// `index` as a position into templates_ and plans_ (CHECK).
  size_t CheckedIndex(int index) const;

  Catalog catalog_;
  std::vector<QueryTemplate> templates_;
  /// templates_[i].build(catalog_), one per template.
  std::vector<PlanNode> plans_;
};

}  // namespace contender

#endif  // CONTENDER_WORKLOAD_WORKLOAD_H_
