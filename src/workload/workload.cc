#include "workload/workload.h"

#include <algorithm>

#include "util/logging.h"

namespace contender {

Workload::Workload(Catalog catalog, std::vector<QueryTemplate> templates)
    : catalog_(std::move(catalog)), templates_(std::move(templates)) {
  plans_.reserve(templates_.size());
  for (const QueryTemplate& t : templates_) {
    plans_.push_back(t.build(catalog_));
  }
}

Workload Workload::Paper() {
  return Workload(Catalog::TpcDs100(), MakePaperTemplates());
}

size_t Workload::CheckedIndex(int index) const {
  CONTENDER_CHECK(index >= 0 && index < size())
      << "unknown template index " << index;
  return static_cast<size_t>(index);
}

const QueryTemplate& Workload::tmpl(int index) const {
  return templates_[CheckedIndex(index)];
}

int Workload::IndexOfId(int template_id) const {
  for (size_t i = 0; i < templates_.size(); ++i) {
    if (templates_[i].id == template_id) return static_cast<int>(i);
  }
  return -1;
}

const PlanNode& Workload::NominalPlan(int index) const {
  return plans_[CheckedIndex(index)];
}

InstanceParams Workload::DrawParams(Rng* rng) {
  InstanceParams p;
  // Predicate parameters move selectivity-driven work by up to ±10%.
  p.selectivity = rng->Uniform(0.9, 1.1);
  // Scan volumes vary slightly between instances (bloat, hint bits).
  p.io_scale = std::clamp(rng->Normal(1.0, 0.03), 0.9, 1.1);
  return p;
}

sim::QuerySpec Workload::Instantiate(int index, Rng* rng) const {
  const size_t i = CheckedIndex(index);
  const InstanceParams params = DrawParams(rng);
  return CompilePlan(plans_[i], catalog_, params, templates_[i].name,
                     templates_[i].id);
}

sim::QuerySpec Workload::InstantiateNominal(int index) const {
  const size_t i = CheckedIndex(index);
  return CompilePlan(plans_[i], catalog_, InstanceParams{},
                     templates_[i].name, templates_[i].id);
}

}  // namespace contender
