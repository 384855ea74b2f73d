#include "workload/plan_compiler.h"

#include <algorithm>

#include "util/logging.h"

namespace contender {

namespace {

bool IsBlocking(PlanNodeType type) {
  switch (type) {
    case PlanNodeType::kHash:
    case PlanNodeType::kSort:
    case PlanNodeType::kHashAggregate:
    case PlanNodeType::kMaterialize:
      return true;
    default:
      return false;
  }
}

class Compiler {
 public:
  Compiler(const Catalog& catalog, const InstanceParams& params)
      : catalog_(catalog), params_(params) {}

  std::vector<sim::Phase> Compile(const PlanNode& root) {
    Visit(root);
    Flush();
    return std::move(phases_);
  }

 private:
  void Flush() {
    const sim::Phase& p = current_;
    if (p.seq_io_bytes > 0.0 || p.rnd_io_bytes > 0.0 || p.cpu_seconds > 0.0 ||
        p.mem_demand_bytes > 0.0) {
      phases_.push_back(current_);
    }
    current_ = sim::Phase();
  }

  void Visit(const PlanNode& node) {
    for (const PlanNode& c : node.children) Visit(c);

    switch (node.type) {
      case PlanNodeType::kSeqScan: {
        // A scan begins a new pipeline segment.
        Flush();
        const std::vector<TableDef>& tables = catalog_.tables();
        CONTENDER_CHECK(node.table >= 0 &&
                        static_cast<size_t>(node.table) < tables.size())
            << "scan of unknown table";
        const TableDef& def = tables[static_cast<size_t>(node.table)];
        double fraction = node.scan_fraction;
        if (fraction < 1.0) {
          // Predicate-dependent partial scans vary with the parameters.
          fraction = std::clamp(fraction * params_.selectivity, 0.0, 1.0);
        }
        current_.table = node.table;
        current_.table_bytes = def.bytes;
        current_.cacheable = !def.is_fact;
        current_.seq_io_bytes = def.bytes * fraction * params_.io_scale;
        current_.cpu_seconds += node.cpu_seconds * params_.selectivity;
        break;
      }
      case PlanNodeType::kIndexScan: {
        Flush();
        current_.rnd_io_bytes = node.rnd_bytes * params_.selectivity;
        current_.cpu_seconds += node.cpu_seconds * params_.selectivity;
        break;
      }
      default: {
        if (IsBlocking(node.type)) {
          // A pipeline breaker. Its working memory is resident while the
          // input pipeline feeds it (hash table / sort buffer fills during
          // the producing phase), so the demand — and the spill risk —
          // attaches to the current phase. The final pass (hash drain,
          // sort merge, aggregate finalization) then runs as a segment of
          // its own that re-holds the same memory, with the spill already
          // paid upstream.
          const double mem = node.mem_bytes * params_.selectivity;
          if (mem > 0.0) {
            current_.mem_demand_bytes =
                std::max(current_.mem_demand_bytes, mem);
            current_.spillable = true;
          }
          Flush();
          current_.cpu_seconds = node.cpu_seconds * params_.selectivity;
          current_.mem_demand_bytes = mem;
          current_.spillable = false;
          Flush();
        } else {
          current_.cpu_seconds += node.cpu_seconds * params_.selectivity;
        }
        break;
      }
    }
  }

  const Catalog& catalog_;
  InstanceParams params_;
  sim::Phase current_;
  std::vector<sim::Phase> phases_;
};

}  // namespace

sim::QuerySpec CompilePlan(const PlanNode& plan, const Catalog& catalog,
                           const InstanceParams& params,
                           const std::string& name, int template_id) {
  sim::QuerySpec spec;
  spec.name = name;
  spec.template_id = template_id;
  Compiler compiler(catalog, params);
  spec.phases = compiler.Compile(plan);
  return spec;
}

}  // namespace contender
