#include "workload/query_plan.h"

#include <algorithm>
#include <cmath>

namespace contender {

namespace {

// Per-row CPU costs (seconds/row), loosely calibrated to a 2.8 GHz core.
constexpr double kSeqScanCpuPerRow = 4.0e-8;
constexpr double kIndexScanCpuPerRow = 1.5e-7;
constexpr double kHashBuildCpuPerRow = 8.0e-8;
constexpr double kHashProbeCpuPerRow = 1.2e-7;
constexpr double kNestedLoopCpuPerRow = 1.0e-7;
constexpr double kSortCpuPerRowLog = 2.5e-8;
constexpr double kHashAggCpuPerRow = 1.5e-7;
constexpr double kGroupAggCpuPerRow = 6.0e-8;
constexpr double kWindowAggCpuPerRow = 1.0e-7;
constexpr double kTrivialCpuPerRow = 1.0e-8;

}  // namespace

PlanNode SeqScan(const TableDef& t, units::Fraction fraction,
                 double rows_out) {
  PlanNode n;
  n.type = PlanNodeType::kSeqScan;
  n.table = t.id;
  n.scan_fraction = fraction.value();
  n.rows = rows_out;
  // Scan CPU covers every tuple visited, not only those emitted.
  n.cpu_seconds =
      static_cast<double>(t.rows) * fraction.value() * kSeqScanCpuPerRow;
  return n;
}

PlanNode IndexScan(const TableDef& t, double rnd_bytes, double rows_out) {
  PlanNode n;
  n.type = PlanNodeType::kIndexScan;
  n.table = t.id;
  n.scan_fraction = 0.0;
  n.rnd_bytes = rnd_bytes;
  n.rows = rows_out;
  n.cpu_seconds = rows_out * kIndexScanCpuPerRow;
  return n;
}

PlanNode HashJoin(PlanNode build, PlanNode probe, double rows_out,
                  double build_mem_bytes) {
  PlanNode hash;
  hash.type = PlanNodeType::kHash;
  hash.rows = build.rows;
  hash.cpu_seconds = build.rows * kHashBuildCpuPerRow;
  hash.mem_bytes = build_mem_bytes;
  hash.children.push_back(std::move(build));

  PlanNode join;
  join.type = PlanNodeType::kHashJoin;
  join.rows = rows_out;
  join.cpu_seconds = probe.rows * kHashProbeCpuPerRow;
  join.children.push_back(std::move(hash));
  join.children.push_back(std::move(probe));
  return join;
}

PlanNode NestedLoopJoin(PlanNode outer, PlanNode inner, double rows_out) {
  PlanNode join;
  join.type = PlanNodeType::kNestedLoopJoin;
  join.rows = rows_out;
  join.cpu_seconds = std::max(rows_out, outer.rows) * kNestedLoopCpuPerRow;
  join.children.push_back(std::move(outer));
  join.children.push_back(std::move(inner));
  return join;
}

PlanNode Sort(PlanNode child, double mem_bytes) {
  PlanNode n;
  n.type = PlanNodeType::kSort;
  n.rows = child.rows;
  const double rows = std::max(child.rows, 2.0);
  n.cpu_seconds = rows * std::log2(rows) * kSortCpuPerRowLog;
  n.mem_bytes = mem_bytes;
  n.children.push_back(std::move(child));
  return n;
}

PlanNode HashAggregate(PlanNode child, double rows_out, double mem_bytes) {
  PlanNode n;
  n.type = PlanNodeType::kHashAggregate;
  n.rows = rows_out;
  n.cpu_seconds = child.rows * kHashAggCpuPerRow;
  n.mem_bytes = mem_bytes;
  n.children.push_back(std::move(child));
  return n;
}

PlanNode GroupAggregate(PlanNode child, double rows_out) {
  PlanNode n;
  n.type = PlanNodeType::kGroupAggregate;
  n.rows = rows_out;
  n.cpu_seconds = child.rows * kGroupAggCpuPerRow;
  n.children.push_back(std::move(child));
  return n;
}

PlanNode WindowAgg(PlanNode child, double rows_out) {
  PlanNode n;
  n.type = PlanNodeType::kWindowAgg;
  n.rows = rows_out;
  n.cpu_seconds = child.rows * kWindowAggCpuPerRow;
  n.children.push_back(std::move(child));
  return n;
}

PlanNode Materialize(PlanNode child, double mem_bytes) {
  PlanNode n;
  n.type = PlanNodeType::kMaterialize;
  n.rows = child.rows;
  n.cpu_seconds = child.rows * kTrivialCpuPerRow;
  n.mem_bytes = mem_bytes;
  n.children.push_back(std::move(child));
  return n;
}

PlanNode Append(std::vector<PlanNode> children, double rows_out) {
  PlanNode n;
  n.type = PlanNodeType::kAppend;
  n.rows = rows_out;
  n.cpu_seconds = rows_out * kTrivialCpuPerRow;
  n.children = std::move(children);
  return n;
}

PlanNode Limit(PlanNode child, double rows_out) {
  PlanNode n;
  n.type = PlanNodeType::kLimit;
  n.rows = rows_out;
  n.cpu_seconds = rows_out * kTrivialCpuPerRow;
  n.children.push_back(std::move(child));
  return n;
}

void VisitPlan(const PlanNode& root,
               const std::function<void(const PlanNode&)>& fn) {
  for (const PlanNode& c : root.children) VisitPlan(c, fn);
  fn(root);
}

int CountPlanSteps(const PlanNode& root) {
  int count = 0;
  VisitPlan(root, [&](const PlanNode&) { ++count; });
  return count;
}

double SumPlanRows(const PlanNode& root) {
  double rows = 0.0;
  VisitPlan(root, [&](const PlanNode& n) { rows += n.rows; });
  return rows;
}

std::vector<sim::TableId> FactTablesScanned(const PlanNode& root,
                                            const Catalog& catalog) {
  std::vector<sim::TableId> out;
  VisitPlan(root, [&](const PlanNode& n) {
    if (n.type != PlanNodeType::kSeqScan || n.table < 0) return;
    auto def = catalog.FindById(n.table);
    if (!def.ok() || !def->is_fact) return;
    if (std::find(out.begin(), out.end(), n.table) == out.end()) {
      out.push_back(n.table);
    }
  });
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace contender
