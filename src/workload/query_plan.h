// Query execution plan (QEP) trees. Templates build a PostgreSQL-style
// operator tree; the plan compiler lowers it to simulator phases and the
// ML baselines extract per-operator feature vectors from it (paper §3).

#ifndef CONTENDER_WORKLOAD_QUERY_PLAN_H_
#define CONTENDER_WORKLOAD_QUERY_PLAN_H_

#include <functional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "sim/query_spec.h"
#include "util/units.h"

namespace contender {

/// Plan operator kinds (a subset of PostgreSQL 8.4's executor nodes). No
/// template builds a Bitmap Heap Scan, Filter or Merge Join node; their
/// values stay because the §3 plan features have one slot per kind.
enum class PlanNodeType {
  kSeqScan = 0,
  kIndexScan,
  kBitmapHeapScan,
  kFilter,
  kHash,
  kHashJoin,
  kMergeJoin,
  kNestedLoopJoin,
  kSort,
  kHashAggregate,
  kGroupAggregate,
  kWindowAgg,
  kMaterialize,
  kAppend,
  kLimit,
  kNumTypes,  // sentinel
};

/// One operator in a plan tree. Children execute before (or beneath) the
/// operator; resource annotations drive the compiler.
struct PlanNode {
  PlanNodeType type = PlanNodeType::kSeqScan;
  /// Scanned relation for scan nodes; kNoTable otherwise.
  sim::TableId table = sim::kNoTable;
  /// Fraction of the relation read by a sequential scan.
  double scan_fraction = 1.0;
  /// Random-access bytes for index scans.
  double rnd_bytes = 0.0;
  /// Optimizer cardinality estimate (output rows).
  double rows = 0.0;
  /// CPU work attributable to this operator.
  double cpu_seconds = 0.0;
  /// Working memory of blocking operators (hash table, sort buffer).
  double mem_bytes = 0.0;
  std::vector<PlanNode> children;
};

// ---------------------------------------------------------------------------
// Builder helpers (PostgreSQL-flavoured constructors).

/// Full or partial sequential scan of `t`.
PlanNode SeqScan(const TableDef& t, units::Fraction fraction,
                 double rows_out);

/// Index scan performing `rnd_bytes` of scattered reads.
PlanNode IndexScan(const TableDef& t, double rnd_bytes, double rows_out);

/// Hash join; the build side is wrapped in an explicit Hash node whose
/// memory footprint is `build_mem_bytes`.
PlanNode HashJoin(PlanNode build, PlanNode probe, double rows_out,
                  double build_mem_bytes);

PlanNode NestedLoopJoin(PlanNode outer, PlanNode inner, double rows_out);

/// Blocking sort with `mem_bytes` of sort buffer.
PlanNode Sort(PlanNode child, double mem_bytes);

/// Blocking hash aggregate with `mem_bytes` of hash table.
PlanNode HashAggregate(PlanNode child, double rows_out, double mem_bytes);

/// Pipelined aggregate over sorted input.
PlanNode GroupAggregate(PlanNode child, double rows_out);

PlanNode WindowAgg(PlanNode child, double rows_out);
PlanNode Materialize(PlanNode child, double mem_bytes);
PlanNode Append(std::vector<PlanNode> children, double rows_out);
PlanNode Limit(PlanNode child, double rows_out);

// ---------------------------------------------------------------------------
// Plan statistics.

/// Number of operators in the tree.
int CountPlanSteps(const PlanNode& root);

/// Sum of cardinality estimates over all operators ("records accessed").
double SumPlanRows(const PlanNode& root);

/// Fact tables sequentially scanned anywhere in the plan (deduplicated).
std::vector<sim::TableId> FactTablesScanned(const PlanNode& root,
                                            const Catalog& catalog);

/// Depth-first visit of every node.
void VisitPlan(const PlanNode& root,
               const std::function<void(const PlanNode&)>& fn);

}  // namespace contender

#endif  // CONTENDER_WORKLOAD_QUERY_PLAN_H_
