#include "workload/query_plan.h"

#include <gtest/gtest.h>

namespace contender {
namespace {

Catalog TestCatalog() { return Catalog::TpcDs100(); }

TEST(QueryPlanTest, SeqScanAnnotations) {
  Catalog c = TestCatalog();
  PlanNode scan = SeqScan(c.Get("store_sales"), units::Fraction::Clamp(0.5), 1e6);
  EXPECT_EQ(scan.type, PlanNodeType::kSeqScan);
  EXPECT_EQ(scan.table, c.Get("store_sales").id);
  EXPECT_DOUBLE_EQ(scan.scan_fraction, 0.5);
  EXPECT_DOUBLE_EQ(scan.rows, 1e6);
  EXPECT_GT(scan.cpu_seconds, 0.0);
}

TEST(QueryPlanTest, HashJoinWrapsBuildInHashNode) {
  Catalog c = TestCatalog();
  PlanNode join = HashJoin(SeqScan(c.Get("item"), units::Fraction::Clamp(1.0), 204000),
                           SeqScan(c.Get("store_sales"), units::Fraction::Clamp(1.0), 288e6), 36e6,
                           60e6);
  EXPECT_EQ(join.type, PlanNodeType::kHashJoin);
  ASSERT_EQ(join.children.size(), 2u);
  EXPECT_EQ(join.children[0].type, PlanNodeType::kHash);
  EXPECT_DOUBLE_EQ(join.children[0].mem_bytes, 60e6);
  EXPECT_EQ(join.children[0].children[0].type, PlanNodeType::kSeqScan);
  EXPECT_EQ(join.children[1].type, PlanNodeType::kSeqScan);
}

TEST(QueryPlanTest, SortCpuScalesSuperlinearly) {
  Catalog c = TestCatalog();
  PlanNode small = Sort(SeqScan(c.Get("item"), units::Fraction::Clamp(1.0), 1e5), 1e6);
  PlanNode large = Sort(SeqScan(c.Get("item"), units::Fraction::Clamp(1.0), 1e7), 1e6);
  EXPECT_GT(large.cpu_seconds, 100.0 * small.cpu_seconds);
}

TEST(QueryPlanTest, CountStepsAndRows) {
  Catalog c = TestCatalog();
  PlanNode plan = HashAggregate(
      HashJoin(SeqScan(c.Get("item"), units::Fraction::Clamp(1.0), 100.0),
               SeqScan(c.Get("store_sales"), units::Fraction::Clamp(1.0), 200.0), 150.0, 1e6),
      10.0, 1e6);
  // SeqScan + Hash + SeqScan + HashJoin + HashAggregate = 5.
  EXPECT_EQ(CountPlanSteps(plan), 5);
  EXPECT_DOUBLE_EQ(SumPlanRows(plan), 100.0 + 100.0 + 200.0 + 150.0 + 10.0);
}

TEST(QueryPlanTest, FactTablesScannedDeduplicates) {
  Catalog c = TestCatalog();
  std::vector<PlanNode> branches;
  branches.push_back(SeqScan(c.Get("store_sales"), units::Fraction::Clamp(1.0), 1.0));
  branches.push_back(SeqScan(c.Get("store_sales"), units::Fraction::Clamp(1.0), 1.0));
  branches.push_back(SeqScan(c.Get("web_sales"), units::Fraction::Clamp(1.0), 1.0));
  branches.push_back(SeqScan(c.Get("item"), units::Fraction::Clamp(1.0), 1.0));  // dimension
  PlanNode plan = Append(std::move(branches), 4.0);
  auto facts = FactTablesScanned(plan, c);
  ASSERT_EQ(facts.size(), 2u);
  EXPECT_EQ(facts[0], c.Get("store_sales").id);
  EXPECT_EQ(facts[1], c.Get("web_sales").id);
}

TEST(QueryPlanTest, IndexScanDoesNotCountAsFactScan) {
  Catalog c = TestCatalog();
  PlanNode plan = IndexScan(c.Get("store_sales"), 1e6, 100.0);
  EXPECT_TRUE(FactTablesScanned(plan, c).empty());
}

TEST(QueryPlanTest, VisitIsPostOrder) {
  Catalog c = TestCatalog();
  PlanNode plan = Sort(SeqScan(c.Get("item"), units::Fraction::Clamp(1.0), 10.0), 1e6);
  std::vector<PlanNodeType> order;
  VisitPlan(plan, [&](const PlanNode& n) { order.push_back(n.type); });
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], PlanNodeType::kSeqScan);
  EXPECT_EQ(order[1], PlanNodeType::kSort);
}

}  // namespace
}  // namespace contender
