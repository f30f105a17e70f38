#include "query/planner.h"

#include <gtest/gtest.h>

#include "catalog/schema.h"
#include "storage/standard_catalog.h"

namespace dot {
namespace {

/// Fixture: one 10M-row table with a PK index, on a two-class box
/// (HDD + H-SSD) — the setting of the paper's §3.1 interaction example.
class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest() {
    table_ = schema_.AddTable("A", 10'000'000, 100);
    index_ = schema_.AddIndex("A_pkey", table_, 8);
    box_.name = "test-box";
    box_.classes = {MakeStockClass(StockClass::kHdd),
                    MakeStockClass(StockClass::kHssd)};
  }

  Plan PlanScan(double selectivity, bool sargable, int table_cls,
                int index_cls) {
    QuerySpec q;
    q.name = "scan";
    RelationAccess ra;
    ra.table = "A";
    ra.selectivity = selectivity;
    ra.index_sargable = sargable;
    q.relations = {ra};
    Planner planner(&schema_, &box_, PlannerConfig{});
    std::vector<int> placement = {table_cls, index_cls};
    return planner.PlanQuery(q, placement);
  }

  PlanOp ScanOpOf(const Plan& plan) {
    // Root is Aggregate; its child is the scan.
    const PlanNode* n = plan.root.get();
    while (!n->children.empty() && n->children[0] != nullptr) {
      n = n->children[0].get();
    }
    return n->op;
  }

  Schema schema_;
  BoxConfig box_;
  int table_;
  int index_;
  static constexpr int kHdd = 0;
  static constexpr int kHssd = 1;
};

TEST_F(PlannerTest, FullScanUsesSeqScan) {
  Plan plan = PlanScan(1.0, /*sargable=*/true, kHdd, kHdd);
  EXPECT_EQ(ScanOpOf(plan), PlanOp::kSeqScan);
  // All I/O is sequential reads on the table.
  EXPECT_GT(plan.io_by_object[table_][IoType::kSeqRead], 0);
  EXPECT_DOUBLE_EQ(plan.io_by_object[table_][IoType::kRandRead], 0);
  EXPECT_DOUBLE_EQ(plan.io_by_object[index_].Total(), 0);
}

TEST_F(PlannerTest, PointLookupUsesIndexEverywhere) {
  Plan plan = PlanScan(1e-7, /*sargable=*/true, kHdd, kHdd);
  EXPECT_EQ(ScanOpOf(plan), PlanOp::kIndexScan);
  EXPECT_GT(plan.io_by_object[index_][IoType::kRandRead], 0);
}

TEST_F(PlannerTest, UnsargablePredicateNeverUsesIndex) {
  Plan plan = PlanScan(1e-7, /*sargable=*/false, kHssd, kHssd);
  EXPECT_EQ(ScanOpOf(plan), PlanOp::kSeqScan);
}

TEST_F(PlannerTest, Section31InteractionPlanFlipsWithPlacement) {
  // The paper's motivating example (§3.1): for a moderately selective
  // range query, the plan depends on where table AND index live. On the
  // HDD, random reads are so expensive that the planner sticks to a
  // sequential scan; with table and index on the H-SSD it switches to the
  // index scan.
  const double sel = 0.002;
  Plan on_hdd = PlanScan(sel, true, kHdd, kHdd);
  Plan on_hssd = PlanScan(sel, true, kHssd, kHssd);
  EXPECT_EQ(ScanOpOf(on_hdd), PlanOp::kSeqScan);
  EXPECT_EQ(ScanOpOf(on_hssd), PlanOp::kIndexScan);
}

TEST_F(PlannerTest, IndexPlacementIrrelevantWhenPlanIgnoresIt) {
  // §3.1: "when the table is on the HDD ... the placement of the index has
  // no impact to the I/O cost since it is not accessed at all."
  const double sel = 0.002;
  Plan idx_hdd = PlanScan(sel, true, kHdd, kHdd);
  Plan idx_hssd = PlanScan(sel, true, kHdd, kHssd);
  EXPECT_EQ(ScanOpOf(idx_hdd), PlanOp::kSeqScan);
  EXPECT_EQ(ScanOpOf(idx_hssd), PlanOp::kSeqScan);
  EXPECT_DOUBLE_EQ(idx_hdd.time_ms, idx_hssd.time_ms);
}

TEST_F(PlannerTest, FasterDeviceNeverIncreasesQueryTime) {
  for (double sel : {1.0, 0.1, 0.01, 0.001, 1e-5}) {
    Plan slow = PlanScan(sel, true, kHdd, kHdd);
    Plan fast = PlanScan(sel, true, kHssd, kHssd);
    EXPECT_LE(fast.time_ms, slow.time_ms * (1 + 1e-9)) << "sel=" << sel;
  }
}

TEST_F(PlannerTest, IoCountsMatchChosenAccessPath) {
  Plan plan = PlanScan(1e-6, true, kHssd, kHssd);
  ASSERT_EQ(ScanOpOf(plan), PlanOp::kIndexScan);
  const DbObject& idx = schema_.object(index_);
  // 10 matching rows: descent + >=1 leaf, <= a handful of heap pages.
  EXPECT_GE(plan.io_by_object[index_][IoType::kRandRead], idx.height);
  EXPECT_LE(plan.io_by_object[table_][IoType::kRandRead], 11);
}

TEST_F(PlannerTest, CardenasFormulaCapsRepeatedFetches) {
  EXPECT_DOUBLE_EQ(Planner::ExpectedPagesFetched(0, 100), 0);
  EXPECT_DOUBLE_EQ(Planner::ExpectedPagesFetched(100, 0), 0);
  EXPECT_NEAR(Planner::ExpectedPagesFetched(1e9, 1000), 1000, 1e-3);
  EXPECT_LT(Planner::ExpectedPagesFetched(100, 100000), 100 + 1e-9);
  EXPECT_NEAR(Planner::ExpectedPagesFetched(100, 100000), 100, 1e-6);
  // Monotone in probes.
  EXPECT_LT(Planner::ExpectedPagesFetched(1000, 10),
            Planner::ExpectedPagesFetched(1000, 100));
}

TEST_F(PlannerTest, SubPageObjectsCostOneFetch) {
  // TPC-H region (0.08 pages) and nation (0.43 pages): Cardenas' log1p
  // argument would drop below -1 (NaN), and a NaN candidate silently
  // loses every comparison. Any probe of an object within one page costs
  // exactly one fetch.
  for (double pages : {0.08, 0.43, 1.0}) {
    for (double probes : {1.0, 25.0, 1e6}) {
      EXPECT_EQ(Planner::ExpectedPagesFetched(pages, probes), 1.0)
          << pages << " pages, " << probes << " probes";
    }
    EXPECT_EQ(Planner::ExpectedPagesFetched(pages, 0.0), 0.0);
  }
  EXPECT_GT(Planner::ExpectedPagesFetched(1.5, 1e6), 1.0);
}

/// Join fixture: orders -> lineitem style FK join.
class JoinPlannerTest : public ::testing::Test {
 protected:
  JoinPlannerTest() {
    outer_ = schema_.AddTable("orders", 3'000'000, 100);
    outer_pk_ = schema_.AddIndex("orders_pkey", outer_, 4);
    inner_ = schema_.AddTable("lineitem", 12'000'000, 112);
    inner_pk_ = schema_.AddIndex("lineitem_pkey", inner_, 8);
    box_.name = "test-box";
    box_.classes = {MakeStockClass(StockClass::kHdd),
                    MakeStockClass(StockClass::kHssd)};
  }

  Plan PlanJoin(double outer_sel, bool outer_sargable, int cls_everything) {
    QuerySpec q;
    q.name = "join";
    RelationAccess o;
    o.table = "orders";
    o.selectivity = outer_sel;
    o.index_sargable = outer_sargable;
    RelationAccess i;
    i.table = "lineitem";
    q.relations = {o, i};
    JoinStep j;
    j.matches_per_outer = 4.0;
    j.inner_indexable = true;
    q.joins = {j};
    Planner planner(&schema_, &box_, PlannerConfig{});
    std::vector<int> placement(4, cls_everything);
    return planner.PlanQuery(q, placement);
  }

  Schema schema_;
  BoxConfig box_;
  int outer_, outer_pk_, inner_, inner_pk_;
  static constexpr int kHdd = 0;
  static constexpr int kHssd = 1;
};

TEST_F(JoinPlannerTest, BulkJoinUsesHashJoin) {
  Plan plan = PlanJoin(1.0, false, kHssd);
  EXPECT_EQ(plan.num_joins, 1);
  EXPECT_EQ(plan.num_index_nl_joins, 0);
  // Hash join scans the inner sequentially.
  EXPECT_GT(plan.io_by_object[inner_][IoType::kSeqRead], 0);
}

TEST_F(JoinPlannerTest, SelectiveJoinUsesInljOnFastRandomDevice) {
  Plan plan = PlanJoin(1e-4, true, kHssd);
  EXPECT_EQ(plan.num_index_nl_joins, 1);
  EXPECT_GT(plan.io_by_object[inner_pk_][IoType::kRandRead], 0);
  EXPECT_DOUBLE_EQ(plan.io_by_object[inner_][IoType::kSeqRead], 0);
}

TEST_F(JoinPlannerTest, JoinMethodFlipsWithDevice) {
  // §4.4.2's driver: the same moderately selective query is an INLJ on the
  // H-SSD but a hash join on the HDD, because HDD random reads are ~150x
  // slower while sequential reads are only ~4.5x slower.
  const double sel = 0.002;
  Plan on_hssd = PlanJoin(sel, true, kHssd);
  Plan on_hdd = PlanJoin(sel, true, kHdd);
  EXPECT_EQ(on_hssd.num_index_nl_joins, 1);
  EXPECT_EQ(on_hdd.num_index_nl_joins, 0);
}

TEST_F(JoinPlannerTest, PlanTimeDecomposesIntoIoAndCpu) {
  Plan plan = PlanJoin(0.01, true, kHssd);
  EXPECT_NEAR(plan.time_ms, plan.io_ms + plan.cpu_ms, 1e-9);
  EXPECT_GT(plan.io_ms, 0);
  EXPECT_GT(plan.cpu_ms, 0);
}

TEST_F(JoinPlannerTest, ToStringRendersTree) {
  Plan plan = PlanJoin(1e-4, true, kHssd);
  const std::string s = plan.ToString(schema_);
  EXPECT_NE(s.find("IndexNLJoin"), std::string::npos);
  EXPECT_NE(s.find("lineitem_pkey"), std::string::npos);
}

TEST_F(JoinPlannerTest, SpillChargesTempObject) {
  Schema schema;
  const int big = schema.AddTable("big", 50'000'000, 200);
  (void)schema.AddIndex("big_pkey", big, 8);
  const int probe = schema.AddTable("probe", 1'000'000, 50);
  (void)schema.AddIndex("probe_pkey", probe, 8);
  const int temp = schema.AddAuxiliary("temp", ObjectKind::kTempSpace, 20.0);

  QuerySpec q;
  q.name = "spilling-join";
  RelationAccess o;
  o.table = "probe";
  RelationAccess i;
  i.table = "big";
  q.relations = {o, i};
  JoinStep j;
  j.matches_per_outer = 1.0;
  j.inner_indexable = false;  // force hash join
  q.joins = {j};

  PlannerConfig small_mem;
  small_mem.work_mem_gb = 0.5;  // build side (10 GB) far exceeds work_mem
  small_mem.temp_object_id = temp;
  Planner planner(&schema, &box_, small_mem);
  std::vector<int> placement(5, kHssd);
  Plan plan = planner.PlanQuery(q, placement);
  EXPECT_GT(plan.io_by_object[temp][IoType::kSeqWrite], 0);
  EXPECT_GT(plan.io_by_object[temp][IoType::kSeqRead], 0);

  // With ample memory there is no spill.
  PlannerConfig big_mem;
  big_mem.work_mem_gb = 64.0;
  big_mem.temp_object_id = temp;
  Planner planner2(&schema, &box_, big_mem);
  Plan plan2 = planner2.PlanQuery(q, placement);
  EXPECT_DOUBLE_EQ(plan2.io_by_object[temp].Total(), 0);
}

TEST_F(JoinPlannerTest, SortSpillsWhenResultExceedsWorkMem) {
  Schema schema;
  (void)schema.AddTable("t", 40'000'000, 200);
  const int temp = schema.AddAuxiliary("temp", ObjectKind::kTempSpace, 20.0);
  QuerySpec q;
  q.name = "big-sort";
  RelationAccess ra;
  ra.table = "t";
  q.relations = {ra};
  q.has_sort = true;
  PlannerConfig cfg;
  cfg.work_mem_gb = 1.0;
  cfg.temp_object_id = temp;
  Planner planner(&schema, &box_, cfg);
  Plan plan = planner.PlanQuery(q, {kHssd, kHssd});
  EXPECT_GT(plan.io_by_object[temp][IoType::kSeqWrite], 0);
}

TEST_F(JoinPlannerTest, ConcurrencyAffectsEstimatedTime) {
  QuerySpec q;
  q.name = "scan";
  RelationAccess ra;
  ra.table = "orders";
  q.relations = {ra};
  PlannerConfig c1;
  c1.concurrency = 1.0;
  PlannerConfig c300;
  c300.concurrency = 300.0;
  Planner p1(&schema_, &box_, c1);
  Planner p300(&schema_, &box_, c300);
  std::vector<int> placement(4, kHdd);
  // HDD sequential reads degrade under concurrency (Table 1).
  EXPECT_GT(p300.PlanQuery(q, placement).io_ms,
            p1.PlanQuery(q, placement).io_ms);
}

TEST_F(JoinPlannerTest, ArityMismatchAborts) {
  QuerySpec q;
  q.name = "bad";
  RelationAccess ra;
  ra.table = "orders";
  q.relations = {ra};
  JoinStep j;
  q.joins = {j};  // join without a second relation
  Planner planner(&schema_, &box_, PlannerConfig{});
  std::vector<int> placement(4, 0);
  EXPECT_DEATH((void)planner.PlanQuery(q, placement), "arity");
}

}  // namespace
}  // namespace dot
