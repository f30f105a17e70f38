// Pins the branch-and-bound exact search (ExactStrategy::kBranchAndBound)
// to the enumerating Exhaustive Search bit for bit on every tractable
// instance — same placement, same TOC, same lexicographic tie-break, same
// infeasibility verdicts — across randomized problems (varying box, object
// count, SLA, io_scale hints, discrete cost model, targets_override),
// checks determinism across 1/4/hardware threads including every pruning
// counter, and checks that the counters account for the full M^N tree.
// Under io_scale hints the match must hold at every planning concurrency.

#include "dot/bnb_search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/tpcc_schema.h"
#include "catalog/tpch_schema.h"
#include "common/rng.h"
#include "storage/standard_catalog.h"
#include "workload/dss_workload.h"
#include "workload/profiler.h"
#include "workload/tpcc_workload.h"
#include "workload/tpch_queries.h"

namespace dot {
namespace {

long long PowLL(int m, int n) {
  long long total = 1;
  for (int i = 0; i < n; ++i) total *= m;
  return total;
}

/// Bit-identical optimum: the contract is equality of doubles, not
/// EXPECT_NEAR — the two strategies must score the winner through the same
/// kernels.
void ExpectSameOptimum(const DotResult& bnb, const DotResult& es,
                       const std::string& what) {
  ASSERT_EQ(bnb.status.code(), es.status.code())
      << what << ": " << bnb.status.ToString() << " vs "
      << es.status.ToString();
  EXPECT_EQ(bnb.placement, es.placement) << what;
  EXPECT_EQ(bnb.toc_cents_per_task, es.toc_cents_per_task) << what;
  EXPECT_EQ(bnb.layout_cost_cents_per_hour, es.layout_cost_cents_per_hour)
      << what;
  EXPECT_EQ(bnb.estimate.elapsed_ms, es.estimate.elapsed_ms) << what;
  EXPECT_EQ(bnb.estimate.tasks_per_hour, es.estimate.tasks_per_hour) << what;
  EXPECT_EQ(bnb.estimate.tpmc, es.estimate.tpmc) << what;
}

/// Every leaf of the M^N tree is either evaluated or under exactly one
/// pruned subtree, and every visited node is classified exactly once:
///   layouts_evaluated + layouts_pruned              == M^N
///   prunes + leaves                                 == 1 + (M-1)·expanded
void ExpectCountersAccountForTree(const DotResult& r, int m, int n,
                                  const std::string& what) {
  EXPECT_EQ(r.layouts_evaluated + r.layouts_pruned, PowLL(m, n)) << what;
  EXPECT_EQ(
      r.nodes_pruned_bound + r.nodes_pruned_infeasible + r.layouts_evaluated,
      1 + (m - 1) * r.nodes_expanded)
      << what;
}

void ExpectSameCounters(const DotResult& a, const DotResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.layouts_evaluated, b.layouts_evaluated) << what;
  EXPECT_EQ(a.nodes_expanded, b.nodes_expanded) << what;
  EXPECT_EQ(a.nodes_pruned_bound, b.nodes_pruned_bound) << what;
  EXPECT_EQ(a.nodes_pruned_infeasible, b.nodes_pruned_infeasible) << what;
  EXPECT_EQ(a.layouts_pruned, b.layouts_pruned) << what;
}

/// A randomized DSS instance: `tables` tables (PK index each), per-table
/// scan templates with random selectivity/sargability plus two-table join
/// templates (footprints spanning object groups), random premium-class
/// capacity caps on some draws.
struct RandomDssInstance {
  Schema schema;
  BoxConfig box;
  std::unique_ptr<DssWorkloadModel> workload;

  RandomDssInstance(uint64_t seed, int tables) {
    Rng rng(seed);
    box = rng.NextBounded(2) == 0 ? MakeBox1() : MakeBox2();
    std::vector<QuerySpec> templates;
    for (int i = 0; i < tables; ++i) {
      const std::string name = "t" + std::to_string(i);
      schema.AddTable(name, 1e5 * (1 + rng.NextBounded(20)),
                      60 + 20 * rng.NextBounded(6));
      schema.AddIndex(name + "_pk", schema.FindObject(name), 8);
      QuerySpec q;
      q.name = "q" + std::to_string(i);
      RelationAccess ra;
      ra.table = name;
      ra.index_sargable = rng.NextBounded(2) == 0;
      ra.selectivity = ra.index_sargable ? rng.NextUniform(0.0005, 0.01)
                                         : rng.NextUniform(0.2, 1.0);
      q.relations = {ra};
      templates.push_back(std::move(q));
    }
    for (int i = 0; i + 1 < tables; i += 2) {
      QuerySpec q;
      q.name = "j" + std::to_string(i);
      RelationAccess outer;
      outer.table = "t" + std::to_string(i);
      outer.selectivity = rng.NextUniform(0.001, 0.05);
      outer.index_sargable = true;
      RelationAccess inner;
      inner.table = "t" + std::to_string(i + 1);
      q.relations = {outer, inner};
      JoinStep join;
      join.matches_per_outer = rng.NextUniform(0.5, 4.0);
      join.inner_indexable = true;
      q.joins = {join};
      templates.push_back(std::move(q));
    }
    const int num_templates = static_cast<int>(templates.size());
    if (rng.NextBounded(2) == 0) {
      // Premium-class capacity cap: forces real capacity/feasibility
      // pruning decisions instead of all-fit instances.
      const int premium = box.MostExpensiveClass();
      box.classes[static_cast<size_t>(premium)].set_capacity_gb(
          schema.TotalSizeGb() * rng.NextUniform(0.2, 0.8));
    }
    workload = std::make_unique<DssWorkloadModel>(
        "rand", &schema, &box, std::move(templates),
        RepeatSequence(num_templates, 2), PlannerConfig{});
  }

  DotProblem Problem() const {
    DotProblem p;
    p.schema = &schema;
    p.box = &box;
    p.workload = workload.get();
    return p;
  }
};

TEST(BnbSearchTest, MatchesEnumerationOnRandomizedDssInstances) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 7919);
    const int tables = 2 + static_cast<int>(rng.NextBounded(4));  // 4-10 obj
    RandomDssInstance inst(seed, tables);
    DotProblem problem = inst.Problem();
    problem.relative_sla = 0.3 + 0.2 * static_cast<double>(seed % 3);

    // Random refinement-style io_scale hints on half the draws.
    if (seed % 2 == 0) {
      for (int o = 0; o < inst.schema.NumObjects(); ++o) {
        problem.io_scale_hint.push_back(rng.NextUniform(0.5, 1.5));
      }
    }
    // Discrete cost model on a third of the draws.
    if (seed % 3 == 0) {
      problem.cost_model.discrete = true;
      problem.cost_model.alpha = rng.NextUniform(0.1, 0.9);
    }

    const std::string what = "dss seed " + std::to_string(seed);
    DotResult es = ExactSearch(problem, ExactStrategy::kEnumerate);
    DotResult bnb = ExactSearch(problem, ExactStrategy::kBranchAndBound);
    ExpectSameOptimum(bnb, es, what);
    ExpectCountersAccountForTree(bnb, inst.box.NumClasses(),
                                 inst.schema.NumObjects(), what);
  }
}

TEST(BnbSearchTest, MatchesEnumerationWithTargetsOverride) {
  RandomDssInstance inst(42, 3);
  DotProblem problem = inst.Problem();
  const PerfTargets targets = MakePerfTargets(
      *inst.workload, inst.box, inst.schema.NumObjects(), /*sla=*/0.4);
  problem.targets_override = &targets;
  DotResult es = ExactSearch(problem, ExactStrategy::kEnumerate);
  DotResult bnb = ExactSearch(problem, ExactStrategy::kBranchAndBound);
  ExpectSameOptimum(bnb, es, "targets_override");
}

TEST(BnbSearchTest, MatchesEnumerationWithFastEvalDisabled) {
  // The escape hatch degrades BnB to full-path leaves with capacity-only
  // pruning; the result must not move.
  RandomDssInstance inst(7, 2);
  DotProblem problem = inst.Problem();
  problem.relative_sla = 0.5;
  DotResult es = ExactSearch(problem, ExactStrategy::kEnumerate);
  problem.options.use_fast_eval = false;
  DotResult bnb = ExactSearch(problem, ExactStrategy::kBranchAndBound);
  ExpectSameOptimum(bnb, es, "use_fast_eval=false");
  ExpectCountersAccountForTree(bnb, inst.box.NumClasses(),
                               inst.schema.NumObjects(),
                               "use_fast_eval=false");
}

TEST(BnbSearchTest, InfeasibleVerdictMatchesEnumeration) {
  RandomDssInstance inst(3, 2);
  BoxConfig tiny = inst.box;
  for (StorageClass& sc : tiny.classes) sc.set_capacity_gb(0.001);
  DotProblem problem = inst.Problem();
  problem.box = &tiny;
  DotResult es = ExactSearch(problem, ExactStrategy::kEnumerate);
  DotResult bnb = ExactSearch(problem, ExactStrategy::kBranchAndBound);
  EXPECT_EQ(es.status.code(), StatusCode::kInfeasible);
  EXPECT_EQ(bnb.status.code(), StatusCode::kInfeasible);
  ExpectCountersAccountForTree(bnb, tiny.NumClasses(),
                               inst.schema.NumObjects(), "infeasible");
}

/// OLTP: TPC-C subsets of growing size on Box 2, with and without H-SSD
/// capacity caps (the Figure 9 shape), against the throughput SLA.
class BnbTpccTest : public ::testing::Test {
 protected:
  DotResult RunBoth(const std::vector<std::string>& objects, double cap_gb,
                    double sla, const std::string& what) {
    Schema full = MakeTpccSchema(30);
    Schema schema = full.Subset(objects);
    BoxConfig box = MakeBox2();
    if (cap_gb > 0) box.classes[2].set_capacity_gb(cap_gb);
    auto workload = MakeTpccWorkload(&schema, &box, TpccConfig{});
    DotProblem problem;
    problem.schema = &schema;
    problem.box = &box;
    problem.workload = workload.get();
    problem.relative_sla = sla;
    DotResult es = ExactSearch(problem, ExactStrategy::kEnumerate);
    DotResult bnb = ExactSearch(problem, ExactStrategy::kBranchAndBound);
    ExpectSameOptimum(bnb, es, what);
    ExpectCountersAccountForTree(bnb, box.NumClasses(), schema.NumObjects(),
                                 what);
    return bnb;
  }
};

TEST_F(BnbTpccTest, MatchesEnumerationOnTpccSubsets) {
  const std::vector<std::string> small = {"stock", "pk_stock", "order_line",
                                          "pk_order_line"};
  const std::vector<std::string> medium = {
      "stock",    "pk_stock",    "order_line", "pk_order_line", "customer",
      "pk_customer", "i_customer", "district",   "pk_district"};
  RunBoth(small, -1, 0.25, "tpcc small uncapped");
  RunBoth(small, 3.0, 0.125, "tpcc small capped");
  RunBoth(medium, -1, 0.25, "tpcc medium uncapped");
  RunBoth(medium, 5.0, 0.1, "tpcc medium capped");
}

TEST_F(BnbTpccTest, PruningCutsMostOfTheTree) {
  const std::vector<std::string> medium = {
      "stock",    "pk_stock",    "order_line", "pk_order_line", "customer",
      "pk_customer", "i_customer", "district",   "pk_district"};
  const DotResult bnb = RunBoth(medium, -1, 0.25, "tpcc pruning");
  ASSERT_TRUE(bnb.status.ok());
  const long long total = PowLL(3, 9);
  EXPECT_GT(bnb.layouts_pruned, total * 9 / 10)
      << "expected >90% of the tree pruned, evaluated "
      << bnb.layouts_evaluated;
}

TEST(BnbSearchTest, DeterministicAcrossThreadCountsIncludingCounters) {
  RandomDssInstance inst(11, 3);
  DotProblem problem = inst.Problem();
  problem.relative_sla = 0.5;
  problem.options.num_threads = 1;
  const DotResult baseline =
      ExactSearch(problem, ExactStrategy::kBranchAndBound);
  const std::vector<int> threads = {
      4, std::max(1, static_cast<int>(std::thread::hardware_concurrency()))};
  for (int t : threads) {
    DotProblem p = inst.Problem();
    p.relative_sla = 0.5;
    p.options.num_threads = t;
    const DotResult r = ExactSearch(p, ExactStrategy::kBranchAndBound);
    const std::string what = "num_threads=" + std::to_string(t);
    ExpectSameOptimum(r, baseline, what);
    ExpectSameCounters(r, baseline, what);
  }
}

TEST(BnbSearchTest, MatchesEnumerationBeyondTheDenseCache) {
  // The ES subset without part_pkey (7 objects, 5^7 layouts) on all five
  // classes: a six-object footprint (customer, orders, lineitem and their
  // keys) has 5^6 = 15625 placements, past kDenseCacheMaxEntries, so those
  // templates have no dense cache and the cursors price them through
  // their private memos.
  Schema schema = MakeTpchEsSubsetSchema(20.0).Subset(
      {"lineitem", "orders", "customer", "part", "lineitem_pkey",
       "orders_pkey", "customer_pkey"});
  BoxConfig box = MakeAllClassesBox();
  DssWorkloadModel workload("TPC-H-ES", &schema, &box,
                            MakeTpchSubsetTemplates(), RepeatSequence(11, 3),
                            PlannerConfig{});
  int cacheless = 0;
  for (const CompiledTemplate& program : workload.compiled()) {
    if (PowLL(box.NumClasses(),
              static_cast<int>(program.footprint().size())) >
        DssWorkloadModel::kDenseCacheMaxEntries) {
      ++cacheless;
    }
  }
  ASSERT_GT(cacheless, 0) << "no template reaches the cursor memo";

  DotProblem problem;
  problem.schema = &schema;
  problem.box = &box;
  problem.workload = &workload;
  problem.relative_sla = 0.5;
  problem.options.num_threads = 1;
  const DotResult es = ExactSearch(problem, ExactStrategy::kEnumerate);
  ASSERT_TRUE(es.status.ok()) << es.status.ToString();
  const DotResult bnb1 = ExactSearch(problem, ExactStrategy::kBranchAndBound);
  ExpectSameOptimum(bnb1, es, "bnb vs enumerate, 1 thread");
  ExpectCountersAccountForTree(bnb1, box.NumClasses(), schema.NumObjects(),
                               "1 thread");

  const int hw =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  for (int t : {4, hw}) {
    const std::string what = "num_threads=" + std::to_string(t);
    DotProblem p = problem;
    p.options.num_threads = t;
    const DotResult e = ExactSearch(p, ExactStrategy::kEnumerate);
    ExpectSameOptimum(e, es, "enumerate, " + what);
    EXPECT_EQ(e.layouts_evaluated, es.layouts_evaluated) << what;
    const DotResult b = ExactSearch(p, ExactStrategy::kBranchAndBound);
    ExpectSameOptimum(b, es, "bnb vs enumerate, " + what);
    ExpectSameCounters(b, bnb1, what);
  }

  // The fast enumeration against the full estimator on every layout.
  problem.options.use_fast_eval = false;
  problem.options.num_threads = hw;
  const DotResult full = ExactSearch(problem, ExactStrategy::kEnumerate);
  ExpectSameOptimum(es, full, "fast vs full enumeration");
  EXPECT_EQ(es.layouts_evaluated, full.layouts_evaluated);
}

/// A refinement-style io_scale hint over `n` objects: one factor for all
/// (uniform), or per-object draws in [0, 3] with about a quarter of them 0
/// (skewed).
std::vector<double> MakeHint(int n, bool skewed, Rng& rng) {
  std::vector<double> hint(static_cast<size_t>(n), rng.NextUniform(0.5, 2.0));
  if (skewed) {
    for (double& s : hint) {
      s = rng.NextBounded(4) == 0 ? 0.0 : rng.NextUniform(0.0, 3.0);
    }
  }
  return hint;
}

/// TPC-H at SF 2 reduced to six objects: the four subset tables, and the
/// keys of lineitem and orders.
Schema MakeTpchSixObjectSchema() {
  const Schema subset = MakeTpchEsSubsetSchema(2.0);
  return subset.Subset({"lineitem", "orders", "customer", "part",
                        "lineitem_pkey", "orders_pkey"});
}

TEST(BnbSearchTest, MatchesEnumerationUnderHintsAtEveryPlanningConcurrency) {
  // Under a hint the bound cursor prunes on scaled floors, which the
  // compiled program prices at PlannerConfig::concurrency; the leaves are
  // scaled re-prices. Both must read the same latency rows, or the floors
  // overshoot and BnB reports Infeasible (or a worse layout) where
  // enumeration finds the optimum.
  Schema schema = MakeTpchSixObjectSchema();
  for (bool box2 : {false, true}) {
    SCOPED_TRACE(box2 ? "box 2" : "box 1");
    const BoxConfig box = box2 ? MakeBox2() : MakeBox1();
    for (double concurrency : {1.0, 30.0, 300.0}) {
      SCOPED_TRACE("planning concurrency " + std::to_string(concurrency));
      PlannerConfig config;
      config.concurrency = concurrency;
      DssWorkloadModel workload("TPC-H-6obj", &schema, &box,
                                MakeTpchSubsetTemplates(),
                                RepeatSequence(11, 3), config);
      Rng rng(static_cast<uint64_t>(concurrency) * 2 +
              static_cast<uint64_t>(box2));
      for (bool skewed : {false, true}) {
        SCOPED_TRACE(skewed ? "skewed hint" : "uniform hint");
        for (double sla : {0.3, 0.6}) {
          SCOPED_TRACE("relative sla " + std::to_string(sla));
          DotProblem problem;
          problem.schema = &schema;
          problem.box = &box;
          problem.workload = &workload;
          problem.relative_sla = sla;
          problem.io_scale_hint = MakeHint(schema.NumObjects(), skewed, rng);
          const DotResult es = ExactSearch(problem, ExactStrategy::kEnumerate);
          const DotResult bnb =
              ExactSearch(problem, ExactStrategy::kBranchAndBound);
          ExpectSameOptimum(bnb, es, "hinted");
          ExpectCountersAccountForTree(bnb, box.NumClasses(),
                                       schema.NumObjects(), "hinted");
        }
      }
    }
  }
}

TEST(BnbSearchTest, HintedCountersMatchAcrossThreadCounts) {
  Schema schema = MakeTpchSixObjectSchema();
  const BoxConfig box = MakeBox1();
  PlannerConfig config;
  config.concurrency = 30.0;
  DssWorkloadModel workload("TPC-H-6obj", &schema, &box,
                            MakeTpchSubsetTemplates(), RepeatSequence(11, 3),
                            config);
  Rng rng(0x41);
  DotProblem problem;
  problem.schema = &schema;
  problem.box = &box;
  problem.workload = &workload;
  problem.relative_sla = 0.4;
  problem.io_scale_hint = MakeHint(schema.NumObjects(), /*skewed=*/true, rng);
  problem.options.num_threads = 1;
  const DotResult baseline =
      ExactSearch(problem, ExactStrategy::kBranchAndBound);
  ASSERT_TRUE(baseline.status.ok()) << baseline.status.ToString();
  EXPECT_GT(baseline.nodes_pruned_bound, 0);
  const int hw =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  for (int t : {4, hw}) {
    DotProblem p = problem;
    p.options.num_threads = t;
    const DotResult r = ExactSearch(p, ExactStrategy::kBranchAndBound);
    const std::string what = "num_threads=" + std::to_string(t);
    ExpectSameOptimum(r, baseline, what);
    ExpectSameCounters(r, baseline, what);
  }
}

TEST(BnbSearchTest, DotWarmStartSeedDoesNotChangeTheOptimum) {
  // With profiles available BnB seeds its incumbent from the DOT
  // heuristic; the answer must still be the enumerated optimum.
  Schema schema = MakeTpchEsSubsetSchema(20.0);
  BoxConfig box = MakeBox1();
  DssWorkloadModel workload("TPC-H-ES", &schema, &box,
                            MakeTpchSubsetTemplates(), RepeatSequence(11, 3),
                            PlannerConfig{});
  Profiler profiler(&schema, &box);
  WorkloadProfiles profiles = profiler.ProfileWorkload(
      workload,
      [&](const std::vector<int>& p) { return workload.Estimate(p); });
  DotProblem problem;
  problem.schema = &schema;
  problem.box = &box;
  problem.workload = &workload;
  problem.relative_sla = 0.5;
  problem.profiles = &profiles;
  DotResult es = ExactSearch(problem, ExactStrategy::kEnumerate);
  DotResult bnb = ExactSearch(problem, ExactStrategy::kBranchAndBound);
  ExpectSameOptimum(bnb, es, "tpch es-subset with DOT warm start");
  ExpectCountersAccountForTree(bnb, box.NumClasses(), schema.NumObjects(),
                               "tpch es-subset with DOT warm start");
  // The bound should do real work here, not degenerate to enumeration.
  EXPECT_LT(bnb.layouts_evaluated, es.layouts_evaluated / 2);
}

}  // namespace
}  // namespace dot
