// Pins the branch-and-bound exact search (ExactStrategy::kBranchAndBound)
// to the enumerating Exhaustive Search bit for bit on every tractable
// instance — same placement, same TOC, same lexicographic tie-break, same
// infeasibility verdicts — across randomized problems (varying box, object
// count, SLA, io_scale hints, discrete cost model, targets_override),
// checks that every pruning counter is the same at 1/4/hardware threads
// (the search is serial and ignores the knob), that warm starts only shrink
// the tree, and that the counters account for the full M^N tree.
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

/// Runs `check(inst, problem, what)` on eight randomized DSS problems:
/// 4-10 objects, three SLAs, io_scale hints on half the draws and the
/// discrete cost model on a third.
template <typename Check>
void ForEachRandomizedDssProblem(Check check) {
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
    check(inst, problem, "dss seed " + std::to_string(seed));
  }
}

TEST(BnbSearchTest, MatchesEnumerationOnRandomizedDssInstances) {
  ForEachRandomizedDssProblem([](const RandomDssInstance& inst,
                                 const DotProblem& problem,
                                 const std::string& what) {
    DotResult es = ExactSearch(problem, ExactStrategy::kEnumerate);
    DotResult bnb = ExactSearch(problem, ExactStrategy::kBranchAndBound);
    ExpectSameOptimum(bnb, es, what);
    ExpectCountersAccountForTree(bnb, inst.box.NumClasses(),
                                 inst.schema.NumObjects(), what);
  });
}

TEST(BnbSearchTest, WarmStartsOnlyShrinkTheTree) {
  // Seeding the incumbent with the enumerated optimum keeps the answer bit
  // for bit, and the search can only cut more: it starts from the lowest
  // TOC any leaf has, so it prunes every node the cold search prunes.
  ForEachRandomizedDssProblem([](const RandomDssInstance& inst,
                                 const DotProblem& problem,
                                 const std::string& what) {
    const DotResult es = ExactSearch(problem, ExactStrategy::kEnumerate);
    const DotResult cold = ExactSearch(problem, ExactStrategy::kBranchAndBound);
    const std::vector<std::vector<int>> seeds = {es.placement};
    const DotResult warm = ExactSearch(problem, ExactStrategy::kBranchAndBound,
                                       kDefaultMaxEnumeratedLayouts, &seeds);
    ExpectSameOptimum(warm, cold, what);
    ExpectCountersAccountForTree(warm, inst.box.NumClasses(),
                                 inst.schema.NumObjects(), what);
    EXPECT_EQ(warm.warm_start_hits, es.status.ok() ? 1 : 0) << what;
    EXPECT_LE(warm.nodes_expanded, cold.nodes_expanded) << what;
    EXPECT_LE(warm.layouts_evaluated, cold.layouts_evaluated) << what;
  });
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

/// Forwards every call to a DSS model, wrapping its bound cursors so that
/// each Tighten that raised a bound is counted, and counted again when the
/// raised bound already misses the SLA: the branch-and-bound entry check
/// must then prune that node on the SLA alone, i.e. backtrack it with
/// nothing but Optimistic between Tighten and Unassign (`sla_prunes`).
/// Only branch-and-bound calls Tighten, and it runs on the caller's thread
/// alone, so the counts are plain integers.
class TightenCountingModel : public WorkloadModel {
 public:
  struct Counts {
    long long raised = 0;
    long long sla_misses = 0;
    long long sla_prunes = 0;
  };

  TightenCountingModel(const WorkloadModel* inner, Counts* counts)
      : inner_(inner), counts_(counts) {}

  const std::string& name() const override { return inner_->name(); }
  const Schema* schema() const override { return inner_->schema(); }
  const BoxConfig* box() const override { return inner_->box(); }
  double concurrency() const override { return inner_->concurrency(); }
  SlaKind sla_kind() const override { return inner_->sla_kind(); }
  PerfEstimate EstimateWithIoScale(const std::vector<int>& placement,
                                   const std::vector<double>& io_scale,
                                   bool need_io_by_object) const override {
    return inner_->EstimateWithIoScale(placement, io_scale,
                                       need_io_by_object);
  }
  std::unique_ptr<FastScorer> MakeFastScorer(
      const std::vector<double>& io_scale,
      const std::vector<double>& query_caps_ms, double min_tpmc,
      double sla_tolerance) const override {
    return std::make_unique<Scorer>(
        inner_->MakeFastScorer(io_scale, query_caps_ms, min_tpmc,
                               sla_tolerance),
        counts_);
  }

 private:
  class Cursor : public FastScorer::BoundCursor {
   public:
    Cursor(std::unique_ptr<FastScorer::BoundCursor> inner, Counts* counts)
        : inner_(std::move(inner)), counts_(counts) {}
    void Reset() override {
      missed_ = false;
      inner_->Reset();
    }
    void Assign(int object_id, const std::vector<int>& placement) override {
      missed_ = false;
      inner_->Assign(object_id, placement);
    }
    void Unassign(int object_id) override {
      if (missed_) counts_->sla_prunes += 1;
      missed_ = false;
      inner_->Unassign(object_id);
    }
    QuickPerf Optimistic(const std::vector<int>& placement) const override {
      return inner_->Optimistic(placement);
    }
    void ProbeClasses(int object, std::vector<int>& placement,
                      int num_classes, const unsigned char* mask,
                      QuickPerf* out, double* tp_den) override {
      missed_ = false;
      inner_->ProbeClasses(object, placement, num_classes, mask, out, tp_den);
    }
    bool Tighten(const std::vector<int>& placement) override {
      missed_ = false;
      if (!inner_->Tighten(placement)) return false;
      counts_->raised += 1;
      if (!inner_->Optimistic(placement).sla_ok) {
        counts_->sla_misses += 1;
        missed_ = true;
      }
      return true;
    }

   private:
    std::unique_ptr<FastScorer::BoundCursor> inner_;
    Counts* counts_;
    bool missed_ = false;  ///< the last call was a Tighten to an SLA miss
  };

  class Scorer : public FastScorer {
   public:
    Scorer(std::unique_ptr<FastScorer> inner, Counts* counts)
        : inner_(std::move(inner)), counts_(counts) {}
    QuickPerf Score(const std::vector<int>& placement) const override {
      return inner_->Score(placement);
    }
    std::unique_ptr<BoundCursor> MakeBoundCursor() const override {
      return std::make_unique<Cursor>(inner_->MakeBoundCursor(), counts_);
    }
    std::unique_ptr<MoveWalk> MakeMoveWalk(
        const std::vector<int>& start) const override {
      return inner_->MakeMoveWalk(start);
    }
    double ObjectTimeSpreadMs(int object) const override {
      return inner_->ObjectTimeSpreadMs(object);
    }

   private:
    std::unique_ptr<FastScorer> inner_;
    Counts* counts_;
  };

  const WorkloadModel* inner_;
  Counts* counts_;
};

TEST(BnbSearchTest, MatchesEnumerationWhereTheEntryCheckFires) {
  // DSS subsets whose join templates span three or more objects, so the
  // cursor's Tighten raises floors on descent and the entry check re-tests
  // children: capacity caps, two SLAs and no, uniform and skewed hints.
  // BnB must still return enumeration's placement, TOC bits and status at
  // 1, 4 and hardware threads, with every counter thread-invariant and the
  // tree identities intact.
  const int hw =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  TightenCountingModel::Counts counts;
  int instance = 0;
  for (bool six_objects : {false, true}) {
    const Schema schema =
        six_objects ? MakeTpchSixObjectSchema() : MakeTpchEsSubsetSchema(2.0);
    for (bool box2 : {false, true}) {
      BoxConfig box = box2 ? MakeBox2() : MakeBox1();
      if (six_objects != box2) {
        // Cap the cheapest class, pushing big objects to premium devices.
        box.classes[0].set_capacity_gb(schema.TotalSizeGb() * 0.3);
      }
      const DssWorkloadModel dss("TPC-H-subset", &schema, &box,
                                 MakeTpchSubsetTemplates(),
                                 RepeatSequence(11, 3), PlannerConfig{});
      const TightenCountingModel workload(&dss, &counts);
      Rng rng(0x7e + static_cast<uint64_t>(instance));
      for (int hint = 0; hint < 3; ++hint) {
        for (double sla : {0.3, 0.6}) {
          const std::string what =
              "instance " + std::to_string(instance) + " hint " +
              std::to_string(hint) + " sla " + std::to_string(sla);
          DotProblem problem;
          problem.schema = &schema;
          problem.box = &box;
          problem.workload = &workload;
          problem.relative_sla = sla;
          if (hint > 0) {
            problem.io_scale_hint =
                MakeHint(schema.NumObjects(), /*skewed=*/hint == 2, rng);
          }
          const DotResult es = ExactSearch(problem, ExactStrategy::kEnumerate);
          DotResult first;
          for (int t : {1, 4, hw}) {
            problem.options.num_threads = t;
            const DotResult bnb =
                ExactSearch(problem, ExactStrategy::kBranchAndBound);
            const std::string at = what + " threads " + std::to_string(t);
            ExpectSameOptimum(bnb, es, at);
            ExpectCountersAccountForTree(bnb, box.NumClasses(),
                                         schema.NumObjects(), at);
            if (t == 1) {
              first = bnb;
            } else {
              ExpectSameCounters(bnb, first, at);
            }
          }
        }
      }
      ++instance;
    }
  }
  EXPECT_GT(counts.raised, 0) << "Tighten never raised a bound";
  EXPECT_GT(counts.sla_misses, 0) << "no tightened bound missed the SLA";
  EXPECT_EQ(counts.sla_prunes, counts.sla_misses)
      << "a node whose tightened bound misses the SLA was entered";
}

TEST(BnbSearchTest, FullTpchBox1StaysNearTheRoot) {
  // Full TPC-H (16 objects, 22 templates x 3) on Box 1 at SLA 0.5 with the
  // DOT seed: the tightened floors certify the optimum within a few dozen
  // nodes (without them this search expanded about 23,000).
  const Schema schema = MakeTpchSchema(20.0);
  const BoxConfig box = MakeBox1();
  const DssWorkloadModel workload("TPC-H", &schema, &box, MakeTpchTemplates(),
                                  RepeatSequence(22, 3), PlannerConfig{});
  Profiler profiler(&schema, &box);
  const WorkloadProfiles profiles = profiler.ProfileWorkload(
      workload,
      [&](const std::vector<int>& p) { return workload.Estimate(p); });
  DotProblem problem;
  problem.schema = &schema;
  problem.box = &box;
  problem.workload = &workload;
  problem.relative_sla = 0.5;
  problem.profiles = &profiles;
  const DotResult bnb = ExactSearch(problem, ExactStrategy::kBranchAndBound);
  ASSERT_TRUE(bnb.status.ok()) << bnb.status.ToString();
  ExpectCountersAccountForTree(bnb, box.NumClasses(), schema.NumObjects(),
                               "full TPC-H box 1");
  EXPECT_LT(bnb.nodes_expanded, 1000);
}

}  // namespace
}  // namespace dot
