// The HTAP composite scorer through the whole optimizer stack: the TOC
// fast path must be bit-identical to the full estimate on randomized HTAP
// instances (including io_scale hints), DOT and the exhaustive scan must
// not move when the fast path is toggled, and the exact branch-and-bound
// search — driven by the summed two-side bound — must match the
// enumerating Exhaustive Search bit for bit at 1, 4, and
// hardware-concurrency threads, with pruning counters accounting for the
// full M^N tree — under io_scale hints at every planning concurrency too,
// where the analytic floors must keep pruning.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <string>
#include <thread>
#include <vector>

#include "catalog/chbench.h"
#include "catalog/tpcc_schema.h"
#include "common/rng.h"
#include "dot/bnb_search.h"
#include "dot/candidate_evaluator.h"
#include "dot/solve.h"
#include "storage/standard_catalog.h"
#include "workload/htap_workload.h"
#include "workload/profiler.h"
#include "workload/tpch_queries.h"

namespace dot {
namespace {

long long PowLL(int m, int n) {
  long long total = 1;
  for (int i = 0; i < n; ++i) total *= m;
  return total;
}

std::vector<int> ThreadCounts() {
  return {1, 4,
          std::max(1, static_cast<int>(std::thread::hardware_concurrency()))};
}

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

/// A randomized HTAP instance: `tables` tables (PK index each) shared by a
/// random transaction mix (2-3 types with random footprints over tables
/// and indices) and a random analytic template set (per-table scans plus a
/// two-table join), composed at a random mix ratio and coupling. Half the
/// draws cap the premium class so capacity pruning does real work.
struct RandomHtapInstance {
  Schema schema;
  BoxConfig box;
  std::unique_ptr<OltpWorkloadModel> oltp;
  std::unique_ptr<DssWorkloadModel> dss;
  std::unique_ptr<HtapWorkload> htap;

  RandomHtapInstance(uint64_t seed, int tables) {
    Rng rng(seed);
    box = rng.NextBounded(2) == 0 ? MakeBox1() : MakeBox2();
    std::vector<QuerySpec> templates;
    for (int i = 0; i < tables; ++i) {
      const std::string name = "t" + std::to_string(i);
      schema.AddTable(name, 1e5 * (1 + rng.NextBounded(12)),
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
    if (tables >= 2) {
      QuerySpec q;
      q.name = "join";
      RelationAccess outer;
      outer.table = "t0";
      outer.selectivity = rng.NextUniform(0.001, 0.05);
      outer.index_sargable = true;
      RelationAccess inner;
      inner.table = "t1";
      q.relations = {outer, inner};
      JoinStep join;
      join.matches_per_outer = rng.NextUniform(0.5, 4.0);
      join.inner_indexable = true;
      q.joins = {join};
      templates.push_back(std::move(q));
    }
    const int num_templates = static_cast<int>(templates.size());
    dss = std::make_unique<DssWorkloadModel>(
        "rand-dss", &schema, &box, std::move(templates),
        RepeatSequence(num_templates, 2), PlannerConfig{});

    // Random transaction mix over the shared objects: every object gets
    // some random I/O from at least one type, so the OLTP side has an
    // opinion about every placement decision.
    const int n = schema.NumObjects();
    const int num_txns = 2 + static_cast<int>(rng.NextBounded(2));
    std::vector<TxnType> txns;
    std::vector<double> raw_weights;
    double total_weight = 0.0;
    for (int t = 0; t < num_txns; ++t) {
      raw_weights.push_back(rng.NextUniform(0.5, 2.0));
      total_weight += raw_weights.back();
    }
    for (int t = 0; t < num_txns; ++t) {
      TxnType txn;
      txn.name = t == 0 ? "NewOrder" : "Txn" + std::to_string(t);
      txn.weight = raw_weights[static_cast<size_t>(t)] / total_weight;
      txn.cpu_ms = rng.NextUniform(0.1, 0.6);
      txn.overhead_ms = rng.NextUniform(20.0, 80.0);
      txn.io.assign(static_cast<size_t>(n), IoVector{});
      for (int o = 0; o < n; ++o) {
        if (rng.NextBounded(3) == 0) continue;  // this type skips the object
        txn.io[static_cast<size_t>(o)][IoType::kRandRead] =
            rng.NextUniform(0.1, 8.0);
        if (rng.NextBounded(2) == 0) {
          txn.io[static_cast<size_t>(o)][IoType::kRandWrite] =
              rng.NextUniform(0.1, 4.0);
        }
      }
      txns.push_back(std::move(txn));
    }
    oltp = std::make_unique<OltpWorkloadModel>(
        "rand-oltp", &schema, &box, std::move(txns),
        /*concurrency=*/50.0, /*measurement_period_ms=*/3600.0 * 1000.0,
        /*contention_reference_ms=*/190.0);

    HtapConfig config;
    config.analytics_streams = rng.NextUniform(0.25, 6.0);
    config.interference_kappa =
        rng.NextBounded(4) == 0 ? 0.0 : rng.NextUniform(0.01, 0.2);
    htap = std::make_unique<HtapWorkload>("rand-htap", oltp.get(), dss.get(),
                                          &schema, &box, config);

    if (rng.NextBounded(2) == 0) {
      const int premium = box.MostExpensiveClass();
      box.classes[static_cast<size_t>(premium)].set_capacity_gb(
          schema.TotalSizeGb() * rng.NextUniform(0.2, 0.8));
    }
  }

  DotProblem Problem() const {
    DotProblem p;
    p.schema = &schema;
    p.box = &box;
    p.workload = htap.get();
    return p;
  }
};

void ExpectEvalIdentical(const CandidateEval& fast, const CandidateEval& full,
                         const std::vector<int>& placement) {
  std::string where = "placement:";
  for (int c : placement) where += " " + std::to_string(c);
  EXPECT_EQ(fast.fits, full.fits) << where;
  EXPECT_EQ(fast.feasible, full.feasible) << where;
  EXPECT_EQ(fast.toc, full.toc) << where;
  EXPECT_EQ(fast.cost_cents_per_hour, full.cost_cents_per_hour) << where;
  EXPECT_EQ(fast.violation_gb, full.violation_gb) << where;
}

/// EvaluateQuick vs EvaluateOne on a random single-object-mutation walk
/// (the plan cache's hit pattern), as in dot_fast_eval_test.
void CheckRandomizedEquivalence(const DotProblem& problem, uint64_t seed,
                                int rounds) {
  DotOptimizer optimizer(problem);
  const int n = problem.schema->NumObjects();
  const int m = problem.box->NumClasses();
  Rng rng(seed);
  std::vector<int> placement(static_cast<size_t>(n), 0);
  for (int round = 0; round < rounds; ++round) {
    if (round % 7 == 0) {
      for (int o = 0; o < n; ++o) {
        placement[static_cast<size_t>(o)] =
            static_cast<int>(rng.NextBounded(static_cast<uint64_t>(m)));
      }
    } else {
      const size_t o = rng.NextBounded(static_cast<uint64_t>(n));
      placement[o] =
          static_cast<int>(rng.NextBounded(static_cast<uint64_t>(m)));
    }
    const Layout layout(problem.schema, problem.box, placement);
    ExpectEvalIdentical(optimizer.EvaluateQuick(placement),
                        optimizer.EvaluateOne(layout), placement);
  }
  // The analytic side's plan cache must have seen both traffic kinds.
  EXPECT_GT(optimizer.plan_cache_hits(), 0);
  EXPECT_GT(optimizer.plan_cache_misses(), 0);
}

TEST(HtapFastEvalTest, RandomizedPlacementsMatchFullPathExactly) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    RandomHtapInstance inst(seed * 131, 3);
    DotProblem problem = inst.Problem();
    problem.relative_sla = 0.25 + 0.15 * static_cast<double>(seed % 3);
    SCOPED_TRACE("seed " + std::to_string(seed));
    CheckRandomizedEquivalence(problem, seed * 7919, /*rounds=*/120);
  }
}

TEST(HtapFastEvalTest, RandomizedPlacementsMatchWithIoScaleHint) {
  RandomHtapInstance inst(5, 3);
  DotProblem problem = inst.Problem();
  problem.relative_sla = 0.3;
  for (int o = 0; o < inst.schema.NumObjects(); ++o) {
    problem.io_scale_hint.push_back(0.5 + 0.25 * (o % 4));
  }
  CheckRandomizedEquivalence(problem, 0xbeef, /*rounds=*/100);
}

TEST(HtapFastEvalTest, ChbenchOptimizeMatchesSlowPathAtEveryThreadCount) {
  // The real CH-benCH composition through the DOT heuristic: toggling the
  // fast path and the engine fan-out must not move the result.
  Schema full = MakeTpccSchema(30);
  Schema schema = full.Subset({"stock", "pk_stock", "order_line",
                               "pk_order_line", "customer", "pk_customer",
                               "orders", "pk_orders"});
  BoxConfig box = MakeBox2();
  HtapBundle bundle = MakeChbenchHtapWorkload(&schema, &box, HtapConfig{});
  Profiler profiler(&schema, &box);
  WorkloadProfiles profiles = profiler.ProfileWorkload(
      *bundle.htap,
      [&](const std::vector<int>& p) { return bundle.htap->Estimate(p); });
  DotProblem problem;
  problem.schema = &schema;
  problem.box = &box;
  problem.workload = bundle.htap.get();
  problem.relative_sla = 0.25;
  problem.profiles = &profiles;

  DotProblem slow = problem;
  slow.options.use_fast_eval = false;
  const DotResult full_r = DotOptimizer(slow).Optimize();
  ASSERT_TRUE(full_r.status.ok()) << full_r.status.ToString();
  for (int threads : ThreadCounts()) {
    DotProblem fast = problem;
    fast.options.num_threads = threads;
    const DotResult r = DotOptimizer(fast).Optimize();
    const std::string what = "num_threads=" + std::to_string(threads);
    ASSERT_EQ(r.status.code(), full_r.status.code()) << what;
    EXPECT_EQ(r.placement, full_r.placement) << what;
    EXPECT_EQ(r.toc_cents_per_task, full_r.toc_cents_per_task) << what;
    EXPECT_EQ(r.estimate.tasks_per_hour, full_r.estimate.tasks_per_hour)
        << what;
  }
}

TEST(HtapBnbTest, MatchesEnumerationOnRandomizedInstances) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const int tables = 2 + static_cast<int>(seed % 2);  // 4 or 6 objects
    RandomHtapInstance inst(seed, tables);
    DotProblem problem = inst.Problem();
    problem.relative_sla = 0.2 + 0.15 * static_cast<double>(seed % 3);
    if (seed % 2 == 0) {
      Rng rng(seed * 31);
      for (int o = 0; o < inst.schema.NumObjects(); ++o) {
        problem.io_scale_hint.push_back(rng.NextUniform(0.5, 1.5));
      }
    }
    if (seed % 3 == 0) {
      problem.cost_model.discrete = true;
      problem.cost_model.alpha = 0.5;
    }
    const std::string what = "htap seed " + std::to_string(seed);
    DotResult es = ExactSearch(problem, ExactStrategy::kEnumerate);
    DotResult bnb = ExactSearch(problem, ExactStrategy::kBranchAndBound);
    ExpectSameOptimum(bnb, es, what);
    ExpectCountersAccountForTree(bnb, inst.box.NumClasses(),
                                 inst.schema.NumObjects(), what);
  }
}

TEST(HtapBnbTest, MatchesEnumerationOnChbenchSubset) {
  Schema full = MakeTpccSchema(30);
  Schema schema = full.Subset({"stock", "pk_stock", "order_line",
                               "pk_order_line", "customer", "pk_customer",
                               "orders", "pk_orders"});
  BoxConfig box = MakeBox2();
  for (double streams : {0.5, 4.0}) {
    HtapConfig config;
    config.analytics_streams = streams;
    HtapBundle bundle = MakeChbenchHtapWorkload(&schema, &box, config);
    DotProblem problem;
    problem.schema = &schema;
    problem.box = &box;
    problem.workload = bundle.htap.get();
    problem.relative_sla = 0.2;
    problem.options.num_threads = 0;
    const std::string what = "chbench streams=" + std::to_string(streams);
    DotResult es = ExactSearch(problem, ExactStrategy::kEnumerate);
    DotResult bnb = ExactSearch(problem, ExactStrategy::kBranchAndBound);
    ExpectSameOptimum(bnb, es, what);
    ExpectCountersAccountForTree(bnb, box.NumClasses(), schema.NumObjects(),
                                 what);
    // The summed two-side bound must do real work, not degenerate to
    // enumeration.
    if (bnb.status.ok()) {
      EXPECT_LT(bnb.layouts_evaluated, es.layouts_evaluated / 2) << what;
    }
  }
}

/// The CH-benCH subset of the advisor benchmark: stock, order_line,
/// customer and orders with their keys (3^8 layouts on Box 2).
Schema MakeChbenchSubsetSchema() {
  return MakeTpccSchema(30).Subset({"stock", "pk_stock", "order_line",
                                    "pk_order_line", "customer", "pk_customer",
                                    "orders", "pk_orders"});
}

/// MakeChbenchHtapWorkload's composition with the analytic side planned
/// at `planning_concurrency`.
HtapBundle MakeChbenchAtPlanningConcurrency(const Schema* schema,
                                            const BoxConfig* box,
                                            const HtapConfig& config,
                                            double planning_concurrency) {
  HtapBundle bundle;
  bundle.oltp = MakeTpccWorkload(schema, box, TpccConfig{});
  std::vector<QuerySpec> templates =
      FilterTemplatesToSchema(MakeChbenchTemplates(), *schema);
  const int num_templates = static_cast<int>(templates.size());
  PlannerConfig planner_config;
  planner_config.concurrency = planning_concurrency;
  bundle.dss = std::make_unique<DssWorkloadModel>(
      "CH-benCH", schema, box, std::move(templates),
      RepeatSequence(num_templates, 1), planner_config);
  bundle.htap = std::make_unique<HtapWorkload>(
      "CH-benCH-HTAP", bundle.oltp.get(), bundle.dss.get(), schema, box,
      config);
  return bundle;
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

TEST(HtapBnbTest, MatchesEnumerationUnderHintsAtEveryPlanningConcurrency) {
  // The analytic side's scaled floors and its scaled re-price must time
  // I/O on the same latency rows at every planning concurrency.
  Schema schema = MakeChbenchSubsetSchema();
  const BoxConfig box = MakeBox2();
  for (double concurrency : {1.0, 30.0, 300.0}) {
    HtapConfig config;
    config.analytics_streams = 8.0;
    HtapBundle bundle =
        MakeChbenchAtPlanningConcurrency(&schema, &box, config, concurrency);
    Rng rng(static_cast<uint64_t>(concurrency) + 5);
    for (bool skewed : {false, true}) {
      DotProblem problem;
      problem.schema = &schema;
      problem.box = &box;
      problem.workload = bundle.htap.get();
      problem.relative_sla = 0.35;
      problem.options.num_threads = 0;
      problem.io_scale_hint = MakeHint(schema.NumObjects(), skewed, rng);
      const std::string what = "concurrency " + std::to_string(concurrency) +
                               (skewed ? " skewed" : " uniform");
      const DotResult es = ExactSearch(problem, ExactStrategy::kEnumerate);
      const DotResult bnb =
          ExactSearch(problem, ExactStrategy::kBranchAndBound);
      ExpectSameOptimum(bnb, es, what);
      ExpectCountersAccountForTree(bnb, box.NumClasses(), schema.NumObjects(),
                                   what);
    }
  }
}

TEST(HtapBnbTest, HintedCountersMatchAcrossThreadCounts) {
  Schema schema = MakeChbenchSubsetSchema();
  const BoxConfig box = MakeBox2();
  HtapConfig config;
  config.analytics_streams = 8.0;
  HtapBundle bundle =
      MakeChbenchAtPlanningConcurrency(&schema, &box, config, 30.0);
  Rng rng(0x68);
  DotProblem problem;
  problem.schema = &schema;
  problem.box = &box;
  problem.workload = bundle.htap.get();
  problem.relative_sla = 0.35;
  problem.io_scale_hint = MakeHint(schema.NumObjects(), /*skewed=*/true, rng);
  problem.options.num_threads = 1;
  const DotResult baseline =
      ExactSearch(problem, ExactStrategy::kBranchAndBound);
  for (int t : ThreadCounts()) {
    DotProblem p = problem;
    p.options.num_threads = t;
    const DotResult r = ExactSearch(p, ExactStrategy::kBranchAndBound);
    const std::string what = "num_threads=" + std::to_string(t);
    ExpectSameOptimum(r, baseline, what);
    ExpectSameCounters(r, baseline, what);
  }
}

TEST(HtapBnbTest, AnalyticBoundIsLiveUnderHints) {
  // With the analytic floors at 0 a hinted search prunes only on capacity
  // and the OLTP side, and scans a large share of the 3^8 layouts.
  Schema schema = MakeChbenchSubsetSchema();
  const BoxConfig box = MakeBox2();
  HtapConfig config;
  config.analytics_streams = 8.0;
  HtapBundle bundle = MakeChbenchHtapWorkload(&schema, &box, config);
  Rng rng(0xb0);
  for (bool skewed : {false, true}) {
    DotProblem problem;
    problem.schema = &schema;
    problem.box = &box;
    problem.workload = bundle.htap.get();
    problem.relative_sla = 0.35;
    problem.io_scale_hint = MakeHint(schema.NumObjects(), skewed, rng);
    const std::string what = skewed ? "skewed hint" : "uniform hint";
    const SolveResult r = Solve(problem);
    ASSERT_TRUE(r.status.ok()) << what << ": " << r.status.ToString();
    EXPECT_GT(r.provenance.nodes_pruned_bound, 0) << what;
    EXPECT_LT(r.provenance.layouts_evaluated, PowLL(3, 8) / 20) << what;
  }
}

TEST(HtapBnbTest, DeterministicAcrossThreadCountsIncludingCounters) {
  RandomHtapInstance inst(17, 3);
  DotProblem problem = inst.Problem();
  problem.relative_sla = 0.3;
  problem.options.num_threads = 1;
  const DotResult baseline =
      ExactSearch(problem, ExactStrategy::kBranchAndBound);
  for (int t : ThreadCounts()) {
    DotProblem p = inst.Problem();
    p.relative_sla = 0.3;
    p.options.num_threads = t;
    const DotResult r = ExactSearch(p, ExactStrategy::kBranchAndBound);
    const std::string what = "num_threads=" + std::to_string(t);
    ExpectSameOptimum(r, baseline, what);
    ExpectSameCounters(r, baseline, what);
  }
}

TEST(HtapBnbTest, InfeasibleVerdictMatchesEnumeration) {
  RandomHtapInstance inst(23, 2);
  BoxConfig tiny = inst.box;
  for (StorageClass& sc : tiny.classes) sc.set_capacity_gb(0.001);
  DotProblem problem = inst.Problem();
  problem.box = &tiny;
  DotResult es = ExactSearch(problem, ExactStrategy::kEnumerate);
  DotResult bnb = ExactSearch(problem, ExactStrategy::kBranchAndBound);
  EXPECT_EQ(es.status.code(), StatusCode::kInfeasible);
  EXPECT_EQ(bnb.status.code(), StatusCode::kInfeasible);
  ExpectCountersAccountForTree(bnb, tiny.NumClasses(),
                               inst.schema.NumObjects(), "htap infeasible");
}

}  // namespace
}  // namespace dot
