// The robust-planning contracts (dot/ensemble.h, DESIGN.md §10):
//
//   * AggregateEnsemble arithmetic — expectation, CVaR tail selection with
//     its short-circuits, the chance constraint;
//   * a K=1 nominal ensemble reproduces the point-forecast optimization
//     bit for bit (heuristic, branch-and-bound, and enumeration);
//   * under a real ensemble, fast == full, branch-and-bound == enumerate,
//     and results are bit-identical at every thread count;
//   * CVaR at alpha = 1 is the expectation, bitwise;
//   * the point forecast is the K=1 nominal ensemble on DSS, OLTP and
//     HTAP models, counters included, and DotProblem::ensemble is the one
//     route to a robust plan.

#include "dot/ensemble.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "catalog/tpcc_schema.h"
#include "catalog/tpch_schema.h"
#include "dot/bnb_search.h"
#include "dot/optimizer.h"
#include "dot/solve.h"
#include "storage/standard_catalog.h"
#include "workload/dss_workload.h"
#include "workload/htap_workload.h"
#include "workload/profiler.h"
#include "workload/scenario.h"
#include "workload/tpcc_workload.h"
#include "workload/tpch_queries.h"

namespace dot {
namespace {

// --- AggregateEnsemble unit tests -------------------------------------

EnsembleObjective Expectation() { return EnsembleObjective{}; }

EnsembleObjective CVaR(double alpha) {
  EnsembleObjective objective;
  objective.kind = EnsembleObjective::Kind::kCVaR;
  objective.alpha = alpha;
  return objective;
}

TEST(AggregateEnsembleTest, SingleScenarioPassesThroughBitwise) {
  const ScenarioScore score{123.456789, true};
  const EnsembleVerdict v =
      AggregateEnsemble(Expectation(), {1.0}, &score, 1);
  // Exactly the scenario's throughput — not 1/(1/x).
  EXPECT_EQ(v.tasks_per_hour, 123.456789);
  EXPECT_TRUE(v.sla_ok);
}

TEST(AggregateEnsembleTest, ExpectationIsTheWeightedHarmonicMean) {
  const std::vector<double> w{0.5, 0.5};
  const ScenarioScore scores[] = {{100.0, true}, {50.0, true}};
  const EnsembleVerdict v =
      AggregateEnsemble(Expectation(), w, scores, 2);
  EXPECT_DOUBLE_EQ(v.tasks_per_hour, 1.0 / (0.5 / 100.0 + 0.5 / 50.0));
}

TEST(AggregateEnsembleTest, UnboundedScenariosContributeNothing) {
  // thr 0 = "unbounded" (only bound cursors produce it): the scenario's
  // best-case TOC contribution is zero, keeping the aggregate admissible.
  const std::vector<double> w{0.5, 0.5};
  const ScenarioScore scores[] = {{0.0, true}, {50.0, true}};
  EXPECT_DOUBLE_EQ(
      AggregateEnsemble(Expectation(), w, scores, 2).tasks_per_hour, 100.0);

  const ScenarioScore all_unbounded[] = {{0.0, true}, {0.0, true}};
  EXPECT_EQ(
      AggregateEnsemble(Expectation(), w, all_unbounded, 2).tasks_per_hour,
      0.0);
}

TEST(AggregateEnsembleTest, CvarTailInOneScenarioReturnsItsThroughput) {
  // alpha <= the worst scenario's weight: CVaR is exactly that scenario's
  // TOC, returned bitwise (no alpha/(alpha/thr) round trip).
  const std::vector<double> w{0.5, 0.5};
  const ScenarioScore scores[] = {{100.0, true}, {20.0, true}};
  const EnsembleVerdict v = AggregateEnsemble(CVaR(0.3), w, scores, 2);
  EXPECT_EQ(v.tasks_per_hour, 20.0);
}

TEST(AggregateEnsembleTest, CvarFractionalBoundaryScenario) {
  // alpha = 0.5 over weights {0.25, 0.75} sorted worst-first: all of the
  // worst (0.25 @ thr 20) plus 0.25 of the boundary (thr 100).
  const std::vector<double> w{0.25, 0.75};
  const ScenarioScore scores[] = {{20.0, true}, {100.0, true}};
  const EnsembleVerdict v = AggregateEnsemble(CVaR(0.5), w, scores, 2);
  EXPECT_DOUBLE_EQ(v.tasks_per_hour,
                   0.5 / (0.25 / 20.0 + 0.25 / 100.0));
}

TEST(AggregateEnsembleTest, CvarSortsUnboundedLast) {
  // thr 0 is the *cheapest* TOC, so it sorts out of the tail: the whole
  // alpha mass lands on the bounded scenario.
  const std::vector<double> w{0.5, 0.5};
  const ScenarioScore scores[] = {{0.0, true}, {50.0, true}};
  const EnsembleVerdict v = AggregateEnsemble(CVaR(0.5), w, scores, 2);
  EXPECT_EQ(v.tasks_per_hour, 50.0);
}

TEST(AggregateEnsembleTest, CvarAlphaOneIsTheExpectationBitwise) {
  const std::vector<double> w{0.3, 0.3, 0.4};
  const ScenarioScore scores[] = {{80.0, true}, {50.0, true}, {120.0, true}};
  EXPECT_EQ(AggregateEnsemble(CVaR(1.0), w, scores, 3).tasks_per_hour,
            AggregateEnsemble(Expectation(), w, scores, 3).tasks_per_hour);
}

TEST(AggregateEnsembleTest, CvarIsNeverMoreOptimisticThanTheExpectation) {
  const std::vector<double> w{0.25, 0.25, 0.25, 0.25};
  const ScenarioScore scores[] = {
      {80.0, true}, {50.0, true}, {120.0, true}, {65.0, true}};
  const double expectation =
      AggregateEnsemble(Expectation(), w, scores, 4).tasks_per_hour;
  double previous = 0.0;
  for (double alpha : {0.25, 0.5, 0.75, 1.0}) {
    const double cvar =
        AggregateEnsemble(CVaR(alpha), w, scores, 4).tasks_per_hour;
    EXPECT_LE(cvar, expectation) << "alpha " << alpha;
    // Shrinking the tail focuses on ever-worse scenarios: monotone.
    if (previous > 0.0) {
      EXPECT_GE(cvar, previous) << "alpha " << alpha;
    }
    previous = cvar;
  }
}

TEST(AggregateEnsembleTest, ChanceConstraintCountsFeasibleMass) {
  const std::vector<double> w{0.25, 0.25, 0.25, 0.25};
  const ScenarioScore scores[] = {
      {80.0, true}, {50.0, false}, {120.0, true}, {65.0, true}};

  // 75% feasible mass: fails the default all-scenarios constraint...
  EnsembleObjective strict;
  strict.min_feasible_fraction = 1.0;
  EXPECT_FALSE(AggregateEnsemble(strict, w, scores, 4).sla_ok);

  // ...meets a 75% chance constraint (the tolerance absorbs 1/K drift)...
  EnsembleObjective chance;
  chance.min_feasible_fraction = 0.75;
  EXPECT_TRUE(AggregateEnsemble(chance, w, scores, 4).sla_ok);

  // ...and an all-feasible ensemble meets the strict constraint exactly.
  const ScenarioScore all_ok[] = {
      {80.0, true}, {50.0, true}, {120.0, true}, {65.0, true}};
  EXPECT_TRUE(AggregateEnsemble(strict, w, all_ok, 4).sla_ok);
}

// --- optimizer-level contracts ----------------------------------------

/// The §4.4.3 small TPC-H instance: 8 objects, exhaustive-tractable.
class EnsembleOptTest : public ::testing::Test {
 protected:
  EnsembleOptTest()
      : schema_(MakeTpchEsSubsetSchema(20.0)),
        box_(MakeBox1()),
        workload_("TPC-H-ES", &schema_, &box_, MakeTpchSubsetTemplates(),
                  RepeatSequence(11, 3), PlannerConfig{}),
        profiler_(&schema_, &box_),
        profiles_(profiler_.ProfileWorkload(
            workload_, [&](const std::vector<int>& p) {
              return workload_.Estimate(p);
            })) {
    problem_.schema = &schema_;
    problem_.box = &box_;
    problem_.workload = &workload_;
    problem_.relative_sla = 0.5;
    problem_.profiles = &profiles_;

    ScenarioNoise noise;
    noise.num_scenarios = 5;
    noise.io_scale_cv = 0.25;
    noise.count_cv = 0.1;
    noise.seed = 11;
    noisy_ = SampleScenarioEnsemble(schema_.NumObjects(), noise);

    ScenarioNoise point;
    point.num_scenarios = 1;
    nominal_only_ = SampleScenarioEnsemble(schema_.NumObjects(), point);
  }

  void ExpectSameResult(const DotResult& a, const DotResult& b) {
    ASSERT_EQ(a.status.ok(), b.status.ok());
    EXPECT_EQ(a.placement, b.placement);
    EXPECT_EQ(a.toc_cents_per_task, b.toc_cents_per_task);
    EXPECT_EQ(a.layout_cost_cents_per_hour, b.layout_cost_cents_per_hour);
    EXPECT_EQ(a.layouts_evaluated, b.layouts_evaluated);
    EXPECT_EQ(a.estimate.tasks_per_hour, b.estimate.tasks_per_hour);
  }

  Schema schema_;
  BoxConfig box_;
  DssWorkloadModel workload_;
  Profiler profiler_;
  WorkloadProfiles profiles_;
  DotProblem problem_;
  ScenarioEnsemble noisy_;
  ScenarioEnsemble nominal_only_;
};

TEST_F(EnsembleOptTest, K1NominalEnsembleReproducesThePointForecastBitwise) {
  DotProblem robust = problem_;
  robust.ensemble = &nominal_only_;

  // The heuristic walk: same committed sequence, same winner.
  ExpectSameResult(DotOptimizer(problem_).Optimize(),
                   DotOptimizer(robust).Optimize());

  // Branch-and-bound: even the prune counters must match — the K=1 bound
  // cursor delegates to the child with no inflation at all.
  const DotResult point_bnb =
      ExactSearch(problem_, ExactStrategy::kBranchAndBound);
  const DotResult robust_bnb =
      ExactSearch(robust, ExactStrategy::kBranchAndBound);
  ExpectSameResult(point_bnb, robust_bnb);
  EXPECT_EQ(point_bnb.nodes_expanded, robust_bnb.nodes_expanded);
  EXPECT_EQ(point_bnb.nodes_pruned_bound, robust_bnb.nodes_pruned_bound);
  EXPECT_EQ(point_bnb.nodes_pruned_infeasible,
            robust_bnb.nodes_pruned_infeasible);

  // Enumeration.
  ExpectSameResult(ExactSearch(problem_, ExactStrategy::kEnumerate),
                   ExactSearch(robust, ExactStrategy::kEnumerate));
}

TEST_F(EnsembleOptTest, FastPathMatchesFullPathUnderAnEnsemble) {
  DotProblem fast = problem_;
  fast.ensemble = &noisy_;
  DotProblem full = fast;
  full.options.use_fast_eval = false;

  const DotResult full_es = ExactSearch(full, ExactStrategy::kEnumerate);
  const DotResult full_dot = DotOptimizer(full).Optimize();
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  for (int threads : {1, 4, hw}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    fast.options.num_threads = threads;
    ExpectSameResult(ExactSearch(fast, ExactStrategy::kEnumerate), full_es);
    ExpectSameResult(DotOptimizer(fast).Optimize(), full_dot);
  }
}

TEST_F(EnsembleOptTest, BranchAndBoundMatchesEnumerationUnderAnEnsemble) {
  for (const EnsembleObjective& objective :
       {Expectation(), CVaR(0.4), CVaR(1.0)}) {
    DotProblem robust = problem_;
    robust.ensemble = &noisy_;
    robust.ensemble_objective = objective;
    const DotResult bnb =
        ExactSearch(robust, ExactStrategy::kBranchAndBound);
    const DotResult enumerated =
        ExactSearch(robust, ExactStrategy::kEnumerate);
    ASSERT_TRUE(bnb.status.ok());
    EXPECT_EQ(bnb.placement, enumerated.placement);
    EXPECT_EQ(bnb.toc_cents_per_task, enumerated.toc_cents_per_task);
    // The bound must actually bound: pruning happened.
    EXPECT_GT(bnb.layouts_pruned, 0);
  }
}

TEST_F(EnsembleOptTest, TightenedBranchAndBoundMatchesEnumerationAtK2AndK5) {
  // The ensemble cursor forwards Tighten to every child scorer, so robust
  // exact solves descend on the same compiled floors as point ones. Each
  // objective kind, and a chance constraint, at K = 2 and K = 5: the same
  // status, placement and TOC bits as enumeration, and the tree identity.
  EnsembleObjective chance = CVaR(0.4);
  chance.min_feasible_fraction = 0.5;
  for (int k : {2, 5}) {
    ScenarioNoise noise;
    noise.num_scenarios = k;
    noise.io_scale_cv = 0.3;
    noise.count_cv = 0.1;
    noise.seed = 17 + static_cast<uint64_t>(k);
    const ScenarioEnsemble ensemble =
        SampleScenarioEnsemble(schema_.NumObjects(), noise);
    for (const EnsembleObjective& objective :
         {Expectation(), CVaR(0.4), chance}) {
      const std::string what =
          "K=" + std::to_string(k) + " kind " +
          std::to_string(static_cast<int>(objective.kind)) + " chance " +
          std::to_string(objective.min_feasible_fraction);
      DotProblem robust = problem_;
      robust.ensemble = &ensemble;
      robust.ensemble_objective = objective;
      const DotResult bnb =
          ExactSearch(robust, ExactStrategy::kBranchAndBound);
      const DotResult enumerated =
          ExactSearch(robust, ExactStrategy::kEnumerate);
      ASSERT_EQ(bnb.status.code(), enumerated.status.code()) << what;
      EXPECT_EQ(bnb.placement, enumerated.placement) << what;
      EXPECT_EQ(bnb.toc_cents_per_task, enumerated.toc_cents_per_task)
          << what;
      EXPECT_EQ(bnb.layouts_evaluated + bnb.layouts_pruned,
                enumerated.layouts_evaluated)
          << what;
      EXPECT_EQ(bnb.nodes_pruned_bound + bnb.nodes_pruned_infeasible +
                    bnb.layouts_evaluated,
                1 + (box_.NumClasses() - 1) * bnb.nodes_expanded)
          << what;
    }
  }
}

TEST_F(EnsembleOptTest, CvarAlphaOneOptimizationMatchesExpectationBitwise) {
  DotProblem expectation = problem_;
  expectation.ensemble = &noisy_;
  DotProblem cvar_one = expectation;
  cvar_one.ensemble_objective = CVaR(1.0);
  ExpectSameResult(ExactSearch(expectation, ExactStrategy::kBranchAndBound),
                   ExactSearch(cvar_one, ExactStrategy::kBranchAndBound));
}

TEST_F(EnsembleOptTest, RobustDecisionsAreBitIdenticalAcrossThreadCounts) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  DotProblem robust = problem_;
  robust.ensemble = &noisy_;
  robust.ensemble_objective = CVaR(0.4);

  robust.options.num_threads = 1;
  const DotResult reference =
      ExactSearch(robust, ExactStrategy::kBranchAndBound);
  const DotResult heuristic_ref = DotOptimizer(robust).Optimize();
  for (int threads : {4, hw}) {
    robust.options.num_threads = threads;
    const DotResult exact = ExactSearch(robust, ExactStrategy::kBranchAndBound);
    EXPECT_EQ(exact.placement, reference.placement) << threads;
    EXPECT_EQ(exact.toc_cents_per_task, reference.toc_cents_per_task);
    EXPECT_EQ(exact.layouts_evaluated, reference.layouts_evaluated);
    const DotResult heuristic = DotOptimizer(robust).Optimize();
    EXPECT_EQ(heuristic.placement, heuristic_ref.placement) << threads;
    EXPECT_EQ(heuristic.toc_cents_per_task,
              heuristic_ref.toc_cents_per_task);
  }
}

TEST_F(EnsembleOptTest, EstimateTocReportsTheChanceVerdict) {
  // One scenario scaled hard enough to blow the SLA: the all-premium
  // layout stays feasible per-scenario nominal but the strict chance
  // constraint fails, while an 80% constraint tolerates the miss mass.
  ScenarioEnsemble ensemble = nominal_only_;
  Scenario stressed;
  stressed.io_scale.assign(static_cast<size_t>(schema_.NumObjects()), 50.0);
  stressed.label = "meltdown";
  ensemble.scenarios.push_back(stressed);
  for (int i = 0; i < 3; ++i) {
    Scenario calm;
    calm.label = "calm";
    ensemble.scenarios.push_back(calm);
  }

  DotProblem robust = problem_;
  robust.ensemble = &ensemble;
  robust.ensemble_objective.min_feasible_fraction = 1.0;
  const std::vector<int> premium = UniformPlacement(
      schema_.NumObjects(), box_.MostExpensiveClass());

  bool strict_ok = true;
  DotOptimizer strict(robust);
  (void)strict.EstimateToc(premium, nullptr, nullptr, &strict_ok);
  EXPECT_FALSE(strict_ok) << "the meltdown scenario must fail a 100% chance "
                             "constraint";

  robust.ensemble_objective.min_feasible_fraction = 0.8;
  bool tolerant_ok = false;
  DotOptimizer tolerant(robust);
  (void)tolerant.EstimateToc(premium, nullptr, nullptr, &tolerant_ok);
  EXPECT_TRUE(tolerant_ok) << "4/5 scenarios feasible meets an 80% chance "
                              "constraint";
}

TEST_F(EnsembleOptTest, SolveRunsTheProblemEnsemble) {
  // DotProblem::ensemble is the one route to a robust plan: Solve runs it
  // exactly as the engines do when called directly.
  DotProblem robust = problem_;
  robust.ensemble = &noisy_;
  robust.ensemble_objective = CVaR(0.4);
  const DotResult direct =
      ExactSearch(robust, ExactStrategy::kBranchAndBound);

  SolveSpec spec;
  spec.method = SolveMethod::kExact;
  const SolveResult facade = Solve(robust, spec);
  ASSERT_TRUE(facade.status.ok());
  EXPECT_EQ(facade.placement, direct.placement);
  EXPECT_EQ(facade.toc_cents_per_task, direct.toc_cents_per_task);
  EXPECT_EQ(facade.provenance.layouts_evaluated, direct.layouts_evaluated);

  spec.method = SolveMethod::kDotHeuristic;
  ExpectSameResult(Solve(robust, spec).dot, DotOptimizer(robust).Optimize());

  // A problem ensemble on the epoch planner is a spec error: the planner
  // refuses it before planning, and Solve forwards that status.
  SolveSpec epoch;
  epoch.method = SolveMethod::kEpochPlan;
  const SolveResult refused = Solve(robust, epoch);
  EXPECT_EQ(refused.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.status.message().find("single-shot"), std::string::npos);
  EXPECT_EQ(refused.plan.status, refused.status);
  EXPECT_TRUE(refused.plan.steps.empty());
}

TEST_F(EnsembleOptTest, PointProblemIgnoresItsEnsembleObjective) {
  // Without an ensemble the objective is not read: an out-of-range one
  // (a vacuous chance constraint, a NaN CVaR tail) solves bit-identically
  // to the default.
  DotProblem odd = problem_;
  odd.ensemble_objective.kind = EnsembleObjective::Kind::kCVaR;
  odd.ensemble_objective.alpha = std::numeric_limits<double>::quiet_NaN();
  odd.ensemble_objective.min_feasible_fraction = 0.0;

  ExpectSameResult(DotOptimizer(problem_).Optimize(),
                   DotOptimizer(odd).Optimize());
  const DotResult point = ExactSearch(problem_, ExactStrategy::kBranchAndBound);
  const DotResult ignored = ExactSearch(odd, ExactStrategy::kBranchAndBound);
  ExpectSameResult(point, ignored);
  EXPECT_EQ(point.nodes_expanded, ignored.nodes_expanded);
  EXPECT_EQ(point.nodes_pruned_bound, ignored.nodes_pruned_bound);
  EXPECT_EQ(point.nodes_pruned_infeasible, ignored.nodes_pruned_infeasible);

  // An infeasible layout stays infeasible: the vacuous chance constraint
  // is not applied.
  int infeasible = 0;
  for (int cls = 0; cls < box_.NumClasses(); ++cls) {
    const std::vector<int> uniform =
        UniformPlacement(schema_.NumObjects(), cls);
    bool point_ok = true;
    bool odd_ok = true;
    const double point_toc = DotOptimizer(problem_).EstimateToc(
        uniform, nullptr, nullptr, &point_ok);
    const double odd_toc =
        DotOptimizer(odd).EstimateToc(uniform, nullptr, nullptr, &odd_ok);
    EXPECT_EQ(point_toc, odd_toc) << cls;
    EXPECT_EQ(point_ok, odd_ok) << cls;
    if (!point_ok) ++infeasible;
  }
  EXPECT_GT(infeasible, 0);
}

// --- K = 1 over the OLTP and HTAP models ------------------------------

/// Placement, TOC, estimate and every SearchStats counter of two runs. The
/// plan-cache pair is compared only when `cache_counters`: it is the one
/// counter a multi-threaded search fills in a timing-dependent order.
void ExpectSameRun(const DotResult& a, const DotResult& b, bool cache_counters,
                   const std::string& what) {
  ASSERT_EQ(a.status.code(), b.status.code()) << what;
  EXPECT_EQ(a.placement, b.placement) << what;
  EXPECT_EQ(a.toc_cents_per_task, b.toc_cents_per_task) << what;
  EXPECT_EQ(a.layout_cost_cents_per_hour, b.layout_cost_cents_per_hour)
      << what;
  EXPECT_EQ(a.estimate.tasks_per_hour, b.estimate.tasks_per_hour) << what;
  EXPECT_EQ(a.layouts_evaluated, b.layouts_evaluated) << what;
  EXPECT_EQ(a.moves_priced, b.moves_priced) << what;
  EXPECT_EQ(a.moves_gated, b.moves_gated) << what;
  EXPECT_EQ(a.nodes_expanded, b.nodes_expanded) << what;
  EXPECT_EQ(a.nodes_pruned_bound, b.nodes_pruned_bound) << what;
  EXPECT_EQ(a.nodes_pruned_infeasible, b.nodes_pruned_infeasible) << what;
  EXPECT_EQ(a.layouts_pruned, b.layouts_pruned) << what;
  EXPECT_EQ(a.warm_start_hits, b.warm_start_hits) << what;
  EXPECT_EQ(a.arena_bytes_peak, b.arena_bytes_peak) << what;
  EXPECT_EQ(a.pool_size, b.pool_size) << what;
  EXPECT_EQ(a.pool_builds, b.pool_builds) << what;
  EXPECT_EQ(a.pool_cache_hits, b.pool_cache_hits) << what;
  if (cache_counters) {
    EXPECT_EQ(a.plan_cache_hits, b.plan_cache_hits) << what;
    EXPECT_EQ(a.plan_cache_misses, b.plan_cache_misses) << what;
  }
}

/// The heuristic and branch-and-bound on `problem` (which must carry
/// profiles), as the point forecast and under a K = 1 nominal ensemble,
/// at 1, 4 and hardware-concurrency threads.
void ExpectK1EnsembleIsThePointForecast(DotProblem problem,
                                        const std::string& what) {
  ScenarioNoise one;
  one.num_scenarios = 1;
  const ScenarioEnsemble k1 =
      SampleScenarioEnsemble(problem.schema->NumObjects(), one);
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  for (int threads : {1, 4, hw}) {
    problem.options.num_threads = threads;
    DotProblem robust = problem;
    robust.ensemble = &k1;
    const std::string at = what + " at " + std::to_string(threads);
    const DotResult point_dot = DotOptimizer(problem).Optimize();
    ASSERT_TRUE(point_dot.status.ok()) << at << point_dot.status.ToString();
    // The DOT walk is serial, so its plan-cache counters are exact too.
    ExpectSameRun(point_dot, DotOptimizer(robust).Optimize(),
                  /*cache_counters=*/true, at + " heuristic");
    const DotResult point_bnb =
        ExactSearch(problem, ExactStrategy::kBranchAndBound);
    ASSERT_TRUE(point_bnb.status.ok()) << at << point_bnb.status.ToString();
    EXPECT_GT(point_bnb.nodes_expanded, 0) << at;
    ExpectSameRun(point_bnb,
                  ExactSearch(robust, ExactStrategy::kBranchAndBound),
                  /*cache_counters=*/threads == 1, at + " bnb");
  }
}

TEST(EnsembleK1Test, OltpK1EnsembleIsThePointForecast) {
  // TPC-C's bound cursor is the only one with its own ProbeClasses.
  Schema full = MakeTpccSchema(30);
  Schema schema = full.Subset({"stock", "pk_stock", "order_line",
                               "pk_order_line", "customer", "pk_customer",
                               "i_customer", "district", "pk_district"});
  BoxConfig box = MakeBox2();
  const auto workload = MakeTpccWorkload(&schema, &box, TpccConfig{});
  Profiler profiler(&schema, &box);
  const WorkloadProfiles profiles = profiler.ProfileWorkload(
      *workload,
      [&](const std::vector<int>& p) { return workload->Estimate(p); });
  DotProblem problem;
  problem.schema = &schema;
  problem.box = &box;
  problem.workload = workload.get();
  problem.relative_sla = 0.25;
  problem.profiles = &profiles;
  ExpectK1EnsembleIsThePointForecast(problem, "tpcc");
}

TEST(EnsembleK1Test, HtapK1EnsembleIsThePointForecast) {
  Schema full = MakeTpccSchema(30);
  Schema schema = full.Subset({"stock", "pk_stock", "order_line",
                               "pk_order_line", "customer", "pk_customer",
                               "orders", "pk_orders"});
  BoxConfig box = MakeBox2();
  const HtapBundle bundle =
      MakeChbenchHtapWorkload(&schema, &box, HtapConfig{});
  Profiler profiler(&schema, &box);
  const WorkloadProfiles profiles = profiler.ProfileWorkload(
      *bundle.htap,
      [&](const std::vector<int>& p) { return bundle.htap->Estimate(p); });
  DotProblem problem;
  problem.schema = &schema;
  problem.box = &box;
  problem.workload = bundle.htap.get();
  problem.relative_sla = 0.25;
  problem.profiles = &profiles;
  ExpectK1EnsembleIsThePointForecast(problem, "chbench htap");
}

}  // namespace
}  // namespace dot
