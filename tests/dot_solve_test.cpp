// Pins the dot::Solve facade (dot/solve.h) to the engines it fronts: each
// SolveMethod must reproduce a direct call to its engine bit for bit —
// same placement, same TOC, same counters, same infeasibility verdicts.
// The facade routes; it must never re-interpret.

#include "dot/solve.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/tpch_schema.h"
#include "common/rng.h"
#include "dot/bnb_search.h"
#include "dot/candidate_evaluator.h"
#include "dot/optimizer.h"
#include "storage/standard_catalog.h"
#include "workload/dss_workload.h"
#include "workload/profiler.h"
#include "workload/scenario.h"
#include "workload/tpch_queries.h"

namespace dot {
namespace {

/// Placement, TOC, cost, estimate and search counters must all match; the
/// wall-clock and plan-cache diagnostics are explicitly excluded (they
/// legitimately vary run to run).
void ExpectSameDotResult(const DotResult& direct, const DotResult& facade) {
  ASSERT_EQ(direct.status.ok(), facade.status.ok())
      << direct.status.ToString() << " vs " << facade.status.ToString();
  EXPECT_EQ(direct.placement, facade.placement);
  EXPECT_EQ(direct.toc_cents_per_task, facade.toc_cents_per_task);
  EXPECT_EQ(direct.layout_cost_cents_per_hour,
            facade.layout_cost_cents_per_hour);
  EXPECT_EQ(direct.layouts_evaluated, facade.layouts_evaluated);
  EXPECT_EQ(direct.nodes_expanded, facade.nodes_expanded);
  EXPECT_EQ(direct.nodes_pruned_bound, facade.nodes_pruned_bound);
  EXPECT_EQ(direct.nodes_pruned_infeasible, facade.nodes_pruned_infeasible);
  EXPECT_EQ(direct.estimate.tasks_per_hour, facade.estimate.tasks_per_hour);
  EXPECT_EQ(direct.targets.best_case.tasks_per_hour,
            facade.targets.best_case.tasks_per_hour);
}

/// The §4.4.3 small TPC-H instance: 8 objects, exhaustive-tractable, with
/// profiles so the heuristic path can run too.
class SolveFacadeTest : public ::testing::Test {
 protected:
  SolveFacadeTest()
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
  }

  Schema schema_;
  BoxConfig box_;
  DssWorkloadModel workload_;
  Profiler profiler_;
  WorkloadProfiles profiles_;
  DotProblem problem_;
};

TEST_F(SolveFacadeTest, ExactMatchesDirectExactSearchBitwise) {
  const DotResult direct =
      ExactSearch(problem_, ExactStrategy::kBranchAndBound);
  SolveSpec spec;
  spec.method = SolveMethod::kExact;
  const SolveResult facade = Solve(problem_, spec);
  ASSERT_TRUE(facade.status.ok()) << facade.status.ToString();
  ExpectSameDotResult(direct, facade.dot);
  EXPECT_EQ(facade.placement, direct.placement);
  EXPECT_EQ(facade.toc_cents_per_task, direct.toc_cents_per_task);
  EXPECT_EQ(facade.provenance.layouts_evaluated, direct.layouts_evaluated);
  EXPECT_EQ(facade.provenance.method, SolveMethod::kExact);
  EXPECT_EQ(facade.provenance.nodes_expanded, direct.nodes_expanded);
  EXPECT_FALSE(facade.has_plan);
  EXPECT_FALSE(facade.has_fleet);
}

TEST_F(SolveFacadeTest, EnumerateMatchesExhaustiveSearchBitwise) {
  const DotResult direct = ExactSearch(problem_, ExactStrategy::kEnumerate);
  SolveSpec spec;
  spec.method = SolveMethod::kEnumerate;
  const SolveResult facade = Solve(problem_, spec);
  ASSERT_TRUE(facade.status.ok()) << facade.status.ToString();
  ExpectSameDotResult(direct, facade.dot);
}

TEST_F(SolveFacadeTest, HeuristicMatchesDotOptimizerBitwise) {
  const DotResult direct = DotOptimizer(problem_).Optimize();
  SolveSpec spec;
  spec.method = SolveMethod::kDotHeuristic;
  const SolveResult facade = Solve(problem_, spec);
  ExpectSameDotResult(direct, facade.dot);
}

TEST_F(SolveFacadeTest, CallerHeldOptimizerMatchesTheProblemFacade) {
  // One optimizer serves every single-shot method, each call returning
  // what Solve(problem) returns for it; warm starts ride along.
  const std::vector<std::vector<int>> warm = {
      UniformPlacement(schema_.NumObjects(), 0)};
  const DotOptimizer optimizer(problem_);
  for (SolveMethod method : {SolveMethod::kDotHeuristic, SolveMethod::kExact,
                             SolveMethod::kEnumerate}) {
    SCOPED_TRACE(static_cast<int>(method));
    SolveSpec spec;
    spec.method = method;
    spec.warm_starts = &warm;
    const SolveResult facade = Solve(problem_, spec);
    const SolveResult held = Solve(optimizer, spec);
    ASSERT_TRUE(held.status.ok()) << held.status.ToString();
    ExpectSameDotResult(facade.dot, held.dot);
    EXPECT_EQ(held.placement, facade.placement);
    EXPECT_EQ(held.toc_cents_per_task, facade.toc_cents_per_task);
    EXPECT_EQ(held.provenance.method, method);
    EXPECT_STREQ(held.provenance.engine, facade.provenance.engine);
    EXPECT_EQ(held.provenance.warm_start_hits,
              facade.provenance.warm_start_hits);
  }
}

TEST_F(SolveFacadeTest, CallerHeldOptimizerRefusesStatefulMethods) {
  const DotOptimizer optimizer(problem_);
  for (SolveMethod method : {SolveMethod::kEpochPlan, SolveMethod::kFleet}) {
    SolveSpec spec;
    spec.method = method;
    const SolveResult out = Solve(optimizer, spec);
    EXPECT_EQ(out.status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(out.provenance.method, method);
    EXPECT_FALSE(out.has_plan);
    EXPECT_FALSE(out.has_fleet);
  }
}

TEST_F(SolveFacadeTest, EnumerateRefusesOversizedSpaces) {
  SolveSpec spec;
  spec.method = SolveMethod::kEnumerate;
  spec.max_layouts = 2;  // 8 objects on >= 2 classes is far beyond this
  const SolveResult facade = Solve(problem_, spec);
  EXPECT_FALSE(facade.status.ok());
}

TEST_F(SolveFacadeTest, WarmStartsCannotChangeTheExactResult) {
  SolveSpec cold;
  cold.method = SolveMethod::kExact;
  const SolveResult reference = Solve(problem_, cold);
  ASSERT_TRUE(reference.status.ok());

  std::vector<std::vector<int>> pool = {
      reference.placement,
      std::vector<int>(static_cast<size_t>(schema_.NumObjects()),
                       box_.MostExpensiveClass()),
      std::vector<int>{0},  // malformed: ignored, not fatal
  };
  SolveSpec warm = cold;
  warm.warm_starts = &pool;
  const SolveResult seeded = Solve(problem_, warm);
  ASSERT_TRUE(seeded.status.ok());
  EXPECT_EQ(seeded.placement, reference.placement);
  EXPECT_EQ(seeded.toc_cents_per_task, reference.toc_cents_per_task);
  // Seeding the incumbent with the known optimum can only prune harder.
  EXPECT_LE(seeded.dot.nodes_expanded, reference.dot.nodes_expanded);
}

TEST_F(SolveFacadeTest, WarmStartHitsCountOnlyValidFeasibleSeeds) {
  SolveSpec cold;
  cold.method = SolveMethod::kExact;
  const SolveResult reference = Solve(problem_, cold);
  ASSERT_TRUE(reference.status.ok());
  EXPECT_EQ(reference.provenance.warm_start_hits, 0);

  // An infeasible seed: the first uniform layout the search's own
  // optimizer rejects (capacity or SLA).
  const int n = schema_.NumObjects();
  const DotOptimizer optimizer(problem_);
  std::vector<int> infeasible;
  for (int cls = 0; cls < box_.NumClasses(); ++cls) {
    if (!optimizer.EvaluateQuick(UniformPlacement(n, cls)).feasible) {
      infeasible = UniformPlacement(n, cls);
      break;
    }
  }
  ASSERT_FALSE(infeasible.empty());

  // Feasible (the one hit), the wrong length, a class outside the box,
  // infeasible.
  const std::vector<std::vector<int>> pool = {
      reference.placement,
      std::vector<int>{0},
      UniformPlacement(n, box_.NumClasses()),
      infeasible,
  };
  SolveSpec warm = cold;
  warm.warm_starts = &pool;
  const SolveResult seeded = Solve(problem_, warm);
  ASSERT_TRUE(seeded.status.ok());
  EXPECT_EQ(seeded.dot.warm_start_hits, 1);
  EXPECT_EQ(seeded.provenance.warm_start_hits, 1);
}

/// Field-for-field equality of two counter blocks.
void ExpectSameSearchStats(const SearchStats& a, const SearchStats& b,
                           const std::string& what) {
  EXPECT_EQ(a.layouts_evaluated, b.layouts_evaluated) << what;
  EXPECT_EQ(a.moves_priced, b.moves_priced) << what;
  EXPECT_EQ(a.moves_gated, b.moves_gated) << what;
  EXPECT_EQ(a.nodes_expanded, b.nodes_expanded) << what;
  EXPECT_EQ(a.nodes_pruned_bound, b.nodes_pruned_bound) << what;
  EXPECT_EQ(a.nodes_pruned_infeasible, b.nodes_pruned_infeasible) << what;
  EXPECT_EQ(a.layouts_pruned, b.layouts_pruned) << what;
  EXPECT_EQ(a.warm_start_hits, b.warm_start_hits) << what;
  EXPECT_EQ(a.plan_cache_hits, b.plan_cache_hits) << what;
  EXPECT_EQ(a.plan_cache_misses, b.plan_cache_misses) << what;
  EXPECT_EQ(a.arena_bytes_peak, b.arena_bytes_peak) << what;
  EXPECT_EQ(a.pool_size, b.pool_size) << what;
  EXPECT_EQ(a.pool_builds, b.pool_builds) << what;
  EXPECT_EQ(a.pool_cache_hits, b.pool_cache_hits) << what;
}

TEST_F(SolveFacadeTest, ProvenanceCountersAreThePayloadsAtEveryThreadCount) {
  // Two tenants of one pool, built by a solo search, so the fleet
  // carries node counts too.
  std::vector<FleetTenant> tenants = {{"t0", problem_}, {"t1", problem_}};
  FleetSpec fleet;
  fleet.tenants = &tenants;
  fleet.config.pool_mode = FleetPoolMode::kSearch;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  for (int threads : {1, 4, hw}) {
    DotProblem problem = problem_;
    problem.options.num_threads = threads;
    for (SolveMethod method :
         {SolveMethod::kDotHeuristic, SolveMethod::kExact,
          SolveMethod::kEnumerate, SolveMethod::kEpochPlan,
          SolveMethod::kFleet}) {
      SolveSpec spec;
      spec.method = method;
      spec.fleet = &fleet;
      const SolveResult r = Solve(problem, spec);
      const std::string what = std::string(r.provenance.engine) + " at " +
                               std::to_string(threads) + " threads";
      ASSERT_TRUE(r.status.ok()) << what << ": " << r.status.ToString();
      if (r.has_plan) {
        ExpectSameSearchStats(r.provenance, r.plan, what);
      } else if (r.has_fleet) {
        ExpectSameSearchStats(r.provenance, r.fleet, what);
      } else {
        ExpectSameSearchStats(r.provenance, r.dot, what);
      }
      EXPECT_GT(r.provenance.layouts_evaluated, 0) << what;
      // The planners report the node counts of the searches they ran.
      if (method == SolveMethod::kExact || method == SolveMethod::kEpochPlan ||
          method == SolveMethod::kFleet) {
        EXPECT_GT(r.provenance.nodes_expanded, 0) << what;
      }
    }
  }
}

TEST_F(SolveFacadeTest, EpochPlanOneEpochZeroMigrationMatchesExact) {
  // Null schedule + zero migration model: the stateful path degenerates
  // to the single-shot problem and must land on the same verdict, layout
  // and TOC — tail SLA included: a p95 target the box can meet, and a p99
  // target at high jitter it cannot.
  std::vector<TailSla> tails(3);
  tails[1].percentile = 0.95;
  tails[1].latency_cv = 0.1;
  tails[2].percentile = 0.99;
  tails[2].latency_cv = 0.5;
  for (const TailSla& tail : tails) {
    const std::string what = "tail p" + std::to_string(tail.percentile) +
                             " cv " + std::to_string(tail.latency_cv);
    DotProblem problem = problem_;
    problem.tail_sla = tail;
    SolveSpec exact;
    exact.method = SolveMethod::kExact;
    const SolveResult single = Solve(problem, exact);
    SolveSpec epoch;
    epoch.method = SolveMethod::kEpochPlan;
    const SolveResult planned = Solve(problem, epoch);
    ASSERT_EQ(planned.status.code(), single.status.code())
        << what << ": " << planned.status.ToString() << " vs "
        << single.status.ToString();
    if (!single.status.ok()) continue;
    ASSERT_TRUE(planned.has_plan) << what;
    EXPECT_EQ(planned.placement, single.placement) << what;
    EXPECT_EQ(planned.toc_cents_per_task, single.toc_cents_per_task) << what;
    EXPECT_EQ(planned.plan.steps.size(), 1u) << what;
    EXPECT_EQ(planned.plan.total_migration_cents, 0.0) << what;
  }
  // The fixture's own problem is feasible without a tail, and the p99
  // target is not: both verdicts are exercised.
  DotProblem strict = problem_;
  strict.tail_sla = tails[2];
  EXPECT_TRUE(Solve(problem_).status.ok());
  EXPECT_EQ(Solve(strict).status.code(), StatusCode::kInfeasible);
}

TEST_F(SolveFacadeTest, SpecProblemMismatchesComeBackAsStatus) {
  // A malformed problem comes back as a status, not an abort.
  DotProblem no_workload = problem_;
  no_workload.workload = nullptr;
  SolveSpec spec;
  EXPECT_EQ(Solve(no_workload, spec).status.code(),
            StatusCode::kInvalidArgument);

  // kFleet without a fleet spec is refused the same way.
  SolveSpec fleet;
  fleet.method = SolveMethod::kFleet;
  EXPECT_EQ(Solve(problem_, fleet).status.code(),
            StatusCode::kInvalidArgument);

  // The heuristic without profiles: Optimize returns the status itself.
  DotProblem no_profiles = problem_;
  no_profiles.profiles = nullptr;
  SolveSpec heuristic;
  heuristic.method = SolveMethod::kDotHeuristic;
  EXPECT_EQ(Solve(no_profiles, heuristic).status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DotOptimizer(no_profiles).Optimize().status.code(),
            StatusCode::kInvalidArgument);

  // A fleet whose pool build runs the heuristic, over a tenant without
  // profiles; the same tenant with profiles passes.
  std::vector<FleetTenant> tenants = {{"t0", no_profiles}};
  FleetSpec dot_pools;
  dot_pools.tenants = &tenants;
  dot_pools.config.pool_mode = FleetPoolMode::kSearch;
  dot_pools.config.search = EpochSearch::kDot;
  fleet.fleet = &dot_pools;
  EXPECT_EQ(Solve(problem_, fleet).status.code(),
            StatusCode::kInvalidArgument);
  tenants[0].problem.profiles = &profiles_;
  EXPECT_NE(Solve(problem_, fleet).status.code(),
            StatusCode::kInvalidArgument);

  // A relative SLA outside (0, 1], or NaN: MakePerfTargets would abort on
  // it. A targets_override supplies the targets instead, except for the
  // epoch planner, which derives per-epoch targets from relative_sla.
  const PerfTargets targets =
      MakePerfTargets(workload_, box_, schema_.NumObjects(), 0.5);
  SolveSpec exact;
  exact.method = SolveMethod::kExact;
  SolveSpec epoch;
  epoch.method = SolveMethod::kEpochPlan;
  for (double sla : {std::numeric_limits<double>::quiet_NaN(), 0.0, 1.5,
                     -1.0}) {
    const std::string what = "relative_sla " + std::to_string(sla);
    DotProblem bad_sla = problem_;
    bad_sla.relative_sla = sla;
    EXPECT_EQ(Solve(bad_sla, exact).status.code(),
              StatusCode::kInvalidArgument)
        << what;
    bad_sla.targets_override = &targets;
    EXPECT_NE(Solve(bad_sla, exact).status.code(),
              StatusCode::kInvalidArgument)
        << what;
    EXPECT_EQ(Solve(bad_sla, epoch).status.code(),
              StatusCode::kInvalidArgument)
        << what;

    // The same rule per fleet tenant.
    tenants[0].problem.relative_sla = sla;
    tenants[0].problem.targets_override = nullptr;
    EXPECT_EQ(Solve(problem_, fleet).status.code(),
              StatusCode::kInvalidArgument)
        << what;
    tenants[0].problem.targets_override = &targets;
    EXPECT_NE(Solve(problem_, fleet).status.code(),
              StatusCode::kInvalidArgument)
        << what;
  }

  // A negative migration weight other than the auto sentinel, or NaN: the
  // epoch planner would turn migration cost into a reward.
  for (double weight : {-0.5, -2.0, std::numeric_limits<double>::quiet_NaN()}) {
    const std::string what = "migration_weight " + std::to_string(weight);
    SolveSpec bad_weight = epoch;
    bad_weight.epoch.migration_weight = weight;
    EXPECT_EQ(Solve(problem_, bad_weight).status.code(),
              StatusCode::kInvalidArgument)
        << what;
  }
  SolveSpec zero_weight = epoch;
  zero_weight.epoch.migration_weight = 0.0;
  EXPECT_NE(Solve(problem_, zero_weight).status.code(),
            StatusCode::kInvalidArgument);

  // The rest of the planner's config is checked up front too.
  SolveSpec no_pool = epoch;
  no_pool.epoch.max_pool_layouts = 0;
  EXPECT_EQ(Solve(problem_, no_pool).status.code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SolveFacadeTest, MalformedTailSlaIsRejected) {
  // TailLatencyFactor would abort on a percentile of 1; every method that
  // derives targets, and every fleet tenant, refuses it up front.
  std::vector<TailSla> bad(5);
  bad[0].percentile = 1.0;
  bad[0].latency_cv = 0.1;
  bad[1].percentile = 0.3;
  bad[2].percentile = std::numeric_limits<double>::quiet_NaN();
  bad[3].percentile = 0.95;
  bad[3].latency_cv = -0.1;
  bad[4].percentile = 0.95;
  bad[4].latency_cv = std::numeric_limits<double>::infinity();
  std::vector<FleetTenant> tenants = {{"t0", problem_}};
  FleetSpec roster;
  roster.tenants = &tenants;
  for (size_t k = 0; k < bad.size(); ++k) {
    SCOPED_TRACE("tail " + std::to_string(k));
    EXPECT_EQ(ValidateTailSla(bad[k]).code(), StatusCode::kInvalidArgument);
    DotProblem problem = problem_;
    problem.tail_sla = bad[k];
    for (SolveMethod method :
         {SolveMethod::kDotHeuristic, SolveMethod::kExact,
          SolveMethod::kEnumerate, SolveMethod::kEpochPlan}) {
      SolveSpec spec;
      spec.method = method;
      EXPECT_EQ(Solve(problem, spec).status.code(),
                StatusCode::kInvalidArgument);
    }
    tenants[0].problem = problem;
    SolveSpec fleet;
    fleet.method = SolveMethod::kFleet;
    fleet.fleet = &roster;
    EXPECT_EQ(Solve(problem_, fleet).status.code(),
              StatusCode::kInvalidArgument);
  }
  // The accepted shapes: disabled, the median, and just below 1.
  for (double percentile : {0.0, 0.5, 0.999}) {
    TailSla tail;
    tail.percentile = percentile;
    tail.latency_cv = 0.2;
    EXPECT_TRUE(ValidateTailSla(tail).ok()) << percentile;
  }
}

TEST_F(SolveFacadeTest, EpochPlanRejectsACurrentLayoutOutsideTheBox) {
  SolveSpec epoch;
  epoch.method = SolveMethod::kEpochPlan;
  for (int bad : {7, -1}) {
    epoch.current_layout.assign(
        static_cast<size_t>(problem_.schema->NumObjects()), 0);
    epoch.current_layout[0] = bad;
    const SolveResult r = Solve(problem_, epoch);
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument) << bad;
    // The planner's own status, forwarded.
    EXPECT_EQ(r.status, r.plan.status) << bad;
    EXPECT_NE(r.status.message().find("current layout"), std::string::npos)
        << r.status.ToString();
  }
}

TEST_F(SolveFacadeTest, MalformedIoScaleHintIsRejected) {
  const int n = schema_.NumObjects();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::vector<double>> bad_hints = {
      std::vector<double>(2, 1.0),
      std::vector<double>(static_cast<size_t>(n + 1), 1.0),
      std::vector<double>(static_cast<size_t>(n), nan),
  };
  for (double entry : {nan, -1.0, std::numeric_limits<double>::infinity()}) {
    std::vector<double> hint(static_cast<size_t>(n), 1.0);
    hint[1] = entry;
    bad_hints.push_back(hint);
  }
  SolveSpec fleet;
  fleet.method = SolveMethod::kFleet;
  std::vector<FleetTenant> tenants = {{"t0", problem_}};
  FleetSpec roster;
  roster.tenants = &tenants;
  fleet.fleet = &roster;
  SolveSpec epoch;
  epoch.method = SolveMethod::kEpochPlan;
  for (size_t k = 0; k < bad_hints.size(); ++k) {
    SCOPED_TRACE("hint " + std::to_string(k));
    DotProblem bad = problem_;
    bad.io_scale_hint = bad_hints[k];
    for (SolveMethod method :
         {SolveMethod::kExact, SolveMethod::kDotHeuristic,
          SolveMethod::kEnumerate}) {
      SolveSpec spec;
      spec.method = method;
      EXPECT_EQ(Solve(bad, spec).status.code(),
                StatusCode::kInvalidArgument);
    }
    // The epoch planner ignores the hint, so it is not checked there.
    EXPECT_NE(Solve(bad, epoch).status.code(), StatusCode::kInvalidArgument);

    // The same rule per fleet tenant, through every fleet entry point.
    tenants[0].problem = bad;
    EXPECT_EQ(ValidateFleetRoster(tenants, &box_, roster.config).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(FleetPlanner(problem_, roster.config).Plan(tenants).status.code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(Solve(problem_, fleet).status.code(),
              StatusCode::kInvalidArgument);
  }
  // A well-formed hint solves.
  DotProblem scaled = problem_;
  scaled.io_scale_hint.assign(static_cast<size_t>(n), 1.5);
  SolveSpec exact;
  exact.method = SolveMethod::kExact;
  EXPECT_TRUE(Solve(scaled, exact).status.ok());
  tenants[0].problem = scaled;
  EXPECT_TRUE(ValidateFleetRoster(tenants, &box_, roster.config).ok());
}

TEST_F(SolveFacadeTest, MalformedRosterGetsTheSameStatusFromSolveAndPlan) {
  // Solve(kFleet) leaves the roster walk to FleetPlanner::Plan and
  // forwards its status, case by case.
  const BoxConfig other_box = MakeBox2();
  ScenarioEnsemble ensemble;
  ensemble.scenarios.push_back(Scenario{});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct RosterCase {
    std::string what;
    std::vector<FleetTenant> tenants;
    bool dot_pools = false;
  };
  std::vector<RosterCase> cases;
  cases.push_back({"empty roster", {}});
  auto with_tenant = [&](const std::string& what, auto&& mutate,
                         bool dot_pools = false) {
    std::vector<FleetTenant> tenants = {{"t0", problem_}, {"t1", problem_}};
    mutate(tenants[1].problem);
    cases.push_back({what, std::move(tenants), dot_pools});
  };
  with_tenant("no workload", [](DotProblem& p) { p.workload = nullptr; });
  with_tenant("no schema", [](DotProblem& p) { p.schema = nullptr; });
  with_tenant("other box", [&](DotProblem& p) { p.box = &other_box; });
  with_tenant("ensemble", [&](DotProblem& p) { p.ensemble = &ensemble; });
  for (double sla : {nan, 0.0, 1.5}) {
    with_tenant("relative_sla " + std::to_string(sla),
                [sla](DotProblem& p) { p.relative_sla = sla; });
  }
  with_tenant("io_scale_hint arity",
              [](DotProblem& p) { p.io_scale_hint = {1.0, 1.0}; });
  with_tenant("io_scale_hint NaN", [&](DotProblem& p) {
    p.io_scale_hint.assign(static_cast<size_t>(schema_.NumObjects()), nan);
  });
  Schema padded = schema_;
  padded.AddTable("pad", 1000.0, 100.0);
  with_tenant("workload over another schema",
              [&](DotProblem& p) { p.schema = &padded; });
  with_tenant("DOT pools without profiles",
              [](DotProblem& p) { p.profiles = nullptr; },
              /*dot_pools=*/true);

  for (const RosterCase& c : cases) {
    SCOPED_TRACE(c.what);
    FleetSpec roster;
    roster.tenants = &c.tenants;
    if (c.dot_pools) {
      roster.config.pool_mode = FleetPoolMode::kSearch;
      roster.config.search = EpochSearch::kDot;
    }
    SolveSpec spec;
    spec.method = SolveMethod::kFleet;
    spec.fleet = &roster;
    const Status planned =
        FleetPlanner(problem_, roster.config).Plan(c.tenants).status;
    EXPECT_EQ(planned.code(), StatusCode::kInvalidArgument);
    const SolveResult solved = Solve(problem_, spec);
    EXPECT_EQ(solved.status.code(), planned.code());
    EXPECT_EQ(solved.status.message(), planned.message());
  }
}

/// A malformed problem ensemble comes back as InvalidArgument from Solve.
void ExpectEnsembleRejected(const DotProblem& problem,
                            const ScenarioEnsemble& ensemble) {
  DotProblem carried = problem;
  carried.ensemble = &ensemble;
  SolveSpec exact;
  exact.method = SolveMethod::kExact;
  EXPECT_EQ(Solve(carried, exact).status.code(),
            StatusCode::kInvalidArgument);
}

/// A well-formed K-scenario ensemble over the fixture's objects.
ScenarioEnsemble NominalEnsemble(int k, int num_objects) {
  ScenarioEnsemble ensemble;
  for (int i = 0; i < k; ++i) {
    Scenario sc;
    if (i > 0) {
      sc.io_scale.assign(static_cast<size_t>(num_objects), 1.0 + 0.1 * i);
    }
    ensemble.scenarios.push_back(sc);
  }
  return ensemble;
}

TEST_F(SolveFacadeTest, NanCvarAlphaIsRejected) {
  // EnsembleEstimator would abort on it.
  const ScenarioEnsemble ensemble = NominalEnsemble(3, schema_.NumObjects());
  DotProblem problem = problem_;
  problem.ensemble_objective.kind = EnsembleObjective::Kind::kCVaR;
  for (double alpha :
       {std::numeric_limits<double>::quiet_NaN(), 0.0, -0.5, 1.5}) {
    SCOPED_TRACE("alpha " + std::to_string(alpha));
    problem.ensemble_objective.alpha = alpha;
    ExpectEnsembleRejected(problem, ensemble);
  }
  // A point problem's objective is not read, so it is not checked either.
  problem.ensemble_objective.alpha = std::numeric_limits<double>::quiet_NaN();
  SolveSpec exact;
  exact.method = SolveMethod::kExact;
  EXPECT_TRUE(Solve(problem, exact).status.ok());
}

TEST_F(SolveFacadeTest, VacuousChanceConstraintIsRejected) {
  // At K = 1 a fraction at or below kChanceTolerance made the fast path
  // (the lone scenario's own verdict) and the full path (every layout
  // feasible) disagree; it is refused instead.
  const ScenarioEnsemble single = NominalEnsemble(1, schema_.NumObjects());
  DotProblem problem = problem_;
  for (double fraction : {0.0, kChanceTolerance, -0.5, 1.5,
                          std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE("min_feasible_fraction " + std::to_string(fraction));
    problem.ensemble_objective.min_feasible_fraction = fraction;
    ExpectEnsembleRejected(problem, single);
    DotProblem carried = problem;
    carried.ensemble = &single;
    SolveSpec enumerate;
    enumerate.method = SolveMethod::kEnumerate;
    EXPECT_EQ(Solve(carried, enumerate).status.code(),
              StatusCode::kInvalidArgument);
  }
  problem.ensemble_objective.min_feasible_fraction = 1e-9;
  EXPECT_TRUE(ValidateEnsembleObjective(problem.ensemble_objective).ok());
}

TEST_F(SolveFacadeTest, EmptyEnsembleIsRejected) {
  ExpectEnsembleRejected(problem_, ScenarioEnsemble{});
}

TEST_F(SolveFacadeTest, OversizedEnsembleIsRejected) {
  const int n = schema_.NumObjects();
  EXPECT_TRUE(ValidateEnsemble(NominalEnsemble(kMaxScenarios, n), n).ok());
  ExpectEnsembleRejected(problem_, NominalEnsemble(kMaxScenarios + 1, n));
}

TEST_F(SolveFacadeTest, NonPositiveOrNaNScenarioWeightIsRejected) {
  const int n = schema_.NumObjects();
  for (double weight : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE("weight " + std::to_string(weight));
    ScenarioEnsemble ensemble = NominalEnsemble(3, n);
    ensemble.scenarios[1].weight = weight;
    ExpectEnsembleRejected(problem_, ensemble);
  }
  // A single scenario takes the K = 1 path through NormalizedWeights.
  ScenarioEnsemble single = NominalEnsemble(1, n);
  single.scenarios[0].weight = 0.0;
  ExpectEnsembleRejected(problem_, single);
}

TEST_F(SolveFacadeTest, ScenarioIoScaleArityMismatchIsRejected) {
  const int n = schema_.NumObjects();
  for (int size : {n - 1, n + 1}) {
    SCOPED_TRACE("io_scale size " + std::to_string(size));
    ScenarioEnsemble ensemble = NominalEnsemble(3, n);
    ensemble.scenarios[2].io_scale.assign(static_cast<size_t>(size), 1.0);
    ExpectEnsembleRejected(problem_, ensemble);
  }
  // The right arity, but an entry no workload can have.
  for (double scale : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE("io_scale entry " + std::to_string(scale));
    ScenarioEnsemble ensemble = NominalEnsemble(3, n);
    ensemble.scenarios[2].io_scale[1] = scale;
    ExpectEnsembleRejected(problem_, ensemble);
  }
  // The well-formed ensemble solves on the problem.
  const ScenarioEnsemble ok = NominalEnsemble(3, n);
  DotProblem carried = problem_;
  carried.ensemble = &ok;
  SolveSpec exact;
  exact.method = SolveMethod::kExact;
  EXPECT_TRUE(Solve(carried, exact).status.ok());
}

TEST_F(SolveFacadeTest, ProblemEnsembleIsRejectedOnEpochPlanAndFleet) {
  // Neither the epoch DP (it re-derives per-epoch point problems) nor the
  // fleet (its tenants are point forecasts) can honor an ensemble, so a
  // problem that carries one is refused rather than silently planned as a
  // point forecast.
  const ScenarioEnsemble ensemble = NominalEnsemble(3, schema_.NumObjects());
  DotProblem robust = problem_;
  robust.ensemble = &ensemble;
  std::vector<FleetTenant> tenants = {{"t0", problem_}};
  FleetSpec fleet;
  fleet.tenants = &tenants;
  for (SolveMethod method : {SolveMethod::kEpochPlan, SolveMethod::kFleet}) {
    SolveSpec spec;
    spec.method = method;
    spec.fleet = &fleet;
    // Without the ensemble the spec is well-formed.
    ASSERT_NE(Solve(problem_, spec).status.code(),
              StatusCode::kInvalidArgument);
    const SolveResult solved = Solve(robust, spec);
    EXPECT_EQ(solved.status.code(), StatusCode::kInvalidArgument);
    // The planner refused before planning anything; Solve forwards its
    // status.
    if (method == SolveMethod::kEpochPlan) {
      EXPECT_EQ(solved.plan.status, solved.status);
      EXPECT_TRUE(solved.plan.steps.empty());
    } else {
      EXPECT_EQ(solved.fleet.status, solved.status);
      EXPECT_TRUE(solved.fleet.tenants.empty());
    }
  }
}

TEST_F(SolveFacadeTest, EveryEntryPointReturnsOneStatusForAMalformedProblem) {
  // One check per input, run by the engine it enters: each single-shot
  // method through Solve and ExactSearch called directly (both strategies)
  // return ValidateProblem's InvalidArgument for the same corpus, instead
  // of one path aborting or answering where another refuses.
  const int n = schema_.NumObjects();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const ScenarioEnsemble empty;
  const ScenarioEnsemble oversized = NominalEnsemble(kMaxScenarios + 1, n);
  const ScenarioEnsemble three = NominalEnsemble(3, n);
  const ScenarioEnsemble single = NominalEnsemble(1, n);
  struct Case {
    std::string what;
    DotProblem problem;
  };
  std::vector<Case> cases;
  auto add = [&](const std::string& what, auto&& mutate) {
    DotProblem p = problem_;
    mutate(p);
    cases.push_back({what, std::move(p)});
  };
  for (double sla : {nan, 0.0, 1.5}) {
    add("relative_sla " + std::to_string(sla),
        [sla](DotProblem& p) { p.relative_sla = sla; });
  }
  add("tail percentile 1", [](DotProblem& p) {
    p.tail_sla.percentile = 1.0;
    p.tail_sla.latency_cv = 0.1;
  });
  add("hint arity", [](DotProblem& p) { p.io_scale_hint = {1.0, 1.0}; });
  add("hint NaN", [&](DotProblem& p) {
    p.io_scale_hint.assign(static_cast<size_t>(n), 1.0);
    p.io_scale_hint[1] = nan;
  });
  add("empty ensemble", [&](DotProblem& p) { p.ensemble = &empty; });
  add("oversized ensemble", [&](DotProblem& p) { p.ensemble = &oversized; });
  add("CVaR alpha NaN", [&](DotProblem& p) {
    p.ensemble = &three;
    p.ensemble_objective.kind = EnsembleObjective::Kind::kCVaR;
    p.ensemble_objective.alpha = nan;
  });
  add("fraction 0 at K = 1", [&](DotProblem& p) {
    p.ensemble = &single;
    p.ensemble_objective.min_feasible_fraction = 0.0;
  });
  // The workload is built over the fixture's 8 objects, the schema holds
  // 9: without the check the DSS scorer aborts on the placement arity.
  Schema padded = schema_;
  padded.AddTable("pad", 1000.0, 100.0);
  add("workload over another schema",
      [&](DotProblem& p) { p.schema = &padded; });

  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    const Status expected = ValidateProblem(c.problem);
    ASSERT_EQ(expected.code(), StatusCode::kInvalidArgument);
    for (SolveMethod method :
         {SolveMethod::kDotHeuristic, SolveMethod::kExact,
          SolveMethod::kEnumerate}) {
      SolveSpec spec;
      spec.method = method;
      const SolveResult solved = Solve(c.problem, spec);
      EXPECT_EQ(solved.status, expected);
      EXPECT_TRUE(solved.placement.empty());
    }
    for (ExactStrategy strategy :
         {ExactStrategy::kEnumerate, ExactStrategy::kBranchAndBound}) {
      const DotResult direct = ExactSearch(c.problem, strategy);
      EXPECT_EQ(direct.status, expected);
      EXPECT_EQ(direct.layouts_evaluated, 0);
    }
  }
}

TEST_F(SolveFacadeTest, ModelsOverAnotherSchemaAreRejectedInEveryRole) {
  // An epoch window's workload and a scenario's model must be built over
  // the problem's objects too; each mismatch is an InvalidArgument, not an
  // abort in the scorer.
  Schema padded = schema_;
  padded.AddTable("pad", 1000.0, 100.0);
  const DssWorkloadModel padded_workload(
      "TPC-H-ES padded", &padded, &box_, MakeTpchSubsetTemplates(),
      RepeatSequence(11, 3), PlannerConfig{});

  WorkloadTraceSpec schedule;
  schedule.Add(&workload_, 1.0, "ok").Add(&padded_workload, 1.0, "padded");
  SolveSpec epoch;
  epoch.method = SolveMethod::kEpochPlan;
  epoch.schedule = &schedule;
  const SolveResult planned = Solve(problem_, epoch);
  EXPECT_EQ(planned.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(planned.status.message().find("window 1"), std::string::npos)
      << planned.status.ToString();
  const std::vector<int> all_on_0 = UniformPlacement(schema_.NumObjects(), 0);
  const ReprovisionPlanner planner(problem_, epoch.epoch);
  EXPECT_EQ(planner.EvaluateSequence(schedule, {all_on_0, all_on_0}).status,
            planned.status);

  ScenarioEnsemble ensemble = NominalEnsemble(3, schema_.NumObjects());
  ensemble.scenarios[1].model = &padded_workload;
  ExpectEnsembleRejected(problem_, ensemble);
}

TEST_F(SolveFacadeTest, InfeasibleVerdictPassesThroughUnchanged) {
  PerfTargets impossible = MakePerfTargets(
      workload_, box_, schema_.NumObjects(), problem_.relative_sla);
  for (double& cap : impossible.query_caps_ms) cap = 0.0;
  DotProblem hopeless = problem_;
  hopeless.targets_override = &impossible;

  const DotResult direct =
      ExactSearch(hopeless, ExactStrategy::kBranchAndBound);
  SolveSpec spec;
  spec.method = SolveMethod::kExact;
  const SolveResult facade = Solve(hopeless, spec);
  EXPECT_FALSE(direct.status.ok());
  EXPECT_FALSE(facade.status.ok());
  EXPECT_EQ(direct.status.ToString(), facade.dot.status.ToString());
}

/// Randomized DSS instances (the reprovision-test generator): the facade
/// equivalence must hold across boxes, schemas and thread counts, not
/// just on the fixture instance.
struct RandomInstance {
  Schema schema;
  BoxConfig box;
  std::unique_ptr<DssWorkloadModel> workload;

  RandomInstance(uint64_t seed, int tables) {
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
    const int num_templates = static_cast<int>(templates.size());
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

TEST(SolveRandomizedTest, ExactFacadeMatchesDirectAcrossInstancesAndThreads) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 7919);
    const int tables = 2 + static_cast<int>(rng.NextBounded(3));
    RandomInstance inst(seed, tables);
    const double sla = rng.NextUniform(0.2, 0.8);
    for (int threads : {1, 4, hw}) {
      DotProblem problem = inst.Problem();
      problem.relative_sla = sla;
      problem.options.num_threads = threads;
      const DotResult direct =
          ExactSearch(problem, ExactStrategy::kBranchAndBound);
      SolveSpec spec;
      const SolveResult facade = Solve(problem, spec);
      ExpectSameDotResult(direct, facade.dot);
    }
  }
}

/// Everything an epoch plan decides, and every counter.
void ExpectSameEpochPlan(const ReprovisionPlan& a, const ReprovisionPlan& b,
                         const std::string& what) {
  ASSERT_EQ(a.status.code(), b.status.code()) << what;
  ASSERT_EQ(a.steps.size(), b.steps.size()) << what;
  for (size_t e = 0; e < a.steps.size(); ++e) {
    EXPECT_EQ(a.steps[e].placement, b.steps[e].placement) << what << " " << e;
    EXPECT_EQ(a.steps[e].toc_cents_per_task, b.steps[e].toc_cents_per_task)
        << what << " " << e;
    EXPECT_EQ(a.steps[e].migration_cents, b.steps[e].migration_cents)
        << what << " " << e;
  }
  EXPECT_EQ(a.total_objective, b.total_objective) << what;
  EXPECT_EQ(a.total_migration_cents, b.total_migration_cents) << what;
  EXPECT_EQ(a.num_migrations, b.num_migrations) << what;
  EXPECT_EQ(a.resolved_migration_weight, b.resolved_migration_weight) << what;
  ExpectSameSearchStats(a, b, what);
}

/// Everything a fleet plan decides, and every counter.
void ExpectSameFleetPlan(const FleetPlan& a, const FleetPlan& b,
                         const std::string& what) {
  ASSERT_EQ(a.status.code(), b.status.code()) << what;
  ASSERT_EQ(a.tenants.size(), b.tenants.size()) << what;
  for (size_t i = 0; i < a.tenants.size(); ++i) {
    EXPECT_EQ(a.tenants[i].placement, b.tenants[i].placement) << what << i;
    EXPECT_EQ(a.tenants[i].candidate, b.tenants[i].candidate) << what << i;
    EXPECT_EQ(a.tenants[i].pool_id, b.tenants[i].pool_id) << what << i;
  }
  EXPECT_EQ(a.total_toc_cents_per_task, b.total_toc_cents_per_task) << what;
  EXPECT_EQ(a.total_cost_cents_per_hour, b.total_cost_cents_per_hour)
      << what;
  EXPECT_EQ(a.price_iterations_run, b.price_iterations_run) << what;
  EXPECT_EQ(a.exchange_moves, b.exchange_moves) << what;
  EXPECT_EQ(a.improve_moves, b.improve_moves) << what;
  ExpectSameSearchStats(a, b, what);
}

TEST(SolveRandomizedTest, PlannerRoutesMatchTheDirectPlanners) {
  // Solve hands the planners the problem and the spec's config unchanged:
  // Solve(kEpochPlan) is ReprovisionPlanner(problem, spec.epoch).Plan and
  // Solve(kFleet) is FleetPlanner(problem, config).Plan, bit for bit and
  // counter for counter, over pooled and exhaustive epoch pools, both
  // fleet pool modes, and every thread count.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  RandomInstance inst(/*seed=*/3, /*tables=*/2);
  const DssWorkloadModel head("rand-head", &inst.schema, &inst.box,
                              inst.workload->templates(), {0, 0, 0, 1},
                              PlannerConfig{});
  WorkloadTraceSpec schedule;
  schedule.Add(inst.workload.get(), 6.0, "mixed")
      .Add(&head, 4.0, "head")
      .Add(inst.workload.get(), 2.0, "mixed again");
  const std::vector<int> current(
      static_cast<size_t>(inst.schema.NumObjects()), 0);

  DotProblem tenant_b = inst.Problem();
  tenant_b.workload = &head;
  tenant_b.relative_sla = 0.4;
  const std::vector<FleetTenant> tenants = {
      {"a", inst.Problem()}, {"b", tenant_b}, {"a2", inst.Problem()}};

  for (int threads : {1, 4, hw}) {
    DotProblem problem = inst.Problem();
    problem.relative_sla = 0.3;
    problem.options.num_threads = threads;
    for (bool exhaustive : {false, true}) {
      const std::string what = std::to_string(threads) + " threads, " +
                               (exhaustive ? "exhaustive" : "pooled");
      SolveSpec spec;
      spec.method = SolveMethod::kEpochPlan;
      spec.schedule = &schedule;
      spec.current_layout = current;
      spec.epoch.migration.transfer_price_cents_per_gb = 1.0;
      spec.epoch.migration.downtime_price_cents_per_hour = 100.0;
      spec.epoch.exhaustive_pool = exhaustive;
      const SolveResult solved = Solve(problem, spec);
      ASSERT_TRUE(solved.status.ok()) << what << ": "
                                      << solved.status.ToString();
      const ReprovisionPlan direct =
          ReprovisionPlanner(problem, spec.epoch).Plan(schedule, current);
      ExpectSameEpochPlan(solved.plan, direct, what);
      if (exhaustive) {
        long long space = 1;
        for (int o = 0; o < inst.schema.NumObjects(); ++o) {
          space *= inst.box.NumClasses();
        }
        EXPECT_EQ(solved.plan.pool_size, space) << what;
      }
    }
    for (FleetPoolMode mode :
         {FleetPoolMode::kEnumerate, FleetPoolMode::kSearch}) {
      const std::string what =
          std::to_string(threads) + " threads, " +
          (mode == FleetPoolMode::kEnumerate ? "enumerated" : "searched") +
          " pools";
      FleetSpec fleet;
      fleet.tenants = &tenants;
      fleet.config.pool_mode = mode;
      SolveSpec spec;
      spec.method = SolveMethod::kFleet;
      spec.fleet = &fleet;
      const SolveResult free_run = Solve(problem, spec);
      ASSERT_TRUE(free_run.status.ok()) << what;
      // A binding budget, so the price loop and the repair pass run.
      fleet.config.constraints.budget_cents_per_hour =
          0.9 * free_run.fleet.total_cost_cents_per_hour;
      const SolveResult solved = Solve(problem, spec);
      const FleetPlan direct =
          FleetPlanner(problem, fleet.config).Plan(tenants);
      ExpectSameFleetPlan(solved.fleet, direct, what);
      EXPECT_EQ(solved.fleet.pool_builds, 2) << what;
    }
  }
}

}  // namespace
}  // namespace dot
