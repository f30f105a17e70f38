// Pins the stateful epoch planner (dot/reprovision.h) to the single-shot
// optimizer stack it is built from:
//   * one epoch + zero migration reproduces ExactSearch / Optimize bit for
//     bit (randomized instances, 1/4/hardware threads, including
//     infeasibility verdicts);
//   * on small multi-epoch instances the epoch DP over the exhaustive pool
//     matches brute-force enumeration over all layout sequences;
//   * the pooled plan never loses to the frozen-layout or
//     migration-oblivious baselines (they are pool sequences);
//   * the migrate-vs-stay frontier moves the right way as migration gets
//     more expensive.

#include "dot/reprovision.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "dot/bnb_search.h"
#include "dot/candidate_evaluator.h"
#include "dot/optimizer.h"
#include "storage/standard_catalog.h"
#include "workload/dss_workload.h"
#include "workload/profiler.h"
#include "workload/tpch_queries.h"

namespace dot {
namespace {

/// A randomized DSS instance, sized for exact search (4-6 objects).
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
    if (rng.NextBounded(2) == 0) {
      const int premium = box.MostExpensiveClass();
      box.classes[static_cast<size_t>(premium)].set_capacity_gb(
          schema.TotalSizeGb() * rng.NextUniform(0.3, 0.8));
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

/// A fixed 3-table instance whose three "epoch" workloads each hammer a
/// different table with full scans (the others get point reads), so the
/// three solo optima genuinely differ and re-provisioning has something to
/// decide.
struct DriftInstance {
  Schema schema;
  BoxConfig box = MakeBox1();
  std::vector<std::unique_ptr<DssWorkloadModel>> epochs;

  DriftInstance() {
    for (int i = 0; i < 3; ++i) {
      const std::string name = "t" + std::to_string(i);
      schema.AddTable(name, 2e6 + 5e5 * i, 120);
      schema.AddIndex(name + "_pk", schema.FindObject(name), 8);
    }
    for (int hot = 0; hot < 3; ++hot) {
      std::vector<QuerySpec> templates;
      for (int i = 0; i < 3; ++i) {
        QuerySpec q;
        q.name = "q" + std::to_string(i);
        RelationAccess ra;
        ra.table = "t" + std::to_string(i);
        if (i == hot) {
          ra.selectivity = 1.0;
          ra.index_sargable = false;
        } else {
          ra.selectivity = 0.001;
          ra.index_sargable = true;
        }
        q.relations = {ra};
        templates.push_back(std::move(q));
      }
      epochs.push_back(std::make_unique<DssWorkloadModel>(
          "epoch" + std::to_string(hot), &schema, &box, std::move(templates),
          RepeatSequence(3, 2), PlannerConfig{}));
    }
  }
};

/// The planner's problem: the instance's schema and box at `relative_sla`
/// (each epoch supplies its own workload).
DotProblem PlannerProblem(const Schema& schema, const BoxConfig& box,
                          double relative_sla) {
  DotProblem p;
  p.schema = &schema;
  p.box = &box;
  p.relative_sla = relative_sla;
  return p;
}

MigrationCostModel SomeMigration(double transfer, double downtime) {
  MigrationCostModel m;
  m.transfer_price_cents_per_gb = transfer;
  m.downtime_price_cents_per_hour = downtime;
  return m;
}

/// Bitwise equality of everything a plan decides. layouts_evaluated is
/// left to the callers: it includes the per-epoch searches' counts, and a
/// full-path branch-and-bound (no scorer, so no bound cursor) prunes
/// differently from the fast one.
void ExpectSamePlan(const ReprovisionPlan& plan, const ReprovisionPlan& ref,
                    const std::string& what) {
  ASSERT_TRUE(plan.status.ok()) << what << ": " << plan.status.ToString();
  EXPECT_EQ(plan.total_objective, ref.total_objective) << what;
  EXPECT_EQ(plan.total_migration_cents, ref.total_migration_cents) << what;
  EXPECT_EQ(plan.pool_size, ref.pool_size) << what;
  ASSERT_EQ(plan.steps.size(), ref.steps.size()) << what;
  for (size_t e = 0; e < plan.steps.size(); ++e) {
    EXPECT_EQ(plan.steps[e].placement, ref.steps[e].placement)
        << what << ", epoch " << e;
    EXPECT_EQ(plan.steps[e].toc_cents_per_task,
              ref.steps[e].toc_cents_per_task)
        << what << ", epoch " << e;
    EXPECT_EQ(plan.steps[e].migration_cents, ref.steps[e].migration_cents)
        << what << ", epoch " << e;
  }
}

TEST(ReprovisionTest, OneEpochZeroMigrationMatchesExactSearchBitwise) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 104729);
    const int tables = 2 + static_cast<int>(rng.NextBounded(2));
    RandomInstance inst(seed, tables);
    DotProblem problem = inst.Problem();
    problem.relative_sla = 0.25 + 0.2 * static_cast<double>(seed % 3);
    if (seed % 3 == 0) {
      problem.cost_model.discrete = true;
      problem.cost_model.alpha = 0.5;
    }
    const DotResult es = ExactSearch(problem, ExactStrategy::kBranchAndBound);

    const double duration = seed % 2 == 0 ? 1.0 : 6.5;
    std::vector<int> current;
    if (seed % 2 == 1) {
      for (int o = 0; o < inst.schema.NumObjects(); ++o) {
        current.push_back(
            static_cast<int>(rng.NextBounded(
                static_cast<uint64_t>(inst.box.NumClasses()))));
      }
    }

    for (int threads : {1, 4, hw}) {
      DotProblem threaded = problem;
      threaded.options.num_threads = threads;
      ReprovisionConfig config;
      config.search = EpochSearch::kExact;
      ReprovisionPlanner planner(threaded, config);

      WorkloadTraceSpec schedule;
      schedule.Add(inst.workload.get(), duration);
      const ReprovisionPlan plan = planner.Plan(schedule, current);
      const std::string what =
          "seed " + std::to_string(seed) + " threads " +
          std::to_string(threads);

      ASSERT_EQ(plan.status.code(), es.status.code())
          << what << ": " << plan.status.ToString() << " vs "
          << es.status.ToString();
      if (!es.status.ok()) continue;
      ASSERT_EQ(plan.steps.size(), 1u) << what;
      EXPECT_EQ(plan.steps[0].placement, es.placement) << what;
      EXPECT_EQ(plan.steps[0].toc_cents_per_task, es.toc_cents_per_task)
          << what;
      EXPECT_EQ(plan.total_objective, es.toc_cents_per_task * duration)
          << what;
      EXPECT_EQ(plan.steps[0].migration_cents, 0.0) << what;
      EXPECT_EQ(plan.num_migrations,
                current.empty() || current == es.placement ? 0 : 1)
          << what;
    }
  }
}

TEST(ReprovisionTest, OneEpochMatchesDotOptimizeBitwise) {
  for (uint64_t seed = 11; seed <= 14; ++seed) {
    RandomInstance inst(seed, 3);
    DotProblem problem = inst.Problem();
    problem.relative_sla = 0.5;
    Profiler profiler(&inst.schema, &inst.box);
    const WorkloadProfiles profiles = profiler.ProfileWorkload(
        *inst.workload,
        [&](const std::vector<int>& p) { return inst.workload->Estimate(p); });
    problem.profiles = &profiles;
    const DotResult dot = DotOptimizer(problem).Optimize();

    ReprovisionConfig config;
    config.search = EpochSearch::kDot;
    ReprovisionPlanner planner(problem, config);
    WorkloadTraceSpec schedule;
    schedule.Add(inst.workload.get(), 1.0, "only", &profiles);
    const ReprovisionPlan plan = planner.Plan(schedule);

    ASSERT_EQ(plan.status.code(), dot.status.code()) << "seed " << seed;
    if (!dot.status.ok()) continue;
    EXPECT_EQ(plan.steps[0].placement, dot.placement) << "seed " << seed;
    EXPECT_EQ(plan.steps[0].toc_cents_per_task, dot.toc_cents_per_task)
        << "seed " << seed;
    EXPECT_EQ(plan.total_objective, dot.toc_cents_per_task) << "seed " << seed;
  }
}

TEST(ReprovisionTest, ExhaustivePoolDpMatchesBruteForceOverSequences) {
  // 2 objects on a 3-class box: the exhaustive pool is all 9 layouts, and
  // every one of the 9^3 = 729 layout sequences is enumerable.
  Schema schema;
  schema.AddTable("t0", 3e6, 120);
  schema.AddIndex("t0_pk", 0, 8);
  BoxConfig box = MakeBox1();

  std::vector<std::unique_ptr<DssWorkloadModel>> workloads;
  for (int e = 0; e < 3; ++e) {
    QuerySpec q;
    q.name = "q";
    RelationAccess ra;
    ra.table = "t0";
    ra.selectivity = e == 0 ? 1.0 : 0.002 * (e + 1);
    ra.index_sargable = e != 0;
    q.relations = {ra};
    workloads.push_back(std::make_unique<DssWorkloadModel>(
        "w" + std::to_string(e), &schema, &box,
        std::vector<QuerySpec>{q}, RepeatSequence(1, 3), PlannerConfig{}));
  }

  WorkloadTraceSpec schedule;
  schedule.Add(workloads[0].get(), 4.0, "scan");
  schedule.Add(workloads[1].get(), 10.0, "points");
  schedule.Add(workloads[2].get(), 7.0, "points-wide");

  // The reference planner scores through the full path; the plan under
  // test through the per-epoch evaluators, at every thread count.
  DotProblem problem = PlannerProblem(schema, box, 0.4);
  problem.options.use_fast_eval = false;
  ReprovisionConfig config;
  config.migration = SomeMigration(50.0, 2000.0);
  config.migration_weight = 1e-3;
  config.exhaustive_pool = true;
  ReprovisionPlanner planner(problem, config);

  const std::vector<int> current{0, 0};
  const ReprovisionPlan plan = planner.Plan(schedule, current);
  ASSERT_TRUE(plan.status.ok()) << plan.status.ToString();
  EXPECT_EQ(plan.pool_size, 9);

  problem.options.use_fast_eval = true;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  for (int threads : {1, 4, hw}) {
    problem.options.num_threads = threads;
    const ReprovisionPlan fast =
        ReprovisionPlanner(problem, config).Plan(schedule, current);
    const std::string what =
        "evaluator DP, " + std::to_string(threads) + " threads";
    ExpectSamePlan(fast, plan, what);
    // No per-epoch search runs on the exhaustive pool: the count is the
    // pool × epoch matrix on both paths.
    EXPECT_EQ(fast.layouts_evaluated, plan.layouts_evaluated) << what;
  }

  // Brute force through the full-path planner's sequence evaluator (the
  // documented accounting contract makes the totals comparable bit for
  // bit).
  double best_total = 0.0;
  std::vector<std::vector<int>> best_seq;
  for (int a = 0; a < 9; ++a) {
    for (int b = 0; b < 9; ++b) {
      for (int c = 0; c < 9; ++c) {
        const std::vector<std::vector<int>> seq{
            DecodeLayoutIndex(a, 2, 3), DecodeLayoutIndex(b, 2, 3),
            DecodeLayoutIndex(c, 2, 3)};
        const ReprovisionPlan eval =
            planner.EvaluateSequence(schedule, seq, current);
        if (!eval.status.ok()) continue;
        if (best_seq.empty() || eval.total_objective < best_total) {
          best_total = eval.total_objective;
          best_seq = seq;
        }
      }
    }
  }
  ASSERT_FALSE(best_seq.empty());
  EXPECT_DOUBLE_EQ(plan.total_objective, best_total);
  for (int e = 0; e < 3; ++e) {
    EXPECT_EQ(plan.steps[static_cast<size_t>(e)].placement,
              best_seq[static_cast<size_t>(e)])
        << "epoch " << e;
  }
}

TEST(ReprovisionTest, PooledPlanNeverLosesToEitherBaseline) {
  DriftInstance inst;
  WorkloadTraceSpec schedule;
  schedule.Add(inst.epochs[0].get(), 8.0, "morning");
  schedule.Add(inst.epochs[1].get(), 8.0, "afternoon");
  schedule.Add(inst.epochs[2].get(), 6.0, "night");
  schedule.Add(inst.epochs[0].get(), 2.0, "wrap");

  for (double transfer : {0.0, 20.0, 2000.0}) {
    const DotProblem problem = PlannerProblem(inst.schema, inst.box, 0.4);
    ReprovisionConfig config;
    config.migration = SomeMigration(transfer, 100.0 * transfer);
    ReprovisionPlanner planner(problem, config);

    // Per-epoch solo optima (the migration-oblivious baseline's layouts;
    // the first one doubles as the frozen baseline).
    std::vector<std::vector<int>> solo;
    for (const TraceWindow& window : schedule.windows) {
      DotProblem p = problem;
      p.workload = window.workload;
      const DotResult r = ExactSearch(p, ExactStrategy::kBranchAndBound);
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      solo.push_back(r.placement);
    }
    const std::vector<int> current = solo[0];
    const std::vector<std::vector<int>> frozen(4, solo[0]);

    const ReprovisionPlan plan = planner.Plan(schedule, current);
    ASSERT_TRUE(plan.status.ok()) << plan.status.ToString();
    const ReprovisionPlan frozen_eval =
        planner.EvaluateSequence(schedule, frozen, current);
    const ReprovisionPlan oblivious_eval =
        planner.EvaluateSequence(schedule, solo, current);
    ASSERT_TRUE(frozen_eval.status.ok());
    ASSERT_TRUE(oblivious_eval.status.ok());

    EXPECT_LE(plan.total_objective, frozen_eval.total_objective)
        << "transfer " << transfer;
    EXPECT_LE(plan.total_objective, oblivious_eval.total_objective)
        << "transfer " << transfer;
  }
}

TEST(ReprovisionTest, MigrationPriceMovesThePlanAlongTheFrontier) {
  DriftInstance inst;
  WorkloadTraceSpec schedule;
  schedule.Add(inst.epochs[0].get(), 8.0);
  schedule.Add(inst.epochs[1].get(), 8.0);
  schedule.Add(inst.epochs[2].get(), 8.0);

  // The solo optima differ across epochs — otherwise this instance tests
  // nothing.
  std::vector<std::vector<int>> solo;
  for (const TraceWindow& window : schedule.windows) {
    DotProblem p;
    p.schema = &inst.schema;
    p.box = &inst.box;
    p.workload = window.workload;
    p.relative_sla = 0.4;
    solo.push_back(ExactSearch(p, ExactStrategy::kBranchAndBound).placement);
  }
  EXPECT_NE(solo[0], solo[1]);
  const std::vector<int> current = solo[0];

  int previous_migrations = -1;
  for (double transfer : {0.0, 1.0, 1e7}) {
    ReprovisionConfig config;
    config.migration = SomeMigration(transfer, 0.0);
    ReprovisionPlanner planner(PlannerProblem(inst.schema, inst.box, 0.4),
                               config);
    const ReprovisionPlan plan = planner.Plan(schedule, current);
    ASSERT_TRUE(plan.status.ok()) << plan.status.ToString();

    if (transfer == 0.0) {
      // Free migration: the plan is the greedy per-epoch solo optimum.
      for (int e = 0; e < 3; ++e) {
        EXPECT_EQ(plan.steps[static_cast<size_t>(e)].placement,
                  solo[static_cast<size_t>(e)])
            << "epoch " << e;
      }
    }
    if (transfer == 1e7) {
      // Prohibitive migration: never leave the (feasible) current layout.
      EXPECT_EQ(plan.num_migrations, 0);
      for (const EpochPlanStep& step : plan.steps) {
        EXPECT_EQ(step.placement, current);
      }
    }
    if (previous_migrations >= 0) {
      EXPECT_LE(plan.num_migrations, previous_migrations)
          << "transfer " << transfer;
    }
    previous_migrations = plan.num_migrations;
  }
}

TEST(ReprovisionTest, PlanIsBitIdenticalAcrossThreadCounts) {
  DriftInstance inst;
  WorkloadTraceSpec schedule;
  schedule.Add(inst.epochs[0].get(), 8.0);
  schedule.Add(inst.epochs[1].get(), 8.0);
  schedule.Add(inst.epochs[2].get(), 8.0);
  const std::vector<int> current{0, 0, 0, 0, 0, 0};

  // The reference scores every candidate through the full path, so the
  // evaluator DP is checked against an independent oracle, not itself.
  DotProblem problem = PlannerProblem(inst.schema, inst.box, 0.4);
  problem.options.num_threads = 1;
  problem.options.use_fast_eval = false;
  ReprovisionConfig config;
  config.migration = SomeMigration(10.0, 500.0);
  const ReprovisionPlan ref =
      ReprovisionPlanner(problem, config).Plan(schedule, current);
  ASSERT_TRUE(ref.status.ok()) << ref.status.ToString();

  problem.options.use_fast_eval = true;
  const ReprovisionPlan serial =
      ReprovisionPlanner(problem, config).Plan(schedule, current);
  ExpectSamePlan(serial, ref, "1 thread");
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  for (int threads : {4, hw}) {
    problem.options.num_threads = threads;
    const ReprovisionPlan plan =
        ReprovisionPlanner(problem, config).Plan(schedule, current);
    const std::string what = std::to_string(threads) + " threads";
    ExpectSamePlan(plan, ref, what);
    EXPECT_EQ(plan.layouts_evaluated, serial.layouts_evaluated) << what;
  }
}

TEST(ReprovisionTest, PlanReportsTheNodeCountsOfItsSoloSearches) {
  DriftInstance inst;
  WorkloadTraceSpec schedule;
  schedule.Add(inst.epochs[0].get(), 8.0);
  schedule.Add(inst.epochs[1].get(), 8.0);
  schedule.Add(inst.epochs[2].get(), 8.0);
  const DotProblem problem = PlannerProblem(inst.schema, inst.box, 0.4);
  ReprovisionConfig config;
  config.migration = SomeMigration(10.0, 500.0);
  ASSERT_EQ(config.search, EpochSearch::kExact);
  const ReprovisionPlan plan =
      ReprovisionPlanner(problem, config).Plan(schedule);
  ASSERT_TRUE(plan.status.ok()) << plan.status.ToString();

  // The same searches, run directly on each epoch's problem.
  SearchStats solo;
  for (const TraceWindow& window : schedule.windows) {
    DotProblem p = problem;
    p.workload = window.workload;
    solo.Add(ExactSearch(p, ExactStrategy::kBranchAndBound));
  }
  ASSERT_GT(solo.nodes_expanded, 0);
  EXPECT_EQ(plan.nodes_expanded, solo.nodes_expanded);
  EXPECT_EQ(plan.nodes_pruned_bound, solo.nodes_pruned_bound);
  EXPECT_EQ(plan.nodes_pruned_infeasible, solo.nodes_pruned_infeasible);
  EXPECT_EQ(plan.layouts_pruned, solo.layouts_pruned);
  // layouts_evaluated is unchanged: the searches' leaves plus the
  // pool × epoch matrix.
  EXPECT_EQ(plan.layouts_evaluated,
            solo.layouts_evaluated + 3 * plan.pool_size);
  EXPECT_GE(plan.arena_bytes_peak, solo.arena_bytes_peak);
}

/// A problem ValidateEpochProblem rejects, or a config
/// ValidateReprovisionConfig rejects, comes back from Plan and
/// EvaluateSequence as InvalidArgument instead of aborting.
void ExpectRejected(const DotProblem& problem,
                    const ReprovisionConfig& config) {
  DriftInstance inst;
  const ReprovisionPlanner planner(problem, config);
  WorkloadTraceSpec schedule;
  schedule.Add(inst.epochs[0].get(), 1.0);
  EXPECT_EQ(planner.Plan(schedule).status.code(), StatusCode::kInvalidArgument);
  const ReprovisionPlan evaluated =
      planner.EvaluateSequence(schedule, {{0, 0, 0, 0, 0, 0}});
  EXPECT_EQ(evaluated.status.code(), StatusCode::kInvalidArgument);
}

void ExpectConfigRejected(const ReprovisionConfig& config) {
  DriftInstance inst;
  ExpectRejected(PlannerProblem(inst.schema, inst.box, 0.5), config);
}

void ExpectProblemRejected(const DotProblem& problem) {
  ExpectRejected(problem, ReprovisionConfig{});
}

TEST(ReprovisionTest, PlanRejectsANanRelativeSla) {
  DriftInstance inst;
  ExpectProblemRejected(PlannerProblem(
      inst.schema, inst.box, std::numeric_limits<double>::quiet_NaN()));
}

TEST(ReprovisionTest, PlanRejectsAZeroRelativeSla) {
  DriftInstance inst;
  ExpectProblemRejected(PlannerProblem(inst.schema, inst.box, 0.0));
}

TEST(ReprovisionTest, PlanRejectsAnOverriddenOutOfRangeRelativeSla) {
  // Every epoch derives its targets from relative_sla, so an override does
  // not excuse it.
  DriftInstance inst;
  const PerfTargets targets = MakePerfTargets(
      *inst.epochs[0], inst.box, inst.schema.NumObjects(), 0.5);
  DotProblem problem = PlannerProblem(inst.schema, inst.box, 1.5);
  problem.targets_override = &targets;
  ExpectProblemRejected(problem);
}

TEST(ReprovisionTest, PlanRejectsAMalformedTailSla) {
  DriftInstance inst;
  DotProblem problem = PlannerProblem(inst.schema, inst.box, 0.5);
  problem.tail_sla.percentile = 1.0;
  problem.tail_sla.latency_cv = 0.1;
  ExpectProblemRejected(problem);
}

TEST(ReprovisionTest, PlanRejectsAProblemEnsembleOrAMissingSchema) {
  DriftInstance inst;
  ScenarioEnsemble ensemble;
  ensemble.scenarios.push_back(Scenario{});
  DotProblem robust = PlannerProblem(inst.schema, inst.box, 0.5);
  robust.ensemble = &ensemble;
  ExpectProblemRejected(robust);
  DotProblem no_schema = PlannerProblem(inst.schema, inst.box, 0.5);
  no_schema.schema = nullptr;
  ExpectProblemRejected(no_schema);
}

TEST(ReprovisionTest, PlanRejectsAZeroPoolCap) {
  ReprovisionConfig config;
  config.max_pool_layouts = 0;
  ExpectConfigRejected(config);
}

TEST(ReprovisionTest, PlanRejectsANegativeMigrationWeight) {
  ReprovisionConfig config;
  config.migration_weight = -5.0;
  ExpectConfigRejected(config);
}

TEST(ReprovisionTest, PlanRejectsANanMigrationWeight) {
  ReprovisionConfig config;
  config.migration_weight = std::numeric_limits<double>::quiet_NaN();
  ExpectConfigRejected(config);
}

TEST(ReprovisionTest, RejectsDegenerateInputs) {
  DriftInstance inst;
  const DotProblem problem = PlannerProblem(inst.schema, inst.box, 0.5);
  ReprovisionPlanner planner(problem, ReprovisionConfig{});

  WorkloadTraceSpec empty;
  EXPECT_EQ(planner.Plan(empty).status.code(), StatusCode::kInvalidArgument);

  WorkloadTraceSpec schedule;
  schedule.Add(inst.epochs[0].get(), 1.0);
  EXPECT_EQ(planner.Plan(schedule, std::vector<int>{0}).status.code(),
            StatusCode::kInvalidArgument);

  // kDot without profiles is a usage error, not an abort.
  ReprovisionConfig dot_config;
  dot_config.search = EpochSearch::kDot;
  EXPECT_EQ(ReprovisionPlanner(problem, dot_config)
                .Plan(schedule)
                .status.code(),
            StatusCode::kInvalidArgument);

  // An exhaustive pool beyond the guard reports OutOfRange (the
  // enumeration convention, dot/bnb_search.h).
  ReprovisionConfig big_config;
  big_config.exhaustive_pool = true;
  big_config.max_pool_layouts = 10;  // 3^6 = 729 > 10
  EXPECT_EQ(ReprovisionPlanner(problem, big_config)
                .Plan(schedule)
                .status.code(),
            StatusCode::kOutOfRange);
  // So does a space that overflows a long long (at least 3^40 on 40
  // objects), whatever the cap — LLONG_MAX included.
  RandomInstance wide(/*seed=*/5, /*tables=*/20);
  WorkloadTraceSpec wide_schedule;
  wide_schedule.Add(wide.workload.get(), 1.0);
  for (long long cap : {10LL, std::numeric_limits<long long>::max()}) {
    big_config.max_pool_layouts = cap;
    EXPECT_EQ(ReprovisionPlanner(wide.Problem(), big_config)
                  .Plan(wide_schedule)
                  .status.code(),
              StatusCode::kOutOfRange)
        << cap;
  }

  // A sequence of the wrong length is rejected by the evaluator too.
  EXPECT_EQ(planner
                .EvaluateSequence(schedule,
                                  std::vector<std::vector<int>>{})
                .status.code(),
            StatusCode::kInvalidArgument);
}

TEST(ReprovisionTest, PlanRejectsACurrentLayoutOutsideTheBox) {
  DriftInstance inst;
  ReprovisionPlanner planner(PlannerProblem(inst.schema, inst.box, 0.5),
                             ReprovisionConfig{});
  WorkloadTraceSpec schedule;
  schedule.Add(inst.epochs[0].get(), 1.0);
  for (int bad : {7, -1}) {
    const std::vector<int> current{bad, 0, 0, 0, 0, 0};
    const ReprovisionPlan plan = planner.Plan(schedule, current);
    EXPECT_EQ(plan.status.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(plan.status.message().find("current layout"),
              std::string::npos)
        << plan.status.ToString();
    EXPECT_EQ(planner
                  .EvaluateSequence(schedule, {{0, 0, 0, 0, 0, 0}}, current)
                  .status.code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
}

TEST(ReprovisionTest, EvaluateSequenceRejectsPlacementsOutsideTheBox) {
  DriftInstance inst;
  ReprovisionPlanner planner(PlannerProblem(inst.schema, inst.box, 0.5),
                             ReprovisionConfig{});
  WorkloadTraceSpec schedule;
  schedule.Add(inst.epochs[0].get(), 1.0).Add(inst.epochs[1].get(), 1.0);
  for (int bad : {7, -1}) {
    const ReprovisionPlan eval = planner.EvaluateSequence(
        schedule, {{0, 0, 0, 0, 0, 0}, {0, 0, 0, bad, 0, 0}});
    EXPECT_EQ(eval.status.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(eval.status.message().find("epoch 1"), std::string::npos)
        << eval.status.ToString();
  }
}

}  // namespace
}  // namespace dot
