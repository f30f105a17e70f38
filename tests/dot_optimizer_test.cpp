#include "dot/optimizer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/tpch_schema.h"
#include "common/thread_pool.h"
#include "dot/bnb_search.h"
#include "dot/layout.h"
#include "dot/provisioner.h"
#include "dot/solve.h"
#include "storage/standard_catalog.h"
#include "workload/dss_workload.h"
#include "workload/profiler.h"
#include "workload/tpch_queries.h"

namespace dot {
namespace {

/// Shared fixture: the §4.4.3 small instance (8 objects) where exhaustive
/// search is tractable, so DOT can be judged against the true optimum.
class OptimizerTest : public ::testing::Test {
 protected:
  OptimizerTest()
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

TEST_F(OptimizerTest, FindsAFeasibleLayout) {
  DotResult r = DotOptimizer(problem_).Optimize();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  Layout layout(&schema_, &box_, r.placement);
  EXPECT_TRUE(layout.CheckCapacity().ok());
  PerfEstimate est = workload_.Estimate(r.placement);
  EXPECT_TRUE(MeetsTargets(est, r.targets));
}

TEST_F(OptimizerTest, BeatsTheAllPremiumLayout) {
  DotResult r = DotOptimizer(problem_).Optimize();
  ASSERT_TRUE(r.status.ok());
  DotOptimizer opt(problem_);
  const double toc_l0 = opt.EstimateToc(
      UniformPlacement(schema_.NumObjects(), box_.MostExpensiveClass()),
      nullptr);
  EXPECT_LT(r.toc_cents_per_task, toc_l0);
}

TEST_F(OptimizerTest, EvaluatesLinearlyManyLayouts) {
  DotResult r = DotOptimizer(problem_).Optimize();
  // 4 groups x (3^2 - 1) = 32 moves per sweep, <= 5 sweeps, plus L0 —
  // orders of magnitude below ES's 3^8 = 6561.
  EXPECT_GE(r.layouts_evaluated, 33);
  EXPECT_LE(r.layouts_evaluated, 1 + 5 * 32);
}

TEST_F(OptimizerTest, WithinPaperBandsOfExhaustiveSearch) {
  // §4.4.3: "DOT's response time ... within 9% of ES in all cases, and its
  // TOC was within 16% of ES in most cases." Allow modest headroom.
  DotResult dot = DotOptimizer(problem_).Optimize();
  DotResult es = ExactSearch(problem_, ExactStrategy::kEnumerate);
  ASSERT_TRUE(dot.status.ok());
  ASSERT_TRUE(es.status.ok());
  EXPECT_LE(es.toc_cents_per_task, dot.toc_cents_per_task * (1 + 1e-9));
  EXPECT_LT(dot.toc_cents_per_task, es.toc_cents_per_task * 1.30);
  EXPECT_LT(dot.estimate.elapsed_ms, es.estimate.elapsed_ms * 1.15);
}

TEST_F(OptimizerTest, RelaxingSlaNeverRaisesToc) {
  double prev = std::numeric_limits<double>::infinity();
  for (double sla : {0.9, 0.5, 0.25, 0.125, 0.05}) {
    DotProblem p = problem_;
    p.relative_sla = sla;
    DotResult r = DotOptimizer(p).Optimize();
    ASSERT_TRUE(r.status.ok()) << "sla=" << sla;
    EXPECT_LE(r.toc_cents_per_task, prev * (1 + 1e-9)) << "sla=" << sla;
    prev = r.toc_cents_per_task;
  }
}

TEST_F(OptimizerTest, StrictSlaPinsDataToPremiumStorage) {
  DotProblem p = problem_;
  p.relative_sla = 0.999;
  DotResult r = DotOptimizer(p).Optimize();
  ASSERT_TRUE(r.status.ok());
  // At ~best-case targets nearly everything must stay on the H-SSD.
  Layout layout(&schema_, &box_, r.placement);
  const SpaceUsage used = layout.SpaceByClass();
  EXPECT_GT(used[2], 0.5 * schema_.TotalSizeGb());
}

TEST_F(OptimizerTest, CapacityCapsAreRespected) {
  BoxConfig capped = box_;
  capped.classes[2].set_capacity_gb(5.0);  // H-SSD squeezed hard
  DssWorkloadModel workload("w", &schema_, &capped,
                            MakeTpchSubsetTemplates(), RepeatSequence(11, 3),
                            PlannerConfig{});
  Profiler profiler(&schema_, &capped);
  WorkloadProfiles profiles = profiler.ProfileWorkload(
      workload,
      [&](const std::vector<int>& p) { return workload.Estimate(p); });
  DotProblem p;
  p.schema = &schema_;
  p.box = &capped;
  p.workload = &workload;
  p.relative_sla = 0.25;
  p.profiles = &profiles;
  DotResult r = DotOptimizer(p).Optimize();
  if (r.status.ok()) {
    Layout layout(&schema_, &capped, r.placement);
    EXPECT_TRUE(layout.CheckCapacity().ok());
    EXPECT_LT(layout.SpaceByClass()[2], 5.0);
  }
}

TEST_F(OptimizerTest, ImpossibleConstraintsReportInfeasible) {
  // Cap every class below the database size: no layout can fit.
  BoxConfig tiny = box_;
  for (auto& sc : tiny.classes) sc.set_capacity_gb(1.0);
  DotProblem p = problem_;
  p.box = &tiny;
  DotResult r = DotOptimizer(p).Optimize();
  EXPECT_EQ(r.status.code(), StatusCode::kInfeasible);
  EXPECT_TRUE(r.placement.empty());
}

TEST_F(OptimizerTest, RelaxationLoopFindsFeasibleSla) {
  // An SLA of ~1.0 with a capacity cap that forbids the premium class is
  // infeasible; the relaxation loop should settle on a lower SLA.
  BoxConfig capped = box_;
  capped.classes[2].set_capacity_gb(2.0);
  DssWorkloadModel workload("w", &schema_, &capped,
                            MakeTpchSubsetTemplates(), RepeatSequence(11, 3),
                            PlannerConfig{});
  Profiler profiler(&schema_, &capped);
  WorkloadProfiles profiles = profiler.ProfileWorkload(
      workload,
      [&](const std::vector<int>& p) { return workload.Estimate(p); });
  DotProblem p;
  p.schema = &schema_;
  p.box = &capped;
  p.workload = &workload;
  p.relative_sla = 0.99;
  p.profiles = &profiles;
  DotResult r = OptimizeWithRelaxation(p, /*relax_factor=*/0.9,
                                       /*min_sla=*/0.01);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_LT(p.relative_sla, 0.99);
}

TEST_F(OptimizerTest, DiscreteCostModelProducesValidResult) {
  DotProblem p = problem_;
  p.cost_model.discrete = true;
  p.cost_model.alpha = 0.5;
  DotResult r = DotOptimizer(p).Optimize();
  ASSERT_TRUE(r.status.ok());
  Layout layout(&schema_, &box_, r.placement);
  EXPECT_NEAR(r.layout_cost_cents_per_hour,
              layout.CostCentsPerHour(p.cost_model), 1e-9);
}

/// Forwards to a wrapped model and counts its EstimateWithIoScale calls
/// (full estimates) and its MakeFastScorer calls (scorer builds). Atomics:
/// engines call the model from several threads.
class CountingWorkload : public WorkloadModel {
 public:
  explicit CountingWorkload(const WorkloadModel* inner) : inner_(inner) {}

  const std::string& name() const override { return inner_->name(); }
  const Schema* schema() const override { return inner_->schema(); }
  const BoxConfig* box() const override { return inner_->box(); }
  double concurrency() const override { return inner_->concurrency(); }
  SlaKind sla_kind() const override { return inner_->sla_kind(); }
  PerfEstimate EstimateWithIoScale(const std::vector<int>& placement,
                                   const std::vector<double>& io_scale,
                                   bool need_io_by_object) const override {
    calls_.fetch_add(1);
    return inner_->EstimateWithIoScale(placement, io_scale,
                                       need_io_by_object);
  }
  std::unique_ptr<FastScorer> MakeFastScorer(
      const std::vector<double>& io_scale,
      const std::vector<double>& query_caps_ms, double min_tpmc,
      double sla_tolerance) const override {
    scorer_builds_.fetch_add(1);
    return inner_->MakeFastScorer(io_scale, query_caps_ms, min_tpmc,
                                  sla_tolerance);
  }
  bool PlansArePlacementInvariant() const override {
    return inner_->PlansArePlacementInvariant();
  }
  void RederiveFromUnitTimes(PerfEstimate* est) const override {
    inner_->RederiveFromUnitTimes(est);
  }

  long long calls() const { return calls_.load(); }
  long long scorer_builds() const { return scorer_builds_.load(); }
  void ResetCalls() {
    calls_.store(0);
    scorer_builds_.store(0);
  }

 private:
  const WorkloadModel* inner_;
  mutable std::atomic<long long> calls_{0};
  mutable std::atomic<long long> scorer_builds_{0};
};

TEST_F(OptimizerTest, FullPathWalkEstimatesEachCommittedCandidateOnce) {
  // On the full path every candidate the walk commits costs one estimate,
  // and the winner one more for its PerfEstimate. Extra lanes must not
  // score candidates the walk never commits.
  CountingWorkload counting(&workload_);
  DotProblem p = problem_;
  p.workload = &counting;
  p.options.use_fast_eval = false;
  p.options.num_threads = 4;
  DotOptimizer optimizer(p);
  counting.ResetCalls();  // the targets' baseline estimate is not the walk's
  const DotResult r = optimizer.Optimize();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(counting.calls(), r.layouts_evaluated + 1);
}

/// The one-optimizer-per-problem invariant: every engine that searches a
/// problem runs on one DotOptimizer, so the problem's targets are derived
/// once and its fast scorer is built once, on first use. The counting
/// double observes both: scorer builds directly, and target derivations
/// through the full estimates (each derivation's, plus one per full
/// re-score of a committed winner).
class OneOptimizerTest : public OptimizerTest {
 protected:
  OneOptimizerTest() : counting_(&workload_) { problem_.workload = &counting_; }

  /// Full estimates one DotOptimizer construction makes: its target
  /// derivation.
  long long DerivationEstimates(const DotProblem& problem) {
    counting_.ResetCalls();
    const DotOptimizer optimizer(problem);
    return counting_.calls();
  }

  CountingWorkload counting_;
};

TEST_F(OneOptimizerTest, EstimatorOnlyCallersBuildNoScorer) {
  // The advisor's incumbent pricer builds an optimizer per re-plan only to
  // call EstimateToc: the scorer must not be built for it.
  counting_.ResetCalls();
  const DotOptimizer optimizer(problem_);
  EXPECT_GT(optimizer.targets().best_case.tasks_per_hour, 0.0);
  PerfEstimate estimate;
  optimizer.EstimateToc(
      UniformPlacement(schema_.NumObjects(), box_.MostExpensiveClass()),
      &estimate);
  EXPECT_EQ(counting_.scorer_builds(), 0);
  // The first fast-path call builds it, and later calls reuse it.
  optimizer.EvaluateQuick(UniformPlacement(schema_.NumObjects(), 0));
  optimizer.EvaluateQuick(UniformPlacement(schema_.NumObjects(), 1));
  EXPECT_EQ(counting_.scorer_builds(), 1);
}

TEST_F(OneOptimizerTest, ExactSolveBuildsOneScorerAndDerivesTargetsOnce) {
  const long long derivation = DerivationEstimates(problem_);
  ASSERT_GT(derivation, 0);
  counting_.ResetCalls();
  const SolveResult solved = Solve(problem_, SolveSpec{});
  ASSERT_TRUE(solved.status.ok()) << solved.status.ToString();
  // The seed walk, the tree and the winner share one scorer.
  EXPECT_EQ(counting_.scorer_builds(), 1);
  // One derivation, plus the full re-score of the tree's winner: the seed
  // walk keeps only its winner's TOC, so it pays for no full estimate.
  EXPECT_EQ(counting_.calls(), derivation + 1);
}

TEST_F(OneOptimizerTest, ExactEpochPlanBuildsOneScorerPerWindow) {
  // Each epoch's solo search and its row of the pool × epoch matrix run
  // on one optimizer.
  const int kWindows = 3;
  WorkloadTraceSpec schedule;
  for (int e = 0; e < kWindows; ++e) {
    schedule.Add(&counting_, 1.0 + e, "w" + std::to_string(e), &profiles_);
  }
  // Each epoch's problem is the fixture's with the window's workload and
  // profiles, i.e. the fixture's own.
  const long long derivation = DerivationEstimates(problem_);
  for (int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    DotProblem problem = problem_;
    problem.options.num_threads = threads;
    SolveSpec spec;
    spec.method = SolveMethod::kEpochPlan;
    spec.schedule = &schedule;
    spec.epoch.search = EpochSearch::kExact;
    counting_.ResetCalls();
    const SolveResult planned = Solve(problem, spec);
    ASSERT_TRUE(planned.status.ok()) << planned.status.ToString();
    EXPECT_EQ(counting_.scorer_builds(), kWindows);
    EXPECT_EQ(counting_.calls(), kWindows * (derivation + 1));
  }
}

TEST_F(OneOptimizerTest, SearchedFleetPoolsBuildOneScorerEach) {
  // Two distinct tenant problems, three tenants: two pools, each built by
  // a solo search and scored on the search's optimizer.
  DotProblem strict = problem_;
  strict.relative_sla = 0.4;
  const std::vector<FleetTenant> tenants = {
      {"a", problem_}, {"b", strict}, {"a2", problem_}};
  const long long derivation =
      DerivationEstimates(problem_) + DerivationEstimates(strict);
  for (int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    DotProblem problem = problem_;
    problem.options.num_threads = threads;
    FleetSpec fleet;
    fleet.tenants = &tenants;
    fleet.config.pool_mode = FleetPoolMode::kSearch;
    SolveSpec spec;
    spec.method = SolveMethod::kFleet;
    spec.fleet = &fleet;
    counting_.ResetCalls();
    const SolveResult solved = Solve(problem, spec);
    ASSERT_TRUE(solved.status.ok()) << solved.status.ToString();
    ASSERT_EQ(solved.fleet.pool_builds, 2);
    EXPECT_EQ(counting_.scorer_builds(), solved.fleet.pool_builds);
    // One derivation per pool, and each solo search's one winner
    // re-score (its seed walk makes none).
    EXPECT_EQ(counting_.calls(), derivation + 2 * 1);
  }
}

TEST_F(OneOptimizerTest, HeldOptimizerSearchMatchesTheProblemSearch) {
  // Bit for bit, node counters included, with and without profiles, at
  // every thread count; a second search on the same (now warm) optimizer
  // decides the same again.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  for (bool profiles : {true, false}) {
    for (int threads : {1, 4, hw}) {
      const std::string what = (profiles ? "profiles, " : "no profiles, ") +
                               std::to_string(threads) + " threads";
      DotProblem problem = problem_;
      problem.profiles = profiles ? &profiles_ : nullptr;
      problem.options.num_threads = threads;
      for (ExactStrategy strategy :
           {ExactStrategy::kBranchAndBound, ExactStrategy::kEnumerate}) {
        const DotResult reference = ExactSearch(problem, strategy);
        ASSERT_TRUE(reference.status.ok()) << what;
        const DotOptimizer held(problem);
        for (int run = 0; run < 2; ++run) {
          SCOPED_TRACE(what + ", run " + std::to_string(run));
          const DotResult r = ExactSearch(held, strategy);
          ASSERT_TRUE(r.status.ok());
          EXPECT_EQ(r.placement, reference.placement);
          EXPECT_EQ(r.toc_cents_per_task, reference.toc_cents_per_task);
          EXPECT_EQ(r.layout_cost_cents_per_hour,
                    reference.layout_cost_cents_per_hour);
          EXPECT_EQ(r.estimate.elapsed_ms, reference.estimate.elapsed_ms);
          EXPECT_EQ(r.layouts_evaluated, reference.layouts_evaluated);
          EXPECT_EQ(r.nodes_expanded, reference.nodes_expanded);
          EXPECT_EQ(r.nodes_pruned_bound, reference.nodes_pruned_bound);
          EXPECT_EQ(r.nodes_pruned_infeasible,
                    reference.nodes_pruned_infeasible);
          EXPECT_EQ(r.layouts_pruned, reference.layouts_pruned);
          if (run == 0 && threads == 1) {
            // A fresh optimizer's scorer sees exactly the problem
            // search's plan-cache traffic.
            EXPECT_EQ(r.plan_cache_hits, reference.plan_cache_hits);
            EXPECT_EQ(r.plan_cache_misses, reference.plan_cache_misses);
          }
        }
      }
    }
  }
}

TEST_F(OneOptimizerTest, ConcurrentFirstUseBuildsTheScorerOnce) {
  // Every lane's first call races for the lazy build; each must score
  // through the one scorer, bit-identical to the full path.
  const DotOptimizer optimizer(problem_);
  counting_.ResetCalls();
  const int n = schema_.NumObjects();
  const int m = box_.NumClasses();
  const int kLayouts = 64;
  std::vector<CandidateEval> quick(kLayouts);
  ThreadPool pool(4);
  pool.ParallelFor(0, kLayouts, [&](int64_t i) {
    const std::vector<int> placement = DecodeLayoutIndex(i * 97, n, m);
    quick[static_cast<size_t>(i)] = optimizer.EvaluateQuick(placement);
  });
  EXPECT_EQ(counting_.scorer_builds(), 1);
  for (int i = 0; i < kLayouts; ++i) {
    const std::vector<int> placement = DecodeLayoutIndex(i * 97, n, m);
    const CandidateEval full =
        optimizer.EvaluateOne(Layout(&schema_, &box_, placement));
    EXPECT_EQ(quick[static_cast<size_t>(i)].feasible, full.feasible) << i;
    EXPECT_EQ(quick[static_cast<size_t>(i)].toc, full.toc) << i;
  }
}

TEST_F(OptimizerTest, MissingComponentAborts) {
  // The constructor asserts ValidateProblem; entry points return it.
  DotProblem p = problem_;
  p.workload = nullptr;
  EXPECT_DEATH(DotOptimizer{p}, "must be set");
}

TEST_F(OptimizerTest, OptimizeWithoutProfilesReturnsInvalidArgument) {
  DotProblem p = problem_;
  p.profiles = nullptr;
  const DotResult r = DotOptimizer(p).Optimize();
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status.message().find("profiles"), std::string::npos)
      << r.status.ToString();
  EXPECT_EQ(r.layouts_evaluated, 0);
  EXPECT_TRUE(r.placement.empty());
}

}  // namespace
}  // namespace dot
