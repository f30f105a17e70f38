#include "dot/optimizer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "catalog/tpch_schema.h"
#include "dot/bnb_search.h"
#include "dot/layout.h"
#include "dot/provisioner.h"
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

/// Forwards to a wrapped model and counts its EstimateWithIoScale calls.
class CountingWorkload : public WorkloadModel {
 public:
  explicit CountingWorkload(const WorkloadModel* inner) : inner_(inner) {}

  const std::string& name() const override { return inner_->name(); }
  const Schema* schema() const override { return inner_->schema(); }
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
  void ResetCalls() { calls_.store(0); }

 private:
  const WorkloadModel* inner_;
  mutable std::atomic<long long> calls_{0};
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
