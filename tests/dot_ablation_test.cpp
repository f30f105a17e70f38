// Tests for the optimizer's ablation knobs (acceptance rule, object
// grouping, sweep budget) and the targets override used by generalized
// provisioning.

#include <gtest/gtest.h>

#include "catalog/tpch_schema.h"
#include "dot/dot.h"
#include "workload/tpch_queries.h"

namespace dot {
namespace {

class AblationTest : public ::testing::Test {
 protected:
  AblationTest()
      : schema_(MakeTpchEsSubsetSchema(20.0)),
        box_(MakeBox1()),
        workload_("w", &schema_, &box_, MakeTpchSubsetTemplates(),
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

TEST_F(AblationTest, LiteralProcedure1StillFeasibleButWorse) {
  DotProblem literal = problem_;
  literal.options.acceptance = MoveAcceptance::kAnyFeasible;
  literal.options.max_sweeps = 1;
  DotResult lit = DotOptimizer(literal).Optimize();
  DotResult full = DotOptimizer(problem_).Optimize();
  ASSERT_TRUE(lit.status.ok());
  ASSERT_TRUE(full.status.ok());
  // The literal rule still returns a constraint-satisfying layout…
  PerfEstimate est = workload_.Estimate(lit.placement);
  EXPECT_TRUE(MeetsTargets(est, lit.targets));
  // …but never beats the refined rule.
  EXPECT_GE(lit.toc_cents_per_task, full.toc_cents_per_task * (1 - 1e-9));
}

TEST_F(AblationTest, UngroupedMovesStillSatisfyConstraints) {
  DotProblem ungrouped = problem_;
  ungrouped.options.group_objects = false;
  DotResult r = DotOptimizer(ungrouped).Optimize();
  ASSERT_TRUE(r.status.ok());
  Layout layout(&schema_, &box_, r.placement);
  EXPECT_TRUE(layout.CheckCapacity().ok());
  EXPECT_TRUE(MeetsTargets(workload_.Estimate(r.placement), r.targets));
}

TEST_F(AblationTest, UngroupedEnumeratesFewerLayoutsPerSweep) {
  // N singleton groups x (M-1) moves vs G groups x (M^2 - 1): 8x2=16 vs
  // 4x8=32 per sweep.
  DotProblem ungrouped = problem_;
  ungrouped.options.group_objects = false;
  ungrouped.options.max_sweeps = 1;
  DotProblem grouped = problem_;
  grouped.options.max_sweeps = 1;
  DotResult u = DotOptimizer(ungrouped).Optimize();
  DotResult g = DotOptimizer(grouped).Optimize();
  EXPECT_EQ(u.layouts_evaluated, 1 + 16);
  EXPECT_EQ(g.layouts_evaluated, 1 + 32);
}

TEST_F(AblationTest, MoreSweepsNeverHurt) {
  DotProblem one = problem_;
  one.options.max_sweeps = 1;
  DotProblem five = problem_;
  five.options.max_sweeps = 5;
  DotResult r1 = DotOptimizer(one).Optimize();
  DotResult r5 = DotOptimizer(five).Optimize();
  ASSERT_TRUE(r1.status.ok());
  ASSERT_TRUE(r5.status.ok());
  EXPECT_LE(r5.toc_cents_per_task, r1.toc_cents_per_task * (1 + 1e-9));
}

TEST_F(AblationTest, TargetsOverrideReplacesRelativeSla) {
  // Override with near-impossible caps: everything but the premium layout
  // violates, and the premium layout is the only feasible answer.
  PerfTargets strict = MakePerfTargets(workload_, box_,
                                       schema_.NumObjects(), 0.999);
  DotProblem p = problem_;
  p.relative_sla = 0.01;  // would be trivial…
  p.targets_override = &strict;  // …but the override wins
  DotResult r = DotOptimizer(p).Optimize();
  ASSERT_TRUE(r.status.ok());
  // At ~best-case caps, nearly all space stays premium.
  Layout layout(&schema_, &box_, r.placement);
  EXPECT_GT(layout.SpaceByClass()[2], 0.5 * schema_.TotalSizeGb());
}

TEST_F(AblationTest, TargetsOverrideAppliesToExhaustiveSearch) {
  PerfTargets loose =
      MakePerfTargets(workload_, box_, schema_.NumObjects(), 0.05);
  DotProblem p = problem_;
  p.targets_override = &loose;
  DotResult es = ExactSearch(p, ExactStrategy::kEnumerate);
  ASSERT_TRUE(es.status.ok());
  EXPECT_DOUBLE_EQ(es.targets.relative_sla, 0.05);
}

TEST(ContentionModelTest, SaturationReducesThroughputSuperlinearly) {
  Schema schema = MakeTpccSchema(50);
  BoxConfig box = MakeBox2();
  TpccConfig with;
  TpccConfig without;
  without.contention_reference_ms = -1.0;
  auto w_con = MakeTpccWorkload(&schema, &box, with);
  auto w_lin = MakeTpccWorkload(&schema, &box, without);
  const auto premium = UniformPlacement(schema.NumObjects(), 2);
  const auto cheap = UniformPlacement(schema.NumObjects(), 0);
  const double spread_lin =
      w_lin->Estimate(premium).tpmc / w_lin->Estimate(cheap).tpmc;
  const double spread_con =
      w_con->Estimate(premium).tpmc / w_con->Estimate(cheap).tpmc;
  // Contention widens the premium-vs-cheap spread.
  EXPECT_GT(spread_con, spread_lin * 1.5);
  // And never inverts the ordering.
  EXPECT_GT(spread_con, 1.0);
  EXPECT_GT(spread_lin, 1.0);
}

TEST(ContentionModelTest, DegradationIsCappedAtTenX) {
  Schema schema = MakeTpccSchema(300);
  BoxConfig box = MakeBox2();
  TpccConfig cfg;
  cfg.contention_reference_ms = 1.0;  // absurdly low: everything saturates
  auto w = MakeTpccWorkload(&schema, &box, cfg);
  TpccConfig off;
  off.contention_reference_ms = -1.0;
  auto w_off = MakeTpccWorkload(&schema, &box, off);
  const auto placement = UniformPlacement(schema.NumObjects(), 2);
  const double ratio =
      w_off->Estimate(placement).tpmc / w->Estimate(placement).tpmc;
  EXPECT_NEAR(ratio, 10.0, 1e-6);
}

}  // namespace
}  // namespace dot
