#include "dot/bnb_search.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "catalog/tpch_schema.h"
#include "dot/candidate_evaluator.h"
#include "dot/layout.h"
#include "storage/standard_catalog.h"
#include "workload/dss_workload.h"
#include "workload/tpch_queries.h"

namespace dot {
namespace {

/// A deliberately tiny instance (2 tables + 2 indices on 2 classes =
/// 81... 2^4 = 16 layouts) where the optimum can be verified by hand-rolled
/// enumeration.
class ExhaustiveTest : public ::testing::Test {
 protected:
  ExhaustiveTest() : box_(MakeBox1()) {
    schema_ = MakeTpchSchema(2.0).Subset(
        {"orders", "customer", "orders_pkey", "customer_pkey"});
    auto all = MakeTpchTemplates();
    templates_ = {all[12]};  // Q13: customer x orders
    workload_ = std::make_unique<DssWorkloadModel>(
        "tiny", &schema_, &box_, templates_, RepeatSequence(1, 3),
        PlannerConfig{});
    problem_.schema = &schema_;
    problem_.box = &box_;
    problem_.workload = workload_.get();
    problem_.relative_sla = 0.5;
  }

  Schema schema_;
  BoxConfig box_;
  std::vector<QuerySpec> templates_;
  std::unique_ptr<DssWorkloadModel> workload_;
  DotProblem problem_;
};

TEST_F(ExhaustiveTest, EnumeratesEveryLayout) {
  DotResult r = ExactSearch(problem_, ExactStrategy::kEnumerate);
  EXPECT_EQ(r.layouts_evaluated, 81);  // 3^4
  ASSERT_TRUE(r.status.ok());
}

TEST_F(ExhaustiveTest, ReturnsTheTrueOptimum) {
  DotResult es = ExactSearch(problem_, ExactStrategy::kEnumerate);
  ASSERT_TRUE(es.status.ok());
  // Re-verify by manual enumeration.
  DotOptimizer estimator(problem_);
  double best = std::numeric_limits<double>::infinity();
  std::vector<int> placement(4, 0);
  for (int a = 0; a < 3; ++a)
    for (int b = 0; b < 3; ++b)
      for (int c = 0; c < 3; ++c)
        for (int d = 0; d < 3; ++d) {
          placement = {a, b, c, d};
          Layout l(&schema_, &box_, placement);
          if (!l.CheckCapacity().ok()) continue;
          PerfEstimate est;
          const double toc = estimator.EstimateToc(placement, &est);
          if (!MeetsTargets(est, estimator.targets())) continue;
          best = std::min(best, toc);
        }
  EXPECT_NEAR(es.toc_cents_per_task, best, best * 1e-12);
}

TEST_F(ExhaustiveTest, OptimumNeverWorseThanAnyUniformLayout) {
  DotResult es = ExactSearch(problem_, ExactStrategy::kEnumerate);
  ASSERT_TRUE(es.status.ok());
  DotOptimizer estimator(problem_);
  for (int cls = 0; cls < box_.NumClasses(); ++cls) {
    PerfEstimate est;
    const double toc =
        estimator.EstimateToc(UniformPlacement(4, cls), &est);
    if (MeetsTargets(est, estimator.targets())) {
      EXPECT_LE(es.toc_cents_per_task, toc * (1 + 1e-12));
    }
  }
}

TEST_F(ExhaustiveTest, InfeasibleWhenNothingFits) {
  BoxConfig tiny = box_;
  for (auto& sc : tiny.classes) sc.set_capacity_gb(0.001);
  DotProblem p = problem_;
  p.box = &tiny;
  DotResult r = ExactSearch(p, ExactStrategy::kEnumerate);
  EXPECT_EQ(r.status.code(), StatusCode::kInfeasible);
}

TEST_F(ExhaustiveTest, GuardRejectsExplosiveInstancesWithAStatus) {
  // The overflow path is an expected outcome, not a programmer error: the
  // run must come back with an OutOfRange status and an empty result, not
  // abort the process.
  DotResult r =
      ExactSearch(problem_, ExactStrategy::kEnumerate, /*max_layouts=*/10);
  EXPECT_EQ(r.status.code(), StatusCode::kOutOfRange);
  EXPECT_NE(r.status.message().find("exceeds the guard"), std::string::npos)
      << r.status.ToString();
  EXPECT_TRUE(r.placement.empty());
  EXPECT_EQ(r.layouts_evaluated, 0);
}

TEST_F(ExhaustiveTest, GuardSurvivesOverflowingLayoutCounts) {
  // 3^80 overflows long long; the M^N computation must saturate instead of
  // wrapping (a wrapped value could slip under the guard and start a
  // never-ending enumeration), and the guard must refuse the saturated
  // count even when the cap itself is LLONG_MAX. The problem is a valid
  // one — the fixture's 4 objects plus 76 padding tables, with the
  // workload built over the result — so only the guard can refuse it.
  Schema big = schema_;
  while (big.NumObjects() < 80) {
    big.AddTable("pad" + std::to_string(big.NumObjects()), 1000.0, 100.0);
  }
  const DssWorkloadModel workload("tiny-padded", &big, &box_, templates_,
                                  RepeatSequence(1, 3), PlannerConfig{});
  DotProblem p = problem_;
  p.schema = &big;
  p.workload = &workload;
  ASSERT_TRUE(ValidateProblem(p).ok());
  for (long long max_layouts : {kDefaultMaxEnumeratedLayouts,
                                std::numeric_limits<long long>::max()}) {
    DotResult r = ExactSearch(p, ExactStrategy::kEnumerate, max_layouts);
    EXPECT_EQ(r.status.code(), StatusCode::kOutOfRange) << max_layouts;
    EXPECT_NE(r.status.message().find("3^80"), std::string::npos)
        << r.status.ToString();
  }
}

TEST(EnumerateLayoutSpaceTest, ListsTheSpaceInIndexOrderUpToTheCap) {
  // 3^2 = 9 layouts, digit 0 least significant.
  const Result<std::vector<std::vector<int>>> space =
      EnumerateLayoutSpace(/*num_objects=*/2, /*num_classes=*/3,
                           /*max_layouts=*/9);
  ASSERT_TRUE(space.ok()) << space.status().ToString();
  ASSERT_EQ(space->size(), 9u);
  for (long long idx = 0; idx < 9; ++idx) {
    EXPECT_EQ((*space)[static_cast<size_t>(idx)], DecodeLayoutIndex(idx, 2, 3));
  }
  EXPECT_EQ((*space)[5], (std::vector<int>{2, 1}));

  // One layout past the cap, and a saturated space under the largest cap.
  EXPECT_EQ(EnumerateLayoutSpace(2, 3, 8).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(EnumerateLayoutSpace(80, 3, std::numeric_limits<long long>::max())
                .status()
                .code(),
            StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace dot
