// The TOC-only fast path (per-object device-time tables, the DSS plan
// cache, allocation-free space/cost sums) must be *exactly* identical to
// the full EstimateToc path — bit-identical doubles, not approximately
// equal — for both workload model families, with and without an io_scale
// hint, including after moves that invalidate cached plans. Anything less
// and the two paths could diverge on an accept/reject decision, silently
// changing search results.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "catalog/tpcc_schema.h"
#include "catalog/tpch_schema.h"
#include "common/rng.h"
#include "dot/candidate_evaluator.h"
#include "dot/bnb_search.h"
#include "dot/optimizer.h"
#include "storage/standard_catalog.h"
#include "workload/dss_workload.h"
#include "workload/profiler.h"
#include "workload/tpcc_workload.h"
#include "workload/tpch_queries.h"

namespace dot {
namespace {

std::vector<int> ThreadCounts() {
  return {1, 4,
          std::max(1, static_cast<int>(std::thread::hardware_concurrency()))};
}

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

void ExpectResultIdentical(const DotResult& fast, const DotResult& full,
                           const char* what) {
  ASSERT_EQ(fast.status.code(), full.status.code()) << what;
  EXPECT_EQ(fast.placement, full.placement) << what;
  EXPECT_EQ(fast.toc_cents_per_task, full.toc_cents_per_task) << what;
  EXPECT_EQ(fast.layout_cost_cents_per_hour, full.layout_cost_cents_per_hour)
      << what;
  EXPECT_EQ(fast.layouts_evaluated, full.layouts_evaluated) << what;
  EXPECT_EQ(fast.estimate.elapsed_ms, full.estimate.elapsed_ms) << what;
  EXPECT_EQ(fast.estimate.tasks_per_hour, full.estimate.tasks_per_hour)
      << what;
  EXPECT_EQ(fast.estimate.tpmc, full.estimate.tpmc) << what;
  ASSERT_EQ(fast.estimate.unit_times_ms.size(),
            full.estimate.unit_times_ms.size())
      << what;
  for (size_t i = 0; i < fast.estimate.unit_times_ms.size(); ++i) {
    EXPECT_EQ(fast.estimate.unit_times_ms[i],
              full.estimate.unit_times_ms[i])
        << what << " unit " << i;
  }
}

/// Compares EvaluateQuick against EvaluateOne on `rounds` random placements
/// drawn from a random walk (single-object mutations, so consecutive
/// placements share most of their signature — the plan cache's hit pattern
/// — while still moving footprint objects, which forces invalidation).
void CheckRandomizedEquivalence(const DotProblem& problem, uint64_t seed,
                                int rounds) {
  DotOptimizer estimator(problem);
  CandidateEvaluator evaluator(estimator);

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
      placement[o] = static_cast<int>(rng.NextBounded(
          static_cast<uint64_t>(m)));
    }
    const Layout layout(problem.schema, problem.box, placement);
    ExpectEvalIdentical(evaluator.EvaluateQuick(layout),
                        evaluator.EvaluateOne(layout), placement);
  }
  // The walk above must have exercised the cache in both directions.
  if (problem.workload->sla_kind() == SlaKind::kPerQueryResponseTime) {
    EXPECT_GT(evaluator.plan_cache_hits(), 0);
    EXPECT_GT(evaluator.plan_cache_misses(), 0);
  }
}

class DssFastEvalTest : public ::testing::Test {
 protected:
  DssFastEvalTest()
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

TEST_F(DssFastEvalTest, RandomizedPlacementsMatchFullPathExactly) {
  CheckRandomizedEquivalence(problem_, /*seed=*/0x5eed, /*rounds=*/300);
}

TEST_F(DssFastEvalTest, RandomizedPlacementsMatchWithIoScaleHint) {
  DotProblem p = problem_;
  std::vector<double> scale(static_cast<size_t>(schema_.NumObjects()), 1.0);
  for (size_t o = 0; o < scale.size(); ++o) {
    scale[o] = 0.5 + 0.25 * static_cast<double>(o % 5);
  }
  p.io_scale_hint = scale;
  CheckRandomizedEquivalence(p, /*seed=*/0xfeed, /*rounds=*/150);
}

TEST_F(DssFastEvalTest, MovingATouchedObjectInvalidatesTheCachedPlan) {
  DotOptimizer estimator(problem_);
  CandidateEvaluator evaluator(estimator);

  std::vector<int> placement =
      UniformPlacement(schema_.NumObjects(), box_.MostExpensiveClass());
  const Layout base(&schema_, &box_, placement);
  ExpectEvalIdentical(evaluator.EvaluateQuick(base),
                      evaluator.EvaluateOne(base), placement);
  const long long misses_before = evaluator.plan_cache_misses();

  // Move lineitem (in the footprint of most subset templates): every
  // template that touches it must re-plan, and the fast verdict must track
  // the full path through the changed plans.
  const int lineitem = schema_.FindObject("lineitem");
  ASSERT_GE(lineitem, 0);
  for (int cls = 0; cls < box_.NumClasses(); ++cls) {
    placement[static_cast<size_t>(lineitem)] = cls;
    const Layout moved(&schema_, &box_, placement);
    ExpectEvalIdentical(evaluator.EvaluateQuick(moved),
                        evaluator.EvaluateOne(moved), placement);
  }
  EXPECT_GT(evaluator.plan_cache_misses(), misses_before);

  // Returning to an already-seen signature must hit, not re-plan.
  const long long misses_after = evaluator.plan_cache_misses();
  placement[static_cast<size_t>(lineitem)] = box_.MostExpensiveClass();
  const Layout back(&schema_, &box_, placement);
  ExpectEvalIdentical(evaluator.EvaluateQuick(back),
                      evaluator.EvaluateOne(back), placement);
  EXPECT_EQ(evaluator.plan_cache_misses(), misses_after);
}

TEST_F(DssFastEvalTest, OptimizeMatchesSlowPathAtEveryThreadCount) {
  // use_fast_eval=false forces every candidate through the full path, so
  // result equality here proves the fast path scored every committed
  // candidate exactly as the full path would have.
  DotProblem slow = problem_;
  slow.options.use_fast_eval = false;
  slow.options.num_threads = 1;
  const DotResult full = DotOptimizer(slow).Optimize();
  ASSERT_TRUE(full.status.ok()) << full.status.ToString();
  for (int threads : ThreadCounts()) {
    DotProblem fast = problem_;
    fast.options.use_fast_eval = true;
    fast.options.num_threads = threads;
    const DotResult r = DotOptimizer(fast).Optimize();
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    ExpectResultIdentical(r, full, "Optimize fast vs full");
  }
}

TEST_F(DssFastEvalTest, ExhaustiveMatchesSlowPathAtEveryThreadCount) {
  DotProblem slow = problem_;
  slow.options.use_fast_eval = false;
  slow.options.num_threads = 1;
  const DotResult full = ExactSearch(slow, ExactStrategy::kEnumerate);
  ASSERT_TRUE(full.status.ok()) << full.status.ToString();
  for (int threads : ThreadCounts()) {
    DotProblem fast = problem_;
    fast.options.use_fast_eval = true;
    fast.options.num_threads = threads;
    const DotResult r = ExactSearch(fast, ExactStrategy::kEnumerate);
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    ExpectResultIdentical(r, full, "ExhaustiveSearch fast vs full");
    // The cursor walk resolves almost every template probe from the cache:
    // each template's signature space is tiny next to the full M^N space.
    EXPECT_GT(r.plan_cache_hits, r.plan_cache_misses);
  }
}

TEST_F(DssFastEvalTest, MismatchedTargetsOverrideFallsBackToFullPath) {
  // A throughput-kind override on a DSS workload is degenerate but legal:
  // every candidate is infeasible (tpmc stays 0). The fast path must step
  // aside (its scorers assume caps of the matching kind), not abort.
  PerfTargets throughput_targets;
  throughput_targets.kind = SlaKind::kThroughput;
  throughput_targets.min_tpmc = 1.0;
  DotProblem p = problem_;
  p.targets_override = &throughput_targets;
  const DotResult r = DotOptimizer(p).Optimize();
  EXPECT_FALSE(r.status.ok());
}

TEST(DssUnusedTemplateTest, TemplatesOutsideTheSequenceAreNeverPlanned) {
  // A template list larger than the run sequence: the fast path must skip
  // the unused tail exactly like the full path does (no planner calls, no
  // footprint resolution) and still agree bit-for-bit.
  Schema schema = MakeTpchEsSubsetSchema(20.0);
  BoxConfig box = MakeBox1();
  std::vector<QuerySpec> templates = MakeTpchSubsetTemplates();
  const size_t num_used = templates.size();
  templates.push_back(templates.front());  // never referenced below
  DssWorkloadModel workload("TPC-H-unused", &schema, &box,
                            std::move(templates),
                            RepeatSequence(static_cast<int>(num_used), 2),
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
  CheckRandomizedEquivalence(problem, /*seed=*/0x17, /*rounds=*/60);
}

class OltpFastEvalTest : public ::testing::Test {
 protected:
  OltpFastEvalTest()
      : schema_(MakeTpccSchema(300)),
        box_(MakeBox2()),
        workload_(MakeTpccWorkload(&schema_, &box_, TpccConfig{})),
        profiler_(&schema_, &box_),
        profiles_(profiler_.ProfileWorkload(
            *workload_, [&](const std::vector<int>& p) {
              return workload_->Estimate(p);
            })) {
    problem_.schema = &schema_;
    problem_.box = &box_;
    problem_.workload = workload_.get();
    problem_.relative_sla = 0.25;
    problem_.profiles = &profiles_;
  }

  Schema schema_;
  BoxConfig box_;
  std::unique_ptr<OltpWorkloadModel> workload_;
  Profiler profiler_;
  WorkloadProfiles profiles_;
  DotProblem problem_;
};

TEST_F(OltpFastEvalTest, RandomizedPlacementsMatchFullPathExactly) {
  CheckRandomizedEquivalence(problem_, /*seed=*/0xabcd, /*rounds=*/300);
}

TEST_F(OltpFastEvalTest, RandomizedPlacementsMatchWithIoScaleHint) {
  DotProblem p = problem_;
  std::vector<double> scale(static_cast<size_t>(schema_.NumObjects()), 1.0);
  for (size_t o = 0; o < scale.size(); ++o) {
    scale[o] = 0.75 + 0.5 * static_cast<double>(o % 3);
  }
  p.io_scale_hint = scale;
  CheckRandomizedEquivalence(p, /*seed=*/0xdcba, /*rounds=*/150);
}

TEST_F(OltpFastEvalTest, OptimizeMatchesSlowPathAtEveryThreadCount) {
  DotProblem slow = problem_;
  slow.options.use_fast_eval = false;
  slow.options.num_threads = 1;
  const DotResult full = DotOptimizer(slow).Optimize();
  ASSERT_TRUE(full.status.ok()) << full.status.ToString();
  for (int threads : ThreadCounts()) {
    DotProblem fast = problem_;
    fast.options.use_fast_eval = true;
    fast.options.num_threads = threads;
    const DotResult r = DotOptimizer(fast).Optimize();
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    ExpectResultIdentical(r, full, "Optimize fast vs full (OLTP)");
    // OLTP has no plan cache; the counters must stay silent.
    EXPECT_EQ(r.plan_cache_hits, 0);
    EXPECT_EQ(r.plan_cache_misses, 0);
  }
}

}  // namespace
}  // namespace dot
