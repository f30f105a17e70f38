#include "dot/validator.h"

#include <gtest/gtest.h>

#include <limits>

#include "catalog/tpch_schema.h"
#include "storage/standard_catalog.h"
#include "workload/dss_workload.h"
#include "workload/profiler.h"
#include "workload/tpch_queries.h"

namespace dot {
namespace {

class ValidatorTest : public ::testing::Test {
 protected:
  ValidatorTest()
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

TEST_F(ValidatorTest, AccurateEstimatesValidateInOneRound) {
  PipelineConfig cfg;
  cfg.exec.noise_cv = 0.0;
  PipelineResult r = RunDotPipeline(problem_, cfg);
  EXPECT_TRUE(r.validated);
  EXPECT_EQ(r.rounds.size(), 1u);
  EXPECT_TRUE(r.rounds[0].passed);
  EXPECT_DOUBLE_EQ(r.rounds[0].measured_psr, 1.0);
}

TEST_F(ValidatorTest, MildNoisePassesWithTolerance) {
  PipelineConfig cfg;
  cfg.exec.noise_cv = 0.01;
  cfg.exec.seed = 5;
  cfg.validation_tolerance = 0.10;
  PipelineResult r = RunDotPipeline(problem_, cfg);
  EXPECT_TRUE(r.validated);
}

TEST_F(ValidatorTest, InjectedMisestimateTriggersRefinement) {
  // The optimizer believes lineitem is 1x; in reality every lineitem I/O
  // happens 6x. The first recommendation over-demotes lineitem; the test
  // run misses its caps; refinement feeds the measured stats back.
  PipelineConfig cfg;
  cfg.exec.noise_cv = 0.0;
  cfg.exec.io_scale.assign(static_cast<size_t>(schema_.NumObjects()), 1.0);
  cfg.exec.io_scale[static_cast<size_t>(schema_.FindObject("lineitem"))] =
      6.0;
  cfg.max_rounds = 3;
  PipelineResult r = RunDotPipeline(problem_, cfg);
  ASSERT_GE(r.rounds.size(), 1u);
  // Refinement must have been exercised (round 1 failed) and eventually
  // validated (the corrected model is exact by construction).
  EXPECT_GT(r.rounds.size(), 1u);
  EXPECT_FALSE(r.rounds[0].passed);
  EXPECT_TRUE(r.validated);
}

TEST_F(ValidatorTest, RefinementImprovesMeasuredPsr) {
  PipelineConfig cfg;
  cfg.exec.noise_cv = 0.0;
  cfg.exec.io_scale.assign(static_cast<size_t>(schema_.NumObjects()), 1.0);
  for (const char* hot : {"lineitem", "orders"}) {
    cfg.exec.io_scale[static_cast<size_t>(schema_.FindObject(hot))] = 5.0;
  }
  cfg.max_rounds = 3;
  PipelineResult r = RunDotPipeline(problem_, cfg);
  if (r.rounds.size() > 1) {
    EXPECT_GE(r.rounds.back().measured_psr, r.rounds[0].measured_psr);
  }
}

TEST_F(ValidatorTest, InfeasibleProblemShortCircuits) {
  BoxConfig tiny = box_;
  for (auto& sc : tiny.classes) sc.set_capacity_gb(0.01);
  DotProblem p = problem_;
  p.box = &tiny;
  PipelineConfig cfg;
  cfg.exec.noise_cv = 0.0;
  PipelineResult r = RunDotPipeline(p, cfg);
  EXPECT_FALSE(r.validated);
  EXPECT_EQ(r.final.status.code(), StatusCode::kInfeasible);
  EXPECT_EQ(r.rounds.size(), 1u);
}

TEST_F(ValidatorTest, MaxRoundsBoundsTheLoop) {
  PipelineConfig cfg;
  cfg.exec.noise_cv = 0.0;
  // A uniform global slowdown can never be fixed by re-placement, so with
  // strict targets the loop runs out of rounds.
  cfg.exec.io_scale.assign(static_cast<size_t>(schema_.NumObjects()), 50.0);
  cfg.max_rounds = 2;
  DotProblem p = problem_;
  p.relative_sla = 0.9;
  PipelineResult r = RunDotPipeline(p, cfg);
  EXPECT_LE(r.rounds.size(), 2u);
}

/// A malformed pipeline input comes back as InvalidArgument in
/// final.status, before any round runs.
void ExpectRejected(const DotProblem& problem, const PipelineConfig& cfg) {
  const PipelineResult r = RunDotPipeline(problem, cfg);
  EXPECT_EQ(r.final.status.code(), StatusCode::kInvalidArgument)
      << r.final.status.ToString();
  EXPECT_FALSE(r.validated);
  EXPECT_TRUE(r.rounds.empty());
}

TEST_F(ValidatorTest, MaxRoundsBelowOneIsRejected) {
  for (int rounds : {0, -1}) {
    PipelineConfig cfg;
    cfg.max_rounds = rounds;
    ExpectRejected(problem_, cfg);
  }
}

TEST_F(ValidatorTest, ExecIoScaleArityMismatchIsRejected) {
  const size_t n = static_cast<size_t>(schema_.NumObjects());
  for (size_t size : {size_t{2}, n + 1}) {
    PipelineConfig cfg;
    cfg.exec.io_scale.assign(size, 1.0);
    ExpectRejected(problem_, cfg);
  }
}

TEST_F(ValidatorTest, NanOrNegativeExecIoScaleIsRejected) {
  for (double entry : {std::numeric_limits<double>::quiet_NaN(), -1.0}) {
    PipelineConfig cfg;
    cfg.exec.io_scale.assign(static_cast<size_t>(schema_.NumObjects()), 1.0);
    cfg.exec.io_scale[1] = entry;
    ExpectRejected(problem_, cfg);
  }
}

TEST_F(ValidatorTest, NanOrNegativeNoiseIsRejected) {
  for (double cv : {std::numeric_limits<double>::quiet_NaN(), -0.1}) {
    PipelineConfig cfg;
    cfg.exec.noise_cv = cv;
    ExpectRejected(problem_, cfg);
  }
}

TEST_F(ValidatorTest, ProblemWithoutProfilesIsRejected) {
  DotProblem p = problem_;
  p.profiles = nullptr;
  ExpectRejected(p, PipelineConfig{});
}

}  // namespace
}  // namespace dot
