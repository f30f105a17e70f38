#include "dot/provisioner.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>

#include "catalog/tpch_schema.h"
#include "storage/standard_catalog.h"
#include "workload/dss_workload.h"
#include "workload/profiler.h"
#include "workload/tpch_queries.h"

namespace dot {
namespace {

/// Holds everything one configuration option needs alive.
struct OptionState {
  BoxConfig box;
  std::unique_ptr<DssWorkloadModel> workload;
  std::unique_ptr<WorkloadProfiles> profiles;
};

class ProvisionerTest : public ::testing::Test {
 protected:
  ProvisionerTest() : schema_(MakeTpchEsSubsetSchema(20.0)) {}

  ProvisioningOption MakeOption(const BoxConfig& box, double sla) {
    auto state = std::make_shared<OptionState>();
    state->box = box;
    state->workload = std::make_unique<DssWorkloadModel>(
        box.name, &schema_, &state->box, MakeTpchSubsetTemplates(),
        RepeatSequence(11, 3), PlannerConfig{});
    Profiler profiler(&schema_, &state->box);
    state->profiles =
        std::make_unique<WorkloadProfiles>(profiler.ProfileWorkload(
            *state->workload, [state](const std::vector<int>& p) {
              return state->workload->Estimate(p);
            }));
    ProvisioningOption option;
    option.name = box.name;
    option.make_problem = [this, state, sla]() {
      DotProblem p;
      p.schema = &schema_;
      p.box = &state->box;
      p.workload = state->workload.get();
      p.relative_sla = sla;
      p.profiles = state->profiles.get();
      return p;
    };
    return option;
  }

  Schema schema_;
};

TEST_F(ProvisionerTest, PicksTheCheaperFeasibleBox) {
  std::vector<ProvisioningOption> options;
  options.push_back(MakeOption(MakeBox1(), 0.5));
  options.push_back(MakeOption(MakeBox2(), 0.5));
  ProvisioningResult r = ProvisionOverOptions(options);
  ASSERT_GE(r.best_option, 0);
  ASSERT_EQ(r.per_option.size(), 2u);
  for (const DotResult& res : r.per_option) {
    if (res.status.ok()) {
      EXPECT_GE(res.toc_cents_per_task,
                r.best.toc_cents_per_task * (1 - 1e-12));
    }
  }
  EXPECT_EQ(r.best_name, options[static_cast<size_t>(r.best_option)].name);
}

TEST_F(ProvisionerTest, SkipsInfeasibleOptions) {
  BoxConfig tiny = MakeBox1();
  for (auto& sc : tiny.classes) sc.set_capacity_gb(0.01);
  tiny.name = "tiny box";
  std::vector<ProvisioningOption> options;
  options.push_back(MakeOption(tiny, 0.5));
  options.push_back(MakeOption(MakeBox2(), 0.5));
  ProvisioningResult r = ProvisionOverOptions(options);
  EXPECT_EQ(r.best_option, 1);
  EXPECT_FALSE(r.per_option[0].status.ok());
  EXPECT_TRUE(r.per_option[1].status.ok());
}

TEST_F(ProvisionerTest, NoFeasibleOptionReportsMinusOne) {
  BoxConfig tiny = MakeBox1();
  for (auto& sc : tiny.classes) sc.set_capacity_gb(0.01);
  std::vector<ProvisioningOption> options;
  options.push_back(MakeOption(tiny, 0.5));
  ProvisioningResult r = ProvisionOverOptions(options);
  EXPECT_EQ(r.best_option, -1);
  EXPECT_TRUE(r.best_name.empty());
}

TEST_F(ProvisionerTest, MalformedOptionProblemIsReportedNotAborted) {
  // Relative SLAs Solve rejects (MakePerfTargets would abort on them): the
  // option reports InvalidArgument and never wins; the good one still does.
  for (double sla : {0.0, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE("relative_sla " + std::to_string(sla));
    std::vector<ProvisioningOption> options;
    options.push_back(MakeOption(MakeBox1(), sla));
    options.push_back(MakeOption(MakeBox2(), 0.5));
    ProvisioningResult r = ProvisionOverOptions(options, /*num_threads=*/2);
    EXPECT_EQ(r.per_option[0].status.code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(r.per_option[1].status.ok());
    EXPECT_EQ(r.best_option, 1);
  }
}

TEST_F(ProvisionerTest, EmptyMenuHasNoWinner) {
  // Every lane count, hardware concurrency (0) included: an empty menu
  // returns before any pool is built.
  for (int threads : {0, 1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const ProvisioningResult r = ProvisionOverOptions({}, threads);
    EXPECT_EQ(r.best_option, -1);
    EXPECT_TRUE(r.best_name.empty());
    EXPECT_TRUE(r.per_option.empty());
  }
}

TEST_F(ProvisionerTest, RelaxationRejectsMalformedKnobs) {
  const ProvisioningOption option = MakeOption(MakeBox1(), 0.5);
  DotProblem problem = option.make_problem();
  for (double factor : {0.0, 1.0, 1.5, -0.5,
                        std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE("relax_factor " + std::to_string(factor));
    EXPECT_EQ(OptimizeWithRelaxation(problem, factor, 0.01).status.code(),
              StatusCode::kInvalidArgument);
  }
  for (double min_sla : {0.0, -0.1, std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE("min_sla " + std::to_string(min_sla));
    EXPECT_EQ(OptimizeWithRelaxation(problem, 0.9, min_sla).status.code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(problem.relative_sla, 0.5);
}

TEST_F(ProvisionerTest, RelaxationStopsOnErrorsOtherThanInfeasible) {
  // A problem the facade rejects is not relaxed: the first verdict comes
  // back as is and the SLA is left alone.
  const ProvisioningOption option = MakeOption(MakeBox1(), 0.5);
  DotProblem no_profiles = option.make_problem();
  no_profiles.profiles = nullptr;
  const DotResult r = OptimizeWithRelaxation(no_profiles, 0.9, 0.01);
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(no_profiles.relative_sla, 0.5);

  DotProblem bad_sla = option.make_problem();
  bad_sla.relative_sla = 1.5;
  EXPECT_EQ(OptimizeWithRelaxation(bad_sla, 0.9, 0.01).status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(bad_sla.relative_sla, 1.5);
}

}  // namespace
}  // namespace dot
