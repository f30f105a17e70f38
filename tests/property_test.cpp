// Property-style parameterized suites: invariants that must hold across
// sweeps of SLA levels, boxes, capacity caps, devices and concurrency.

#include <gtest/gtest.h>

#include <memory>

#include "dot/dot.h"

namespace dot {
namespace {

// ---------------------------------------------------------------------------
// Device-model properties over every stock class x concurrency grid.
// ---------------------------------------------------------------------------

class DeviceProperty : public ::testing::TestWithParam<int> {};

TEST_P(DeviceProperty, LatencyPositiveAndWithinEnvelope) {
  const StorageClass sc =
      MakeStockClass(static_cast<StockClass>(GetParam()));
  for (IoType t : kAllIoTypes) {
    const LatencyAnchors& a = sc.device().anchors(t);
    const double lo = std::min(a.at_c1_ms, a.at_c300_ms);
    const double hi = std::max(a.at_c1_ms, a.at_c300_ms);
    for (double c = 1.0; c <= 512.0; c *= 2.0) {
      const double v = sc.device().LatencyMs(t, c);
      EXPECT_GT(v, 0.0);
      EXPECT_GE(v, lo - 1e-12);
      EXPECT_LE(v, hi + 1e-12);
    }
  }
}

TEST_P(DeviceProperty, MicrobenchRoundTripsAtArbitraryConcurrency) {
  const StorageClass sc =
      MakeStockClass(static_cast<StockClass>(GetParam()));
  for (int c : {1, 7, 64, 300}) {
    MicrobenchConfig cfg;
    cfg.concurrency = c;
    const MeasuredIoProfile m = RunDeviceMicrobench(sc.device(), cfg);
    for (IoType t : kAllIoTypes) {
      EXPECT_NEAR(m.per_request_ms[t], sc.device().LatencyMs(t, c),
                  sc.device().LatencyMs(t, c) * 1e-6);
    }
  }
}

TEST_P(DeviceProperty, PriceIsPositiveAndFinite) {
  const StorageClass sc =
      MakeStockClass(static_cast<StockClass>(GetParam()));
  EXPECT_GT(sc.price_cents_per_gb_hour(), 0.0);
  EXPECT_LT(sc.price_cents_per_gb_hour(), 1.0);  // < 1 cent/GB/hour
}

INSTANTIATE_TEST_SUITE_P(AllStockClasses, DeviceProperty,
                         ::testing::Range(0, kNumStockClasses));

// ---------------------------------------------------------------------------
// End-to-end DOT invariants over (box, workload-kind, SLA).
// ---------------------------------------------------------------------------

enum class Wk { kTpchOriginal, kTpchModified, kTpcc };

struct DotCase {
  int box;  // 1 or 2
  Wk workload;
  double sla;
};

/// Owns one fully-wired DOT problem.
class DotInstance {
 public:
  explicit DotInstance(const DotCase& c) {
    box_ = c.box == 1 ? MakeBox1() : MakeBox2();
    if (c.workload == Wk::kTpcc) {
      schema_ = MakeTpccSchema(300);
      oltp_ = MakeTpccWorkload(&schema_, &box_, TpccConfig{});
      model_ = oltp_.get();
    } else {
      schema_ = MakeTpchSchema(20.0);
      const bool mod = c.workload == Wk::kTpchModified;
      dss_ = std::make_unique<DssWorkloadModel>(
          "w", &schema_, &box_,
          mod ? MakeModifiedTpchTemplates() : MakeTpchTemplates(),
          mod ? RepeatSequence(5, 20) : RepeatSequence(22, 3),
          PlannerConfig{});
      model_ = dss_.get();
    }
    Profiler profiler(&schema_, &box_);
    profiles_ = std::make_unique<WorkloadProfiles>(profiler.ProfileWorkload(
        *model_,
        [&](const std::vector<int>& p) { return model_->Estimate(p); }));
    problem_.schema = &schema_;
    problem_.box = &box_;
    problem_.workload = model_;
    problem_.relative_sla = c.sla;
    problem_.profiles = profiles_.get();
  }

  const DotProblem& problem() const { return problem_; }
  const Schema& schema() const { return schema_; }
  const BoxConfig& box() const { return box_; }
  const WorkloadModel& model() const { return *model_; }

 private:
  Schema schema_;
  BoxConfig box_;
  std::unique_ptr<DssWorkloadModel> dss_;
  std::unique_ptr<OltpWorkloadModel> oltp_;
  WorkloadModel* model_ = nullptr;
  std::unique_ptr<WorkloadProfiles> profiles_;
  DotProblem problem_;
};

class DotProperty : public ::testing::TestWithParam<DotCase> {};

TEST_P(DotProperty, RecommendationSatisfiesEveryConstraint) {
  DotInstance inst(GetParam());
  DotResult r = DotOptimizer(inst.problem()).Optimize();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  Layout layout(&inst.schema(), &inst.box(), r.placement);
  EXPECT_TRUE(layout.CheckCapacity().ok());
  PerfEstimate fresh = inst.model().Estimate(r.placement);
  EXPECT_TRUE(MeetsTargets(fresh, r.targets));
  EXPECT_DOUBLE_EQ(Psr(fresh, r.targets), 1.0);
}

TEST_P(DotProperty, NeverCostsMoreThanAllPremium) {
  DotInstance inst(GetParam());
  DotOptimizer optimizer(inst.problem());
  DotResult r = optimizer.Optimize();
  ASSERT_TRUE(r.status.ok());
  const double toc_l0 = optimizer.EstimateToc(
      UniformPlacement(inst.schema().NumObjects(),
                       inst.box().MostExpensiveClass()),
      nullptr);
  EXPECT_LE(r.toc_cents_per_task, toc_l0 * (1 + 1e-9));
}

TEST_P(DotProperty, ReportedNumbersAreInternallyConsistent) {
  DotInstance inst(GetParam());
  DotResult r = DotOptimizer(inst.problem()).Optimize();
  ASSERT_TRUE(r.status.ok());
  Layout layout(&inst.schema(), &inst.box(), r.placement);
  EXPECT_NEAR(r.layout_cost_cents_per_hour,
              layout.CostCentsPerHour(inst.problem().cost_model), 1e-9);
  EXPECT_NEAR(r.toc_cents_per_task,
              r.layout_cost_cents_per_hour / r.estimate.tasks_per_hour,
              r.toc_cents_per_task * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DotProperty,
    ::testing::Values(DotCase{1, Wk::kTpchOriginal, 0.5},
                      DotCase{1, Wk::kTpchOriginal, 0.25},
                      DotCase{2, Wk::kTpchOriginal, 0.5},
                      DotCase{2, Wk::kTpchOriginal, 0.25},
                      DotCase{1, Wk::kTpchModified, 0.5},
                      DotCase{1, Wk::kTpchModified, 0.25},
                      DotCase{2, Wk::kTpchModified, 0.5},
                      DotCase{2, Wk::kTpchModified, 0.25},
                      DotCase{1, Wk::kTpcc, 0.5},
                      DotCase{1, Wk::kTpcc, 0.125},
                      DotCase{2, Wk::kTpcc, 0.5},
                      DotCase{2, Wk::kTpcc, 0.125}),
    [](const auto& info) {
      const DotCase& c = info.param;
      std::string name = "Box" + std::to_string(c.box);
      name += c.workload == Wk::kTpcc
                  ? "Tpcc"
                  : (c.workload == Wk::kTpchModified ? "TpchMod" : "Tpch");
      name += "Sla";
      name += std::to_string(static_cast<int>(c.sla * 1000));
      return name;
    });

// ---------------------------------------------------------------------------
// Capacity-cap sweep on the ES-subset instance (the §4.4.3 protocol).
// ---------------------------------------------------------------------------

class CapacityProperty : public ::testing::TestWithParam<double> {};

TEST_P(CapacityProperty, DotStaysInsideTheCapAndNearEs) {
  const double cap_gb = GetParam();
  Schema schema = MakeTpchEsSubsetSchema(20.0);
  BoxConfig box = MakeBox1();
  box.classes[0].set_capacity_gb(cap_gb);  // cap the HDD RAID 0 (§4.4.3)
  DssWorkloadModel workload("w", &schema, &box, MakeTpchSubsetTemplates(),
                            RepeatSequence(11, 3), PlannerConfig{});
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

  DotResult dot = DotOptimizer(problem).Optimize();
  DotResult es = ExactSearch(problem, ExactStrategy::kEnumerate);
  ASSERT_EQ(dot.status.ok(), es.status.ok());
  if (!dot.status.ok()) return;
  Layout layout(&schema, &box, dot.placement);
  EXPECT_LT(layout.SpaceByClass()[0], cap_gb);
  // ES is the optimum; DOT must be close (paper: within 16% "in most
  // cases"; we allow 1.5x as the hard property bound).
  EXPECT_LE(es.toc_cents_per_task, dot.toc_cents_per_task * (1 + 1e-9));
  EXPECT_LT(dot.toc_cents_per_task, es.toc_cents_per_task * 1.5);
}

INSTANTIATE_TEST_SUITE_P(HddRaidCaps, CapacityProperty,
                         ::testing::Values(24.0, 12.0, 6.0, 3.0),
                         [](const auto& info) {
                           return "Cap" +
                                  std::to_string(
                                      static_cast<int>(info.param)) +
                                  "Gb";
                         });

// ---------------------------------------------------------------------------
// Discrete cost model sweep over alpha (§5.2).
// ---------------------------------------------------------------------------

class AlphaProperty : public ::testing::TestWithParam<double> {};

TEST_P(AlphaProperty, DiscreteModelStillYieldsFeasibleLayouts) {
  const double alpha = GetParam();
  Schema schema = MakeTpchEsSubsetSchema(20.0);
  BoxConfig box = MakeBox2();
  DssWorkloadModel workload("w", &schema, &box, MakeTpchSubsetTemplates(),
                            RepeatSequence(11, 3), PlannerConfig{});
  Profiler profiler(&schema, &box);
  WorkloadProfiles profiles = profiler.ProfileWorkload(
      workload,
      [&](const std::vector<int>& p) { return workload.Estimate(p); });
  DotProblem problem;
  problem.schema = &schema;
  problem.box = &box;
  problem.workload = &workload;
  problem.relative_sla = 0.25;
  problem.profiles = &profiles;
  problem.cost_model.discrete = true;
  problem.cost_model.alpha = alpha;

  DotResult r = DotOptimizer(problem).Optimize();
  ASSERT_TRUE(r.status.ok());
  Layout layout(&schema, &box, r.placement);
  EXPECT_TRUE(layout.CheckCapacity().ok());
  EXPECT_NEAR(r.layout_cost_cents_per_hour,
              layout.CostCentsPerHour(problem.cost_model), 1e-9);
  // With alpha > 0, partially filling an extra device has a fixed price:
  // the layout cost is at least the linear cost.
  EXPECT_GE(r.layout_cost_cents_per_hour,
            LinearLayoutCostCentsPerHour(box, layout.SpaceByClass()) -
                1e-9);
}

INSTANTIATE_TEST_SUITE_P(AlphaSweep, AlphaProperty,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0),
                         [](const auto& info) {
                           return "Alpha" +
                                  std::to_string(
                                      static_cast<int>(info.param * 100));
                         });

}  // namespace
}  // namespace dot
