#include "workload/dss_workload.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/tpch_schema.h"
#include "common/rng.h"
#include "common/simd_dispatch.h"
#include "common/units.h"
#include "query/planner.h"
#include "storage/standard_catalog.h"
#include "workload/tpch_queries.h"
#include "workload/workload.h"

namespace dot {
namespace {

std::uint64_t Bits(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

class DssWorkloadTest : public ::testing::Test {
 protected:
  DssWorkloadTest()
      : schema_(MakeTpchSchema(20.0)),
        box_(MakeBox1()),
        workload_("TPC-H", &schema_, &box_, MakeTpchTemplates(),
                  RepeatSequence(22, 3), PlannerConfig{}) {}

  Schema schema_;
  BoxConfig box_;
  DssWorkloadModel workload_;
};

TEST_F(DssWorkloadTest, SequenceHas66Queries) {
  EXPECT_EQ(workload_.sequence().size(), 66u);
  EXPECT_EQ(workload_.templates().size(), 22u);
}

TEST_F(DssWorkloadTest, EstimateProducesPerQueryTimes) {
  PerfEstimate est =
      workload_.Estimate(UniformPlacement(schema_.NumObjects(), 2));
  EXPECT_EQ(est.unit_times_ms.size(), 66u);
  double sum = 0;
  for (double t : est.unit_times_ms) {
    EXPECT_GT(t, 0);
    sum += t;
  }
  EXPECT_NEAR(est.elapsed_ms, sum, 1e-6);
  EXPECT_GT(est.tasks_per_hour, 0);
}

TEST_F(DssWorkloadTest, RepetitionsShareTheSamePlan) {
  PerfEstimate est =
      workload_.Estimate(UniformPlacement(schema_.NumObjects(), 0));
  // Template-major sequence: entries 0..2 are template 0.
  EXPECT_DOUBLE_EQ(est.unit_times_ms[0], est.unit_times_ms[1]);
  EXPECT_DOUBLE_EQ(est.unit_times_ms[1], est.unit_times_ms[2]);
}

TEST_F(DssWorkloadTest, AllHssdIsFastest) {
  const int n = schema_.NumObjects();
  const double hssd =
      workload_.Estimate(UniformPlacement(n, 2)).elapsed_ms;
  const double lssd =
      workload_.Estimate(UniformPlacement(n, 1)).elapsed_ms;
  const double hdd_raid =
      workload_.Estimate(UniformPlacement(n, 0)).elapsed_ms;
  EXPECT_LT(hssd, lssd);
  EXPECT_LT(hssd, hdd_raid);
}

TEST_F(DssWorkloadTest, OriginalWorkloadIsSrDominated) {
  // §4.4: "the workload is executed sequentially with the SR I/O as the
  // dominating I/O type" (on bulk layouts).
  PerfEstimate est =
      workload_.Estimate(UniformPlacement(schema_.NumObjects(), 0));
  IoVector total;
  for (const IoVector& v : est.io_by_object) total += v;
  EXPECT_GT(total[IoType::kSeqRead], total[IoType::kRandRead]);
}

TEST_F(DssWorkloadTest, OriginalWorkloadHasLowInljShare) {
  // §4.4.2: "only 11% of the joins in the original TPC-H workload were
  // INLJ" on the DOT/H-SSD-style layouts. Allow a loose band.
  PerfEstimate est =
      workload_.Estimate(UniformPlacement(schema_.NumObjects(), 2));
  ASSERT_GT(est.num_joins, 0);
  const double share =
      static_cast<double>(est.num_index_nl_joins) / est.num_joins;
  EXPECT_LT(share, 0.35);
}

TEST_F(DssWorkloadTest, ModifiedWorkloadHasHigherInljShareOnHssd) {
  DssWorkloadModel modified("TPC-H-mod", &schema_, &box_,
                            MakeModifiedTpchTemplates(),
                            RepeatSequence(5, 20), PlannerConfig{});
  PerfEstimate orig =
      workload_.Estimate(UniformPlacement(schema_.NumObjects(), 2));
  PerfEstimate mod =
      modified.Estimate(UniformPlacement(schema_.NumObjects(), 2));
  const double orig_share =
      static_cast<double>(orig.num_index_nl_joins) / orig.num_joins;
  const double mod_share =
      static_cast<double>(mod.num_index_nl_joins) / mod.num_joins;
  EXPECT_GT(mod_share, orig_share);
}

TEST_F(DssWorkloadTest, IoScaleInflatesTime) {
  const std::vector<int> placement =
      UniformPlacement(schema_.NumObjects(), 0);
  PerfEstimate base = workload_.Estimate(placement);
  std::vector<double> scale(static_cast<size_t>(schema_.NumObjects()), 2.0);
  PerfEstimate scaled = workload_.EstimateWithIoScale(placement, scale);
  EXPECT_GT(scaled.elapsed_ms, base.elapsed_ms * 1.2);
  // I/O doubles exactly.
  const int li = schema_.FindObject("lineitem");
  EXPECT_NEAR(scaled.io_by_object[li].Total(),
              2.0 * base.io_by_object[li].Total(), 1e-6);
}

TEST_F(DssWorkloadTest, SubsetTemplatesTouchOnlyFourTables) {
  Schema sub = MakeTpchEsSubsetSchema(20.0);
  DssWorkloadModel subset("TPC-H-ES", &sub, &box_,
                          MakeTpchSubsetTemplates(), RepeatSequence(11, 3),
                          PlannerConfig{});
  // Must not abort: every template resolves against the 8-object schema.
  PerfEstimate est = subset.Estimate(UniformPlacement(sub.NumObjects(), 2));
  EXPECT_EQ(est.unit_times_ms.size(), 33u);
}

// --- The oracle: the full estimate rebuilt from Planner::PlanQuery plan
// trees, independent of the compiled programs both model paths run.

/// EstimateWithIoScale as a PlanQuery loop: plan each template the
/// sequence runs, re-price its scaled per-object I/O at the planning
/// `concurrency` when an io_scale is set, gather the times over the
/// sequence, and add each plan's I/O and join census `count` times.
/// uses_inlj[t] receives whether template t's plan holds an indexed
/// nested-loop join.
PerfEstimate OracleEstimate(const Planner& planner, const BoxConfig& box,
                            double concurrency,
                            const std::vector<QuerySpec>& templates,
                            const std::vector<int>& sequence, int num_objects,
                            const std::vector<int>& placement,
                            const std::vector<double>& io_scale,
                            bool need_io_by_object,
                            std::vector<bool>* uses_inlj) {
  std::vector<int> count(templates.size(), 0);
  for (int idx : sequence) count[static_cast<size_t>(idx)] += 1;
  std::vector<Plan> plans(templates.size());
  std::vector<double> times(templates.size(), 0.0);
  for (size_t t = 0; t < templates.size(); ++t) {
    if (count[t] == 0) continue;
    plans[t] = planner.PlanQuery(templates[t], placement);
    (*uses_inlj)[t] = plans[t].num_index_nl_joins > 0;
    times[t] = plans[t].time_ms;
    if (!io_scale.empty()) {
      for (size_t o = 0; o < plans[t].io_by_object.size(); ++o) {
        plans[t].io_by_object[o] *= io_scale[o];
      }
      const double io_ms =
          IoTimeShareMs(plans[t].io_by_object, placement, box, concurrency);
      times[t] = io_ms + plans[t].cpu_ms;
    }
  }
  PerfEstimate est;
  for (int idx : sequence) {
    est.unit_times_ms.push_back(times[static_cast<size_t>(idx)]);
  }
  est.elapsed_ms = GatherSum(times.data(), sequence.data(),
                             static_cast<int>(sequence.size()));
  if (need_io_by_object) {
    est.io_by_object.assign(static_cast<size_t>(num_objects), IoVector{});
  }
  for (size_t t = 0; t < templates.size(); ++t) {
    if (count[t] == 0) continue;
    est.num_joins += count[t] * plans[t].num_joins;
    est.num_index_nl_joins += count[t] * plans[t].num_index_nl_joins;
    if (need_io_by_object) {
      AccumulateScaledIo(est.io_by_object, plans[t].io_by_object, count[t]);
    }
  }
  if (est.elapsed_ms > 0) {
    est.tasks_per_hour =
        static_cast<double>(sequence.size()) / (est.elapsed_ms / kMsPerHour);
  }
  return est;
}

void ExpectBitIdentical(const PerfEstimate& got, const PerfEstimate& want) {
  ASSERT_EQ(Bits(got.elapsed_ms), Bits(want.elapsed_ms));
  ASSERT_EQ(Bits(got.tasks_per_hour), Bits(want.tasks_per_hour));
  ASSERT_EQ(Bits(got.tpmc), Bits(want.tpmc));
  ASSERT_EQ(got.num_joins, want.num_joins);
  ASSERT_EQ(got.num_index_nl_joins, want.num_index_nl_joins);
  ASSERT_EQ(got.unit_times_ms.size(), want.unit_times_ms.size());
  for (size_t i = 0; i < got.unit_times_ms.size(); ++i) {
    ASSERT_EQ(Bits(got.unit_times_ms[i]), Bits(want.unit_times_ms[i]))
        << "sequence entry " << i;
  }
  ASSERT_EQ(got.io_by_object.size(), want.io_by_object.size());
  for (size_t o = 0; o < got.io_by_object.size(); ++o) {
    for (int k = 0; k < kNumIoTypes; ++k) {
      ASSERT_EQ(Bits(got.io_by_object[o].v[static_cast<size_t>(k)]),
                Bits(want.io_by_object[o].v[static_cast<size_t>(k)]))
          << "object " << o << " io type " << k;
    }
  }
}

struct OracleCase {
  bool modified;
  bool box2;
  double concurrency;
};

std::string OracleCaseName(const ::testing::TestParamInfo<OracleCase>& info) {
  return std::string(info.param.modified ? "TpchModified" : "Tpch") +
         (info.param.box2 ? "_Box2" : "_Box1") +
         (info.param.concurrency > 1 ? "_C30" : "");
}

class DssOracleTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(DssOracleTest, FullEstimateMatchesPlanQueryBitForBit) {
  const OracleCase& c = GetParam();
  Schema schema = MakeTpchSchema(20.0);
  const BoxConfig box = c.box2 ? MakeBox2() : MakeBox1();
  PlannerConfig config;
  config.temp_object_id =
      schema.AddAuxiliary("temp", ObjectKind::kTempSpace, 50.0);
  config.work_mem_gb = 0.01;  // hash and sort spills reach the temp object
  config.concurrency = c.concurrency;
  const std::vector<QuerySpec> templates =
      c.modified ? MakeModifiedTpchTemplates() : MakeTpchTemplates();
  const int num_templates = static_cast<int>(templates.size());

  // An interleaved run sequence in which template 1 never runs and the
  // others run one to three times.
  Rng rng(0x5eed + static_cast<std::uint64_t>(c.modified) * 2 +
          static_cast<std::uint64_t>(c.box2));
  std::vector<int> sequence;
  for (int rep = 0; rep < 3; ++rep) {
    for (int t = 0; t < num_templates; ++t) {
      if (t != 1 && rep <= t % 3) sequence.push_back(t);
    }
  }
  const DssWorkloadModel model("oracle", &schema, &box, templates, sequence,
                               config);
  const Planner planner(&schema, &box, config);
  const int n = schema.NumObjects();

  // Per template: seen planned with an INLJ, and seen without one.
  std::vector<bool> with_inlj(templates.size(), false);
  std::vector<bool> without_inlj(templates.size(), false);
  std::vector<bool> uses_inlj(templates.size(), false);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<int> placement(static_cast<size_t>(n));
    if (trial < box.NumClasses()) {
      placement.assign(static_cast<size_t>(n), trial);
    } else {
      for (int& cls : placement) {
        cls = static_cast<int>(
            rng.NextBounded(static_cast<std::uint64_t>(box.NumClasses())));
      }
    }
    std::vector<double> io_scale;
    if (trial % 2 == 1) {
      io_scale.resize(static_cast<size_t>(n));
      for (double& s : io_scale) s = 0.25 + 4.0 * rng.NextDouble();
    }
    for (bool need_io : {true, false}) {
      SCOPED_TRACE("trial " + std::to_string(trial) +
                   (io_scale.empty() ? "" : " io_scale") +
                   (need_io ? " io_by_object" : ""));
      const PerfEstimate want =
          OracleEstimate(planner, box, config.concurrency, templates, sequence,
                         n, placement, io_scale, need_io, &uses_inlj);
      ExpectBitIdentical(
          model.EstimateWithIoScale(placement, io_scale, need_io), want);
    }
    for (size_t t = 0; t < templates.size(); ++t) {
      if (t == 1) continue;  // never planned
      (uses_inlj[t] ? with_inlj : without_inlj)[t] = true;
    }
  }
  // Not vacuous: the placement moves the join choice — some template is
  // planned with an INLJ under some placements and without under others.
  int flips = 0;
  for (size_t t = 0; t < templates.size(); ++t) {
    if (with_inlj[t] && without_inlj[t]) ++flips;
  }
  EXPECT_GT(flips, 0);
}

INSTANTIATE_TEST_SUITE_P(TpchTemplates, DssOracleTest,
                         ::testing::Values(OracleCase{false, false, 1.0},
                                           OracleCase{false, true, 1.0},
                                           OracleCase{true, false, 1.0},
                                           OracleCase{true, true, 1.0},
                                           OracleCase{false, false, 30.0},
                                           OracleCase{true, true, 30.0}),
                         OracleCaseName);

// --- One latency row set for every price: the scaled re-price and the
// compiled program both time I/O at PlannerConfig::concurrency.

TEST(DssPlanningConcurrencyTest, AllOnesHintKeepsTheUnhintedEstimate) {
  // A hint of all ones scales nothing, so at any planning concurrency it
  // must leave the estimate where the unhinted one is (up to the re-price's
  // per-object summation order).
  const Schema subset = MakeTpchEsSubsetSchema(2.0);
  Schema schema = subset.Subset({"lineitem", "orders", "customer", "part",
                                 "lineitem_pkey", "orders_pkey"});
  const BoxConfig box = MakeBox1();
  const int n = schema.NumObjects();
  const std::vector<double> ones(static_cast<size_t>(n), 1.0);
  for (double concurrency : {1.0, 30.0, 300.0}) {
    PlannerConfig config;
    config.concurrency = concurrency;
    const DssWorkloadModel model("TPC-H-6obj", &schema, &box,
                                 MakeTpchSubsetTemplates(),
                                 RepeatSequence(11, 3), config);
    EXPECT_EQ(model.concurrency(), concurrency);
    Rng rng(static_cast<std::uint64_t>(concurrency));
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<int> placement(static_cast<size_t>(n));
      for (int& cls : placement) {
        cls = static_cast<int>(
            rng.NextBounded(static_cast<std::uint64_t>(box.NumClasses())));
      }
      const double unhinted = model.Estimate(placement).elapsed_ms;
      const double hinted =
          model.EstimateWithIoScale(placement, ones, false).elapsed_ms;
      EXPECT_NEAR(hinted, unhinted, 1e-12 * unhinted)
          << "concurrency " << concurrency << " trial " << trial;
    }
  }
}

// --- Admissible floors under an io_scale (DssFastScorer::EnsureFloors).

/// Full TPC-H with spills on Box 1 (original templates) or Box 2 (modified
/// ones) at planning `concurrency`, over random placements and hints with
/// s_o in [0, 3], a quarter of them 0. A template's floor —
/// CompiledTemplate::RunScaled with every footprint object on the
/// optimistic column, deflated by kBoundSafety — and each conditional floor
/// — one footprint object pinned to its class — must not exceed
/// RunTemplate's scaled re-price at any placement that agrees with them.
/// The scorer's bound cursor, which holds the same floors, must stay under
/// Score at every depth of a random assignment order, and start above 0.
void ExpectScaledFloorsAdmissible(bool box2, double concurrency) {
  Schema schema = MakeTpchSchema(20.0);
  const BoxConfig box = box2 ? MakeBox2() : MakeBox1();
  PlannerConfig config;
  config.temp_object_id =
      schema.AddAuxiliary("temp", ObjectKind::kTempSpace, 50.0);
  config.work_mem_gb = 0.01;
  config.concurrency = concurrency;
  const std::vector<QuerySpec> templates =
      box2 ? MakeModifiedTpchTemplates() : MakeTpchTemplates();
  const int num_templates = static_cast<int>(templates.size());
  const DssWorkloadModel model("floors", &schema, &box, templates,
                               RepeatSequence(num_templates, 2), config);
  const int n = schema.NumObjects();
  const int optimistic = box.NumClasses();
  const std::vector<double> no_caps(model.sequence().size(),
                                    std::numeric_limits<double>::infinity());
  Rng rng(0xf100 + static_cast<std::uint64_t>(box2) * 2 +
          static_cast<std::uint64_t>(concurrency));
  int positive_floors = 0;
  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::vector<int> placement(static_cast<size_t>(n));
    for (int& cls : placement) {
      cls = static_cast<int>(
          rng.NextBounded(static_cast<std::uint64_t>(box.NumClasses())));
    }
    std::vector<double> io_scale(static_cast<size_t>(n));
    for (double& s : io_scale) {
      s = rng.NextBounded(4) == 0 ? 0.0 : rng.NextUniform(0.0, 3.0);
    }
    for (int t = 0; t < num_templates; ++t) {
      const double exact = model.RunTemplate(t, placement, io_scale).time_ms;
      const CompiledTemplate& program =
          model.compiled()[static_cast<size_t>(t)];
      std::vector<int> probe(static_cast<size_t>(n), optimistic);
      const double floor =
          program.RunScaled(probe.data(), io_scale.data()).time_ms *
          (1 - kBoundSafety);
      EXPECT_LE(floor, exact) << "template " << t;
      if (floor > 0) ++positive_floors;
      for (int o : program.footprint()) {
        probe[static_cast<size_t>(o)] = placement[static_cast<size_t>(o)];
        const double cond =
            program.RunScaled(probe.data(), io_scale.data()).time_ms *
            (1 - kBoundSafety);
        EXPECT_LE(cond, exact) << "template " << t << " pinned object " << o;
        probe[static_cast<size_t>(o)] = optimistic;
      }
    }

    const std::unique_ptr<FastScorer> scorer =
        model.MakeFastScorer(io_scale, no_caps, 0.0, 0.0);
    const double score = scorer->Score(placement).elapsed_ms;
    const std::unique_ptr<FastScorer::BoundCursor> cursor =
        scorer->MakeBoundCursor();
    std::vector<int> order(static_cast<size_t>(n));
    for (int o = 0; o < n; ++o) order[static_cast<size_t>(o)] = o;
    for (int i = n - 1; i > 0; --i) {
      const size_t k = rng.NextBounded(static_cast<std::uint64_t>(i) + 1);
      std::swap(order[static_cast<size_t>(i)], order[k]);
    }
    EXPECT_GT(cursor->Optimistic(placement).elapsed_ms, 0);
    for (int o : order) {
      EXPECT_LE(cursor->Optimistic(placement).elapsed_ms, score)
          << "before object " << o;
      cursor->Assign(o, placement);
    }
    EXPECT_EQ(Bits(cursor->Optimistic(placement).elapsed_ms), Bits(score));
  }
  EXPECT_GT(positive_floors, 0);
}

TEST(DssScaledFloorTest, FloorsLowerBoundTheScaledRePrice) {
  for (bool box2 : {false, true}) {
    for (double concurrency : {1.0, 30.0}) {
      SCOPED_TRACE(std::string(box2 ? "box 2" : "box 1") + " concurrency " +
                   std::to_string(concurrency));
      ExpectScaledFloorsAdmissible(box2, concurrency);
    }
  }
}

TEST(RepeatSequenceTest, TemplateMajorOrder) {
  const std::vector<int> seq = RepeatSequence(3, 2);
  EXPECT_EQ(seq, (std::vector<int>{0, 0, 1, 1, 2, 2}));
}

TEST(TpchTemplatesTest, TwentyTwoNamedTemplates) {
  const auto qs = MakeTpchTemplates();
  ASSERT_EQ(qs.size(), 22u);
  EXPECT_EQ(qs[0].name, "Q1");
  EXPECT_EQ(qs[21].name, "Q22");
  for (const QuerySpec& q : qs) {
    EXPECT_EQ(q.joins.size() + 1, q.relations.size()) << q.name;
  }
}

TEST(TpchTemplatesTest, ModifiedTemplatesAreKeySargable) {
  for (const QuerySpec& q : MakeModifiedTpchTemplates()) {
    EXPECT_TRUE(q.relations[0].index_sargable) << q.name;
    EXPECT_LT(q.relations[0].selectivity, 0.01) << q.name;
  }
}

}  // namespace
}  // namespace dot
