// CompiledTemplate == Planner::PlanQuery, bit for bit: time_ms, io_ms,
// cpu_ms, io_by_object, num_joins and num_index_nl_joins, on random
// placements over the TPC-H original and modified templates and the
// CH-benCH templates, on Box 1 and Box 2, at concurrency 1 and 300, with
// and without a temp object and a small work_mem (hash and sort spills).
// The optimistic column is checked against PlanQuery on a box that appends
// the min-anchor device as an extra class.

#include "query/compiled_template.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "catalog/chbench.h"
#include "catalog/tpcc_schema.h"
#include "catalog/tpch_schema.h"
#include "common/rng.h"
#include "query/planner.h"
#include "storage/standard_catalog.h"
#include "workload/tpch_queries.h"

namespace dot {
namespace {

std::uint64_t Bits(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

enum class TemplateSet { kTpch, kTpchModified, kChbench };

struct Case {
  TemplateSet set;
  bool box2;
  double concurrency;
  bool spills;
};

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  const char* const kSetNames[] = {"Tpch", "TpchModified", "Chbench"};
  std::string name = kSetNames[static_cast<int>(c.set)];
  name += c.box2 ? "_Box2" : "_Box1";
  name += c.concurrency > 1 ? "_C300" : "_C1";
  name += c.spills ? "_Spills" : "_NoSpills";
  return name;
}

/// One schema + template set + box + planner config.
struct Instance {
  Schema schema;
  BoxConfig box;
  std::vector<QuerySpec> templates;
  PlannerConfig config;

  explicit Instance(const Case& c) {
    if (c.set == TemplateSet::kChbench) {
      schema = MakeTpccSchema(300);
      templates = FilterTemplatesToSchema(MakeChbenchTemplates(), schema);
    } else {
      schema = MakeTpchSchema(20.0);
      templates = c.set == TemplateSet::kTpch ? MakeTpchTemplates()
                                              : MakeModifiedTpchTemplates();
    }
    box = c.box2 ? MakeBox2() : MakeBox1();
    config.concurrency = c.concurrency;
    if (c.spills) {
      config.temp_object_id =
          schema.AddAuxiliary("temp", ObjectKind::kTempSpace, 50.0);
      config.work_mem_gb = 0.01;
    }
  }

  std::vector<int> RandomPlacement(Rng& rng, int num_classes) const {
    std::vector<int> p(static_cast<size_t>(schema.NumObjects()));
    for (int& cls : p) {
      cls = static_cast<int>(
          rng.NextBounded(static_cast<std::uint64_t>(num_classes)));
    }
    return p;
  }
};

/// `box` plus one class whose anchors are the per-type minima over its
/// classes — the device the optimistic column prices.
BoxConfig WithMinAnchorClass(const BoxConfig& box) {
  std::array<LatencyAnchors, kNumIoTypes> min_anchors{};
  for (int i = 0; i < kNumIoTypes; ++i) {
    const IoType type = static_cast<IoType>(i);
    LatencyAnchors a = box.classes[0].device().anchors(type);
    for (const StorageClass& sc : box.classes) {
      a.at_c1_ms = std::min(a.at_c1_ms, sc.device().anchors(type).at_c1_ms);
      a.at_c300_ms =
          std::min(a.at_c300_ms, sc.device().anchors(type).at_c300_ms);
    }
    min_anchors[static_cast<size_t>(i)] = a;
  }
  BoxConfig bound = box;
  bound.classes.push_back(StorageClass(
      "min-anchors", DeviceModel("min-anchors", min_anchors), 1.0, 1.0));
  return bound;
}

class CompiledTemplateTest : public ::testing::TestWithParam<Case> {};

TEST_P(CompiledTemplateTest, MatchesPlanQueryBitForBit) {
  const Instance s(GetParam());
  const Planner planner(&s.schema, &s.box, s.config);
  const std::vector<CompiledTemplate> compiled =
      CompiledTemplate::Compile(s.schema, s.box, s.config, s.templates);
  Rng rng(0xc0de + static_cast<std::uint64_t>(s.box.NumClasses()));
  const size_t n = static_cast<size_t>(s.schema.NumObjects());
  std::vector<IoVector> io(n);
  int plans = 0;
  int inlj_plans = 0;
  int spilling_plans = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const std::vector<int> placement =
        s.RandomPlacement(rng, s.box.NumClasses());
    for (size_t t = 0; t < s.templates.size(); ++t) {
      const Plan plan = planner.PlanQuery(s.templates[t], placement);
      std::fill(io.begin(), io.end(), IoVector{});
      const CompiledTemplate::Result r =
          compiled[t].Run(placement.data(), io.data());
      const std::string& name = s.templates[t].name;
      ASSERT_EQ(Bits(r.time_ms), Bits(plan.time_ms)) << name;
      ASSERT_EQ(Bits(r.io_ms), Bits(plan.io_ms)) << name;
      ASSERT_EQ(Bits(r.cpu_ms), Bits(plan.cpu_ms)) << name;
      ASSERT_EQ(r.num_joins, plan.num_joins) << name;
      ASSERT_EQ(r.num_index_nl_joins, plan.num_index_nl_joins) << name;
      for (size_t o = 0; o < n; ++o) {
        for (int k = 0; k < kNumIoTypes; ++k) {
          ASSERT_EQ(Bits(io[o].v[static_cast<size_t>(k)]),
                    Bits(plan.io_by_object[o].v[static_cast<size_t>(k)]))
              << name << " object " << o << " io type " << k;
        }
      }
      // Without an io map the totals are the same.
      ASSERT_EQ(Bits(compiled[t].Run(placement.data()).time_ms),
                Bits(plan.time_ms))
          << name;
      ++plans;
      if (plan.num_index_nl_joins > 0) ++inlj_plans;
      if (s.config.temp_object_id >= 0 &&
          !plan.io_by_object[static_cast<size_t>(s.config.temp_object_id)]
               .IsZero()) {
        ++spilling_plans;
      }
    }
  }
  // The sweep exercises both join methods (CH-benCH hashes every join at
  // concurrency 1) and, with a temp object, spills.
  if (GetParam().set != TemplateSet::kChbench || s.config.concurrency > 1) {
    EXPECT_GT(inlj_plans, 0);
  }
  EXPECT_LT(inlj_plans, plans);
  if (s.config.temp_object_id >= 0) {
    EXPECT_GT(spilling_plans, 0);
  }
}

TEST_P(CompiledTemplateTest, OptimisticColumnMatchesMinAnchorBox) {
  const Instance s(GetParam());
  const BoxConfig bound_box = WithMinAnchorClass(s.box);
  const Planner bound_planner(&s.schema, &bound_box, s.config);
  Rng rng(0xb0b + static_cast<std::uint64_t>(s.box.NumClasses()));
  const std::vector<CompiledTemplate> compiled =
      CompiledTemplate::Compile(s.schema, s.box, s.config, s.templates);
  for (size_t t = 0; t < s.templates.size(); ++t) {
    const QuerySpec& q = s.templates[t];
    ASSERT_EQ(compiled[t].optimistic_class(), s.box.NumClasses());
    // All-optimistic, then random mixes of real and optimistic classes.
    std::vector<int> placement(static_cast<size_t>(s.schema.NumObjects()),
                               compiled[t].optimistic_class());
    for (int trial = 0; trial < 20; ++trial) {
      ASSERT_EQ(Bits(compiled[t].Run(placement.data()).time_ms),
                Bits(bound_planner.PlanQuery(q, placement).time_ms))
          << q.name;
      placement = s.RandomPlacement(rng, bound_box.NumClasses());
    }
  }
}

TEST_P(CompiledTemplateTest, FootprintIsTablesIndexesAndTemp) {
  const Instance s(GetParam());
  const std::vector<CompiledTemplate> compiled =
      CompiledTemplate::Compile(s.schema, s.box, s.config, s.templates);
  for (size_t t = 0; t < s.templates.size(); ++t) {
    const QuerySpec& q = s.templates[t];
    std::vector<int> expected;
    for (const RelationAccess& ra : q.relations) {
      const int table = s.schema.FindObject(ra.table);
      expected.push_back(table);
      if (s.schema.PrimaryIndexOf(table) >= 0) {
        expected.push_back(s.schema.PrimaryIndexOf(table));
      }
    }
    if (s.config.temp_object_id >= 0) {
      expected.push_back(s.config.temp_object_id);
    }
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    EXPECT_EQ(compiled[t].footprint(), expected) << q.name;
  }
}

std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (TemplateSet set : {TemplateSet::kTpch, TemplateSet::kTpchModified,
                          TemplateSet::kChbench}) {
    for (bool box2 : {false, true}) {
      for (double concurrency : {1.0, 300.0}) {
        for (bool spills : {false, true}) {
          cases.push_back(Case{set, box2, concurrency, spills});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllSets, CompiledTemplateTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

}  // namespace
}  // namespace dot
