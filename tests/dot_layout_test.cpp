#include "dot/layout.h"

#include <gtest/gtest.h>

#include <vector>

#include "catalog/tpch_schema.h"
#include "storage/standard_catalog.h"

namespace dot {
namespace {

class LayoutTest : public ::testing::Test {
 protected:
  LayoutTest() : schema_(MakeTpchSchema(20.0)), box_(MakeBox1()) {}
  Schema schema_;
  BoxConfig box_;
};

TEST_F(LayoutTest, UniformPlacesEverythingOnOneClass) {
  Layout l = Layout::Uniform(&schema_, &box_, 1);
  for (const DbObject& o : schema_.objects()) {
    EXPECT_EQ(l.ClassOf(o.id), 1);
  }
}

TEST_F(LayoutTest, SpaceByClassSumsToTotal) {
  Layout l = Layout::Uniform(&schema_, &box_, 0);
  SpaceUsage used = l.SpaceByClass();
  double total = 0;
  for (double g : used) total += g;
  EXPECT_NEAR(total, schema_.TotalSizeGb(), 1e-9);
  EXPECT_NEAR(used[0], schema_.TotalSizeGb(), 1e-9);
  EXPECT_DOUBLE_EQ(used[1], 0);
}

TEST_F(LayoutTest, CapacityCheckFlagsOverflow) {
  // Everything (~27 GB) fits the 80 GB H-SSD…
  Layout ok = Layout::Uniform(&schema_, &box_, 2);
  EXPECT_TRUE(ok.CheckCapacity().ok());
  // …but not once the cap drops to 20 GB.
  BoxConfig capped = box_;
  capped.classes[2].set_capacity_gb(20.0);
  Layout over = Layout::Uniform(&schema_, &capped, 2);
  const Status s = over.CheckCapacity();
  EXPECT_EQ(s.code(), StatusCode::kCapacityExceeded);
  EXPECT_NE(s.message().find("H-SSD"), std::string::npos);
}

TEST_F(LayoutTest, CapacityIsStrictInequality) {
  // §2.2 uses a strict Σ s_i < c_j.
  Schema s;
  s.AddTable("t", 1'000'000, 90);  // exactly 0.1 GB at 90% fill
  BoxConfig box = box_;
  box.classes[0].set_capacity_gb(s.TotalSizeGb());
  Layout l = Layout::Uniform(&s, &box, 0);
  EXPECT_FALSE(l.CheckCapacity().ok());
}

TEST_F(LayoutTest, CostMatchesManualComputation) {
  Layout l = Layout::Uniform(&schema_, &box_, 2);
  const double expected =
      schema_.TotalSizeGb() * box_.classes[2].price_cents_per_gb_hour();
  EXPECT_NEAR(l.CostCentsPerHour(CostModelSpec{}), expected, 1e-9);
}

TEST_F(LayoutTest, CheaperClassCheaperLayout) {
  const double on_hdd_raid = Layout::Uniform(&schema_, &box_, 0)
                                 .CostCentsPerHour(CostModelSpec{});
  const double on_hssd = Layout::Uniform(&schema_, &box_, 2)
                             .CostCentsPerHour(CostModelSpec{});
  EXPECT_LT(on_hdd_raid, on_hssd * 0.01);
}

TEST_F(LayoutTest, ToStringListsObjectsUnderTheirClass) {
  std::vector<int> placement(static_cast<size_t>(schema_.NumObjects()), 2);
  placement[static_cast<size_t>(schema_.FindObject("lineitem"))] = 0;
  const std::string s = Layout(&schema_, &box_, placement).ToString();
  // lineitem appears on the HDD RAID 0 line.
  const size_t hdd_pos = s.find("HDD RAID 0");
  const size_t li_pos = s.find("lineitem");
  const size_t lssd_pos = s.find("L-SSD");
  ASSERT_NE(hdd_pos, std::string::npos);
  EXPECT_GT(li_pos, hdd_pos);
  EXPECT_LT(li_pos, lssd_pos);
  EXPECT_NE(s.find("(empty)"), std::string::npos);  // L-SSD is empty
}

TEST_F(LayoutTest, EqualityComparesPlacements) {
  Layout a = Layout::Uniform(&schema_, &box_, 1);
  Layout b = Layout::Uniform(&schema_, &box_, 1);
  Layout c = Layout::Uniform(&schema_, &box_, 2);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST_F(LayoutTest, InvalidPlacementAborts) {
  std::vector<int> bad(static_cast<size_t>(schema_.NumObjects()), 7);
  EXPECT_DEATH(Layout(&schema_, &box_, bad), "invalid storage class");
  EXPECT_DEATH(Layout(&schema_, &box_, {0}), "every object");
}

}  // namespace
}  // namespace dot
