// A WorkloadTraceSpec read as an epoch schedule (workload/trace.h): the
// chaining Add builds the windows the epoch planner provisions across
// (dot/reprovision.h), and ValidateTraceSpec rejects schedules it cannot
// plan.

#include "workload/trace.h"

#include <gtest/gtest.h>

#include "catalog/tpch_schema.h"
#include "storage/standard_catalog.h"
#include "workload/dss_workload.h"
#include "workload/tpch_queries.h"

namespace dot {
namespace {

class EpochScheduleTest : public ::testing::Test {
 protected:
  EpochScheduleTest()
      : schema_(MakeTpchSchema(1.0)),
        box_(MakeBox1()),
        workload_("TPC-H", &schema_, &box_, MakeTpchTemplates(),
                  RepeatSequence(22, 1), PlannerConfig{}) {}

  Schema schema_;
  BoxConfig box_;
  DssWorkloadModel workload_;
};

TEST_F(EpochScheduleTest, AddChainsAndTotalsDurations) {
  WorkloadTraceSpec schedule;
  schedule.Add(&workload_, 8.0, "day").Add(&workload_, 16.0, "night");
  ASSERT_EQ(schedule.windows.size(), 2u);
  EXPECT_DOUBLE_EQ(schedule.TotalHours(), 24.0);
  EXPECT_EQ(schedule.windows[0].label, "day");
  EXPECT_EQ(schedule.windows[1].label, "night");
  EXPECT_EQ(schedule.windows[0].workload, &workload_);
  EXPECT_TRUE(schedule.windows[0].io_scale.empty());
  EXPECT_EQ(schedule.windows[0].profiles, nullptr);
  EXPECT_TRUE(ValidateTraceSpec(schedule).ok());
}

TEST_F(EpochScheduleTest, ValidationRejectsDegenerateSchedules) {
  WorkloadTraceSpec empty;
  EXPECT_EQ(ValidateTraceSpec(empty).code(), StatusCode::kInvalidArgument);

  WorkloadTraceSpec no_workload;
  no_workload.Add(nullptr, 1.0);
  EXPECT_EQ(ValidateTraceSpec(no_workload).code(),
            StatusCode::kInvalidArgument);

  WorkloadTraceSpec zero_duration;
  zero_duration.Add(&workload_, 0.0);
  EXPECT_EQ(ValidateTraceSpec(zero_duration).code(),
            StatusCode::kInvalidArgument);

  WorkloadTraceSpec negative;
  negative.Add(&workload_, -2.0);
  EXPECT_EQ(ValidateTraceSpec(negative).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dot
