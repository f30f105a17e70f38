// Validation of untrusted trace input (workload/trace.h, advisor/feed.h):
// ValidateTraceSpec and FeedPlayer::Play return InvalidArgument naming the
// offending window instead of CHECK-crashing, prior events stay delivered,
// and the virtual clock only advances over delivered events.

#include "workload/trace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "advisor/feed.h"
#include "catalog/tpch_schema.h"
#include "storage/standard_catalog.h"
#include "workload/dss_workload.h"
#include "workload/tpch_queries.h"

namespace dot {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

class TraceSpecTest : public ::testing::Test {
 protected:
  TraceSpecTest()
      : schema_(MakeTpchEsSubsetSchema(20.0)),
        box_(MakeBox1()),
        workload_("TPC-H-ES", &schema_, &box_, MakeTpchSubsetTemplates(),
                  RepeatSequence(11, 3), PlannerConfig{}) {}

  /// A one-window spec that validates clean; tests break one field each.
  WorkloadTraceSpec ValidSpec() const {
    WorkloadTraceSpec spec;
    TraceWindow window;
    window.workload = &workload_;
    window.duration_hours = 2.0;
    spec.windows.push_back(window);
    return spec;
  }

  Schema schema_;
  BoxConfig box_;
  DssWorkloadModel workload_;
};

TEST_F(TraceSpecTest, AcceptsAWellFormedSpec) {
  WorkloadTraceSpec spec = ValidSpec();
  spec.windows.push_back(spec.windows[0]);
  spec.windows[1].io_scale = {1.5, 0.5};
  spec.count_noise_cv = 0.1;
  EXPECT_TRUE(ValidateTraceSpec(spec).ok());
}

TEST_F(TraceSpecTest, RejectsAnEmptySpec) {
  const Status s = ValidateTraceSpec(WorkloadTraceSpec{});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("no windows"), std::string::npos);
}

TEST_F(TraceSpecTest, RejectsAWindowWithoutAWorkload) {
  WorkloadTraceSpec spec = ValidSpec();
  spec.windows.push_back(spec.windows[0]);
  spec.windows[1].workload = nullptr;
  const Status s = ValidateTraceSpec(spec);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // The error names the offending window, not just "bad spec".
  EXPECT_NE(s.message().find("window 1"), std::string::npos);
}

TEST_F(TraceSpecTest, RejectsNonPositiveAndNonFiniteDurations) {
  for (double bad : {0.0, -1.0, kNan, kInf}) {
    WorkloadTraceSpec spec = ValidSpec();
    spec.windows[0].duration_hours = bad;
    const Status s = ValidateTraceSpec(spec);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(s.message().find("duration"), std::string::npos) << bad;
  }
}

TEST_F(TraceSpecTest, RejectsNegativeAndNonFiniteIoScales) {
  for (double bad : {-0.5, kNan, kInf}) {
    WorkloadTraceSpec spec = ValidSpec();
    spec.windows[0].io_scale = {1.0, bad};
    const Status s = ValidateTraceSpec(spec);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(s.message().find("io_scale"), std::string::npos) << bad;
  }
}

TEST_F(TraceSpecTest, RejectsNegativeObservationNoise) {
  WorkloadTraceSpec spec = ValidSpec();
  spec.count_noise_cv = -0.1;
  EXPECT_EQ(ValidateTraceSpec(spec).code(), StatusCode::kInvalidArgument);
}

// --- FeedPlayer: malformed events from an untrusted feed ----------------

/// Hand-built event vector — the "live monitoring pipe" stand-in that can
/// emit whatever a broken producer might.
class VectorFeed : public TraceFeed {
 public:
  explicit VectorFeed(std::vector<TraceEvent> events)
      : events_(std::move(events)) {}

  bool Next(TraceEvent* event) override {
    if (next_ >= events_.size()) return false;
    *event = events_[next_++];
    return true;
  }

 private:
  std::vector<TraceEvent> events_;
  size_t next_ = 0;
};

/// The object count of every GoodEvent's I/O map.
constexpr size_t kGoodObjects = 2;

TraceEvent GoodEvent(int window, double start_hours) {
  TraceEvent event;
  event.window = window;
  event.start_hours = start_hours;
  event.duration_hours = 1.0;
  event.io_by_object = ObjectIoMap(kGoodObjects);
  event.io_by_object[0][IoType::kSeqRead] = 100.0;
  event.io_by_object[1][IoType::kRandRead] = 50.0;
  return event;
}

TEST(FeedPlayerTest, DrainsAWellFormedFeedAndAdvancesTheClock) {
  VectorFeed feed({GoodEvent(0, 0.0), GoodEvent(1, 1.0), GoodEvent(2, 2.0)});
  FeedPlayer player(&feed, kGoodObjects);
  int seen = 0;
  int delivered = -1;
  const Status s = player.Play(
      [&](const TraceEvent& event) {
        EXPECT_EQ(event.window, seen);
        ++seen;
      },
      &delivered);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(seen, 3);
  EXPECT_EQ(delivered, 3);
  EXPECT_DOUBLE_EQ(player.clock_hours(), 3.0);
}

TEST(FeedPlayerTest, StopsOnANonMonotoneStartAndKeepsPriorEvents) {
  // Window 2 starts before window 1 ended: the drain stops there, but the
  // two events already observed stay delivered and the clock reflects them.
  std::vector<TraceEvent> events{GoodEvent(0, 0.0), GoodEvent(1, 1.0),
                                 GoodEvent(2, 0.25)};
  VectorFeed feed(std::move(events));
  FeedPlayer player(&feed, kGoodObjects);
  int seen = 0;
  int delivered = -1;
  const Status s = player.Play([&](const TraceEvent&) { ++seen; },
                               &delivered);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("trace window 2"), std::string::npos);
  EXPECT_NE(s.message().find("virtual-time order"), std::string::npos);
  EXPECT_EQ(seen, 2);
  EXPECT_EQ(delivered, 2);
  EXPECT_DOUBLE_EQ(player.clock_hours(), 2.0);
}

TEST(FeedPlayerTest, RejectsNonFiniteStartTimes) {
  for (double bad : {kNan, kInf}) {
    TraceEvent event = GoodEvent(0, 0.0);
    event.start_hours = bad;
    VectorFeed feed({event});
    FeedPlayer player(&feed, kGoodObjects);
    const Status s = player.Play([](const TraceEvent&) {});
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(FeedPlayerTest, RejectsNonPositiveDurations) {
  for (double bad : {0.0, -2.0, kNan}) {
    TraceEvent event = GoodEvent(7, 0.0);
    event.duration_hours = bad;
    VectorFeed feed({event});
    FeedPlayer player(&feed, kGoodObjects);
    int delivered = -1;
    const Status s = player.Play([](const TraceEvent&) {}, &delivered);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(s.message().find("trace window 7"), std::string::npos);
    EXPECT_NE(s.message().find("duration"), std::string::npos);
    EXPECT_EQ(delivered, 0);
  }
}

TEST(FeedPlayerTest, RejectsAnEmptyIoMap) {
  TraceEvent event = GoodEvent(3, 0.0);
  event.io_by_object.clear();
  VectorFeed feed({event});
  FeedPlayer player(&feed, kGoodObjects);
  const Status s = player.Play([](const TraceEvent&) {});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("empty window"), std::string::npos);
}

TEST(FeedPlayerTest, RejectsAnIoMapOfTheWrongObjectCount) {
  // The player refuses a window that observes more or fewer objects than
  // it was told.
  for (size_t objects : {1u, 3u}) {
    TraceEvent event = GoodEvent(4, 1.0);
    event.io_by_object.resize(objects);
    VectorFeed feed({GoodEvent(0, 0.0), event});
    FeedPlayer player(&feed, kGoodObjects);
    int delivered = -1;
    const Status s = player.Play([](const TraceEvent&) {}, &delivered);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << objects;
    EXPECT_NE(s.message().find("trace window 4: observes"),
              std::string::npos)
        << s.ToString();
    EXPECT_EQ(delivered, 1);
  }
}

TEST(FeedPlayerTest, RejectsNegativeAndNonFiniteCounts) {
  for (double bad : {-1.0, kNan, kInf}) {
    TraceEvent event = GoodEvent(5, 0.0);
    event.io_by_object[1][IoType::kSeqWrite] = bad;
    VectorFeed feed({event});
    FeedPlayer player(&feed, kGoodObjects);
    const Status s = player.Play([](const TraceEvent&) {});
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(s.message().find("I/O count"), std::string::npos) << bad;
  }
}

TEST(FeedPlayerTest, BackToBackWindowsWithinToleranceAreInOrder) {
  // A follower that starts exactly at the predecessor's end (or a hair
  // before, within the documented 1e-9 slack) is legitimate timing, not a
  // violation.
  VectorFeed feed({GoodEvent(0, 0.0), GoodEvent(1, 1.0 - 1e-12)});
  FeedPlayer player(&feed, kGoodObjects);
  EXPECT_TRUE(player.Play([](const TraceEvent&) {}).ok());
}

}  // namespace
}  // namespace dot
