// An epoch plan replayed as a layout track (exec/trace_replay.h): the
// noiseless replay reproduces the plan's objective bit for bit, including
// the epoch-0 migration from the current layout; noise jitters it
// reproducibly, per window; and malformed tracks, placements and io_scale
// vectors, executor noise and migration weights come back as
// InvalidArgument instead of aborting. The trace recorder draws its
// observation noise in a pinned order and returns a status for a spec,
// io_scale or executor noise it cannot record.

#include "exec/trace_replay.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "catalog/tpch_schema.h"
#include "common/rng.h"
#include "dot/reprovision.h"
#include "storage/standard_catalog.h"
#include "workload/dss_workload.h"
#include "workload/tpch_queries.h"

namespace dot {
namespace {

/// Two-epoch drift over one small schema: epoch 0 scans t0, epoch 1 point-
/// reads everything.
class ReplayTest : public ::testing::Test {
 protected:
  ReplayTest() : box_(MakeBox1()) {
    schema_.AddTable("t0", 3e6, 120);
    schema_.AddIndex("t0_pk", 0, 8);
    schema_.AddTable("t1", 1e6, 80);
    schema_.AddIndex("t1_pk", 2, 8);
    for (int e = 0; e < 2; ++e) {
      std::vector<QuerySpec> templates;
      for (int i = 0; i < 2; ++i) {
        QuerySpec q;
        q.name = "q" + std::to_string(i);
        RelationAccess ra;
        ra.table = "t" + std::to_string(i);
        if (e == 0 && i == 0) {
          ra.selectivity = 1.0;
          ra.index_sargable = false;
        } else {
          ra.selectivity = 0.001;
          ra.index_sargable = true;
        }
        q.relations = {ra};
        templates.push_back(std::move(q));
      }
      workloads_.push_back(std::make_unique<DssWorkloadModel>(
          "w" + std::to_string(e), &schema_, &box_, std::move(templates),
          RepeatSequence(2, 2), PlannerConfig{}));
    }
    schedule_.Add(workloads_[0].get(), 9.0, "scan-heavy");
    schedule_.Add(workloads_[1].get(), 15.0, "point-reads");
    problem_.schema = &schema_;
    problem_.box = &box_;
    problem_.relative_sla = 0.4;
    config_.migration.transfer_price_cents_per_gb = 10.0;
    config_.migration.downtime_price_cents_per_hour = 500.0;
  }

  ReprovisionPlan MakePlan() const {
    return ReprovisionPlanner(problem_, config_).Plan(schedule_, current_);
  }

  /// The replay knobs that price a plan exactly as the planner did.
  TrackReplayConfig ReplayConfigFor(const ReprovisionPlan& plan) const {
    TrackReplayConfig replay;
    replay.cost_model = problem_.cost_model;
    replay.migration = config_.migration;
    replay.migration_weight = plan.resolved_migration_weight;
    return replay;
  }

  static std::vector<std::vector<int>> Track(const ReprovisionPlan& plan) {
    std::vector<std::vector<int>> track;
    for (const EpochPlanStep& step : plan.steps) {
      track.push_back(step.placement);
    }
    return track;
  }

  Schema schema_;
  BoxConfig box_;
  std::vector<std::unique_ptr<DssWorkloadModel>> workloads_;
  WorkloadTraceSpec schedule_;
  DotProblem problem_;
  ReprovisionConfig config_;
  const std::vector<int> current_{0, 0, 0, 0};
};

TEST_F(ReplayTest, NoiselessReplayReproducesThePlanBitForBit) {
  const ReprovisionPlan plan = MakePlan();
  ASSERT_TRUE(plan.status.ok()) << plan.status.ToString();
  // The plan leaves the all-class-0 current layout, so the epoch-0 bill is
  // a real term of the objective.
  ASSERT_GT(plan.steps[0].migration_cents, 0.0);

  TrackReplayConfig config = ReplayConfigFor(plan);
  config.exec_noise_cv = 0.0;
  const TrackReplayResult replay = ReplayLayoutTrack(
      schedule_, Track(plan), schema_, box_, config, current_);
  ASSERT_TRUE(replay.status.ok()) << replay.status.ToString();

  ASSERT_EQ(replay.windows.size(), plan.steps.size());
  for (size_t e = 0; e < plan.steps.size(); ++e) {
    EXPECT_EQ(replay.windows[e].toc_cents_per_task,
              plan.steps[e].toc_cents_per_task)
        << "epoch " << e;
    EXPECT_EQ(replay.windows[e].window_objective,
              plan.steps[e].epoch_objective)
        << "epoch " << e;
    EXPECT_EQ(replay.windows[e].migration_cents, plan.steps[e].migration_cents)
        << "epoch " << e;
  }
  EXPECT_EQ(replay.total_migration_cents, plan.total_migration_cents);
  EXPECT_EQ(replay.num_migrations, plan.num_migrations);
  // The whole estimated objective is validated by simulation, not just the
  // per-epoch terms: same kernels, same accounting order.
  EXPECT_EQ(replay.total_objective, plan.total_objective);
}

TEST_F(ReplayTest, NoisyReplayJittersButStaysNearTheEstimate) {
  const ReprovisionPlan plan = MakePlan();
  ASSERT_TRUE(plan.status.ok());

  TrackReplayConfig config = ReplayConfigFor(plan);
  config.exec_noise_cv = 0.05;
  config.seed = 17;
  const TrackReplayResult replay = ReplayLayoutTrack(
      schedule_, Track(plan), schema_, box_, config, current_);
  ASSERT_TRUE(replay.status.ok());

  EXPECT_NE(replay.total_objective, plan.total_objective);
  EXPECT_NEAR(replay.total_objective, plan.total_objective,
              0.25 * plan.total_objective);

  // Same seed => same replay; it is a simulation, not a dice roll.
  const TrackReplayResult again = ReplayLayoutTrack(
      schedule_, Track(plan), schema_, box_, config, current_);
  EXPECT_EQ(again.total_objective, replay.total_objective);
}

TEST_F(ReplayTest, WindowsDrawIndependentNoiseStreams) {
  // Two windows with the same workload and the same layout: if both
  // windows replayed the same noise stream their measurements would
  // coincide.
  WorkloadTraceSpec twice;
  twice.Add(workloads_[1].get(), 5.0).Add(workloads_[1].get(), 5.0);

  const ReprovisionPlan plan =
      ReprovisionPlanner(problem_, config_).Plan(twice);
  ASSERT_TRUE(plan.status.ok());
  ASSERT_EQ(plan.steps[0].placement, plan.steps[1].placement);

  TrackReplayConfig config = ReplayConfigFor(plan);
  config.exec_noise_cv = 0.1;
  const TrackReplayResult replay =
      ReplayLayoutTrack(twice, Track(plan), schema_, box_, config);
  ASSERT_TRUE(replay.status.ok());
  EXPECT_NE(replay.windows[0].measured.elapsed_ms,
            replay.windows[1].measured.elapsed_ms);
}

TEST_F(ReplayTest, RefusesATrackOfTheWrongLength) {
  const TrackReplayResult replay =
      ReplayLayoutTrack(schedule_, {}, schema_, box_, TrackReplayConfig{});
  EXPECT_EQ(replay.status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(replay.windows.empty());
}

TEST_F(ReplayTest, RefusesAPlacementOneObjectShort) {
  const std::vector<std::vector<int>> track{{0, 0, 0, 0}, {0, 0, 0}};
  const TrackReplayResult replay =
      ReplayLayoutTrack(schedule_, track, schema_, box_, TrackReplayConfig{});
  EXPECT_EQ(replay.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(replay.status.message().find("window 1"), std::string::npos)
      << replay.status.ToString();
}

TEST_F(ReplayTest, RefusesAPlacementNamingAClassOutsideTheBox) {
  ASSERT_EQ(box_.NumClasses(), 3);
  const std::vector<std::vector<int>> track{{0, 0, 9, 0}, {0, 0, 0, 0}};
  const TrackReplayResult replay =
      ReplayLayoutTrack(schedule_, track, schema_, box_, TrackReplayConfig{});
  EXPECT_EQ(replay.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(replay.status.message().find("window 0"), std::string::npos)
      << replay.status.ToString();
}

TEST(ReplayTpchTest, RefusesAnIoScaleOfTheWrongLength) {
  const Schema schema = MakeTpchSchema(1.0);
  const BoxConfig box = MakeBox1();
  const DssWorkloadModel tpch("TPC-H", &schema, &box, MakeTpchTemplates(),
                              RepeatSequence(22, 1), PlannerConfig{});
  WorkloadTraceSpec spec;
  spec.Add(&tpch, 1.0);
  spec.windows[0].io_scale = {1.0, 2.0};
  const std::vector<std::vector<int>> track{
      std::vector<int>(static_cast<size_t>(schema.NumObjects()), 0)};
  const TrackReplayResult replay =
      ReplayLayoutTrack(spec, track, schema, box, TrackReplayConfig{});
  EXPECT_EQ(replay.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(replay.status.message().find("io_scale"), std::string::npos)
      << replay.status.ToString();
}

TEST_F(ReplayTest, RecordingDrawsNoiseInWindowObjectClassOrder) {
  // The recorder's reference: one executor run per window at seed + w,
  // then one lognormal noise stream over the counts in window, object,
  // request-class order.
  WorkloadTraceSpec spec = schedule_;
  spec.count_noise_cv = 0.2;
  spec.windows[1].io_scale = {1.5, 0.5, 1.0, 2.0};
  const std::vector<int> placement{0, 1, 2, 0};
  const double exec_noise_cv = 0.1;

  Rng rng(spec.seed);
  const double sigma2 = std::log(1.0 + 0.2 * 0.2);
  std::vector<TraceEvent> expected;
  double clock_hours = 0.0;
  for (size_t w = 0; w < spec.windows.size(); ++w) {
    ExecutorConfig cfg;
    cfg.noise_cv = exec_noise_cv;
    cfg.io_scale = spec.windows[w].io_scale;
    cfg.seed = spec.seed + w;
    const PerfEstimate measured =
        Executor(spec.windows[w].workload, cfg).Run(placement);
    TraceEvent event;
    event.start_hours = clock_hours;
    event.measured_tasks_per_hour = measured.tasks_per_hour;
    event.io_by_object = measured.io_by_object;
    for (IoVector& io : event.io_by_object) {
      for (int r = 0; r < kNumIoTypes; ++r) {
        io[static_cast<IoType>(r)] *= std::exp(
            -0.5 * sigma2 + std::sqrt(sigma2) * rng.NextGaussian());
      }
    }
    expected.push_back(std::move(event));
    clock_hours += spec.windows[w].duration_hours;
  }

  const WorkloadTrace trace =
      RecordTraceWithExecutor(spec, placement, exec_noise_cv);
  ASSERT_TRUE(trace.status.ok()) << trace.status.ToString();
  ASSERT_EQ(trace.events.size(), expected.size());
  for (size_t w = 0; w < expected.size(); ++w) {
    const TraceEvent& got = trace.events[w];
    EXPECT_EQ(got.window, static_cast<int>(w));
    EXPECT_EQ(got.label, spec.windows[w].label);
    EXPECT_EQ(got.duration_hours, spec.windows[w].duration_hours);
    EXPECT_EQ(got.start_hours, expected[w].start_hours);
    EXPECT_EQ(got.measured_tasks_per_hour,
              expected[w].measured_tasks_per_hour);
    ASSERT_EQ(got.io_by_object.size(), expected[w].io_by_object.size());
    for (size_t o = 0; o < got.io_by_object.size(); ++o) {
      for (int r = 0; r < kNumIoTypes; ++r) {
        EXPECT_EQ(got.io_by_object[o][static_cast<IoType>(r)],
                  expected[w].io_by_object[o][static_cast<IoType>(r)])
            << "window " << w << " object " << o << " class " << r;
      }
    }
  }
}

TEST_F(ReplayTest, RecordingRefusesASpecValidateTraceSpecRejects) {
  const std::vector<int> placement{0, 0, 0, 0};
  WorkloadTraceSpec no_workload = schedule_;
  no_workload.windows[1].workload = nullptr;
  WorkloadTraceSpec negative_noise = schedule_;
  negative_noise.count_noise_cv = -0.1;
  WorkloadTraceSpec zero_duration = schedule_;
  zero_duration.windows[0].duration_hours = 0.0;
  for (const WorkloadTraceSpec& spec :
       {WorkloadTraceSpec{}, no_workload, negative_noise, zero_duration}) {
    const WorkloadTrace trace = RecordTraceWithExecutor(spec, placement);
    EXPECT_EQ(trace.status, ValidateTraceSpec(spec));
    EXPECT_EQ(trace.status.code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(trace.events.empty());
  }
}

TEST(ReplayTpchTest, RecordingRefusesAnIoScaleOfTheWrongLength) {
  // The recorder returns a status where it used to abort in the workload
  // model ("io_scale arity mismatch").
  const Schema schema = MakeTpchSchema(1.0);
  const BoxConfig box = MakeBox1();
  const DssWorkloadModel tpch("TPC-H", &schema, &box, MakeTpchTemplates(),
                              RepeatSequence(22, 1), PlannerConfig{});
  WorkloadTraceSpec spec;
  spec.Add(&tpch, 1.0);
  spec.Add(&tpch, 1.0);
  spec.windows[1].io_scale = {1.0, 2.0};
  const std::vector<int> placement(static_cast<size_t>(schema.NumObjects()),
                                   0);
  const WorkloadTrace trace = RecordTraceWithExecutor(spec, placement);
  EXPECT_EQ(trace.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(trace.status.message().find("window 1 io_scale"),
            std::string::npos)
      << trace.status.ToString();
  EXPECT_TRUE(trace.events.empty());

  // The right length records both windows.
  spec.windows[1].io_scale.assign(static_cast<size_t>(schema.NumObjects()),
                                  2.0);
  const WorkloadTrace ok = RecordTraceWithExecutor(spec, placement);
  ASSERT_TRUE(ok.status.ok()) << ok.status.ToString();
  EXPECT_EQ(ok.events.size(), 2u);
}

TEST(ReplayTpchTest, RecordingRefusesAPlacementThatDoesNotFitAWindow) {
  // The recorder returns a status where the workload model used to abort
  // ("placement arity mismatch", "placement holds invalid class").
  const Schema schema = MakeTpchSchema(1.0);
  const BoxConfig box = MakeBox1();
  const DssWorkloadModel tpch("TPC-H", &schema, &box, MakeTpchTemplates(),
                              RepeatSequence(22, 1), PlannerConfig{});
  WorkloadTraceSpec spec;
  spec.Add(&tpch, 1.0);
  spec.Add(&tpch, 1.0);
  const size_t n = static_cast<size_t>(schema.NumObjects());
  std::vector<int> negative(n, 0);
  negative[3] = -1;
  std::vector<int> past_the_box(n, 0);
  past_the_box[3] = box.NumClasses();
  for (const std::vector<int>& bad :
       {std::vector<int>(n - 1, 0), std::vector<int>(n + 1, 0), negative,
        past_the_box}) {
    const WorkloadTrace trace = RecordTraceWithExecutor(spec, bad);
    EXPECT_EQ(trace.status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(trace.status.message().find("window 0 placement"),
              std::string::npos)
        << trace.status.ToString();
    EXPECT_TRUE(trace.events.empty());
  }
}

TEST_F(ReplayTest, RefusesAnInvalidCurrentLayout) {
  const std::vector<std::vector<int>> track(2, std::vector<int>{0, 0, 0, 0});
  for (const std::vector<int>& bad :
       {std::vector<int>{0, 0, 0}, std::vector<int>{0, -1, 0, 0},
        std::vector<int>{0, 0, 0, 3}}) {
    const TrackReplayResult replay = ReplayLayoutTrack(
        schedule_, track, schema_, box_, TrackReplayConfig{}, bad);
    EXPECT_EQ(replay.status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(replay.status.message().find("current layout"),
              std::string::npos)
        << replay.status.ToString();
  }
}

TEST_F(ReplayTest, RecordingRefusesANegativeOrNonFiniteExecutorNoise) {
  // The Executor constructor used to abort on these.
  const std::vector<int> placement{0, 0, 0, 0};
  for (double cv : {-0.1, std::numeric_limits<double>::quiet_NaN(),
                    std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE("exec_noise_cv " + std::to_string(cv));
    const WorkloadTrace trace =
        RecordTraceWithExecutor(schedule_, placement, cv);
    EXPECT_EQ(trace.status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(trace.status.message().find("noise_cv"), std::string::npos)
        << trace.status.ToString();
    EXPECT_TRUE(trace.events.empty());
  }
}

TEST_F(ReplayTest, RefusesANegativeOrNonFiniteExecutorNoise) {
  const std::vector<std::vector<int>> track(2, std::vector<int>{0, 0, 0, 0});
  for (double cv : {-0.1, std::numeric_limits<double>::quiet_NaN(),
                    std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE("exec_noise_cv " + std::to_string(cv));
    TrackReplayConfig config;
    config.exec_noise_cv = cv;
    const TrackReplayResult replay =
        ReplayLayoutTrack(schedule_, track, schema_, box_, config);
    EXPECT_EQ(replay.status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(replay.status.message().find("noise_cv"), std::string::npos)
        << replay.status.ToString();
    EXPECT_TRUE(replay.windows.empty());
  }
}

TEST_F(ReplayTest, RefusesAMigrationWeightThatIsNotFiniteAndNonNegative) {
  // A NaN weight used to come back OK with a NaN total_objective; the
  // replay has no auto sentinel, so kAutoMigrationWeight is refused too.
  const std::vector<std::vector<int>> track(2, std::vector<int>{0, 0, 0, 0});
  for (double weight : {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(), -0.5,
                        kAutoMigrationWeight}) {
    SCOPED_TRACE("migration_weight " + std::to_string(weight));
    TrackReplayConfig config;
    config.migration_weight = weight;
    const TrackReplayResult replay =
        ReplayLayoutTrack(schedule_, track, schema_, box_, config);
    EXPECT_EQ(replay.status.code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(replay.windows.empty());
  }
  TrackReplayConfig zero;
  zero.migration_weight = 0.0;
  EXPECT_TRUE(
      ReplayLayoutTrack(schedule_, track, schema_, box_, zero).status.ok());
}

}  // namespace
}  // namespace dot
