// Integration tests of the always-on advisor loop (advisor/advisor.h):
//
//   * a noiseless trace whose profile matches the incumbent plan's model
//     yields zero re-plans and reproduces the single-shot dot::Solve
//     result bit for bit — the advisor at rest IS the optimizer;
//   * a step change triggers a re-plan with bounded latency, and never
//     before the shift;
//   * the decision sequence is bit-identical at 1, 4 and all hardware
//     threads (the engine's parallelism cannot leak into decisions);
//   * randomized full-schema HTAP sessions (the reason this suite carries
//     the `slow` label) hold the structural invariants: migration counts
//     match the layout track, the realized replay reproduces the advisor's
//     causality, and every run is thread-count deterministic.

#include "advisor/advisor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/tpcc_schema.h"
#include "catalog/tpch_schema.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "exec/trace_replay.h"
#include "storage/standard_catalog.h"
#include "workload/dss_workload.h"
#include "workload/htap_workload.h"
#include "workload/tpch_queries.h"

namespace dot {
namespace {

/// Everything the advisor decided, as one comparable string: %a hex floats
/// so "identical" means bit-identical, not round-tripped-through-decimal.
std::string DecisionFingerprint(const AdvisorRun& run) {
  std::string fp = StrPrintf("init:%d;", run.num_replans);
  for (const AdvisorDecision& d : run.decisions) {
    fp += StrPrintf("%d:%d:%d:%a:%a:%a:%a;", d.window, d.replanned ? 1 : 0,
                    d.migrated ? 1 : 0, d.deviation, d.statistic,
                    d.incumbent_toc, d.candidate_toc);
  }
  for (const std::vector<int>& layout : run.layout_by_window) {
    for (int c : layout) fp += static_cast<char>('0' + c);
    fp += ';';
  }
  return fp;
}

/// A small TPC-H instance with a trace of `steady` windows of the base
/// model followed by `shifted` windows with 10x I/O on the lineitem group.
struct TpchSession {
  Schema schema;
  BoxConfig box;
  DssWorkloadModel workload;
  DotProblem problem;

  TpchSession()
      : schema(MakeTpchEsSubsetSchema(20.0)),
        box(MakeBox1()),
        workload("TPC-H-ES", &schema, &box, MakeTpchSubsetTemplates(),
                 RepeatSequence(11, 3), PlannerConfig{}) {
    problem.schema = &schema;
    problem.box = &box;
    problem.workload = &workload;
    problem.relative_sla = 0.5;
  }

  WorkloadTraceSpec Trace(int steady, int shifted) const {
    WorkloadTraceSpec spec;
    std::vector<double> scale(static_cast<size_t>(schema.NumObjects()), 1.0);
    scale[static_cast<size_t>(schema.FindObject("lineitem"))] = 10.0;
    for (int w = 0; w < steady + shifted; ++w) {
      TraceWindow window;
      window.workload = &workload;
      window.duration_hours = 1.0;
      if (w >= steady) window.io_scale = scale;
      window.label = w >= steady ? "shifted" : "steady";
      spec.windows.push_back(window);
    }
    return spec;
  }
};

TEST(AdvisorLoopTest, NoiselessUnchangedProfileNeverReplans) {
  TpchSession session;
  Advisor advisor(session.problem, AdvisorConfig{});
  ASSERT_TRUE(advisor.Init().ok());

  // The reference: the same problem through the single-shot facade.
  const SolveResult reference = Solve(session.problem, SolveSpec{});
  ASSERT_TRUE(reference.status.ok());
  EXPECT_EQ(advisor.incumbent(), reference.placement);
  EXPECT_EQ(advisor.incumbent_toc(), reference.toc_cents_per_task);

  const WorkloadTrace trace = RecordTraceWithExecutor(
      session.Trace(/*steady=*/24, /*shifted=*/0), advisor.incumbent());
  RecordedTraceFeed feed(&trace);
  const AdvisorRun run = advisor.Run(&feed);
  ASSERT_TRUE(run.status.ok());

  EXPECT_EQ(run.num_replans, 0);
  EXPECT_EQ(run.num_migrations, 0);
  ASSERT_EQ(run.layout_by_window.size(), 24u);
  for (const std::vector<int>& layout : run.layout_by_window) {
    EXPECT_EQ(layout, reference.placement);
  }
  // Still bitwise the facade's answer after a full quiet day.
  EXPECT_EQ(run.final_layout, reference.placement);
  EXPECT_EQ(advisor.incumbent_toc(), reference.toc_cents_per_task);
  for (const AdvisorDecision& d : run.decisions) {
    EXPECT_FALSE(d.replanned);
    EXPECT_DOUBLE_EQ(d.deviation, 0.0);
  }
}

TEST(AdvisorLoopTest, StepChangeTriggersReplanWithBoundedLatency) {
  TpchSession session;
  const int steady = 6;
  Advisor advisor(session.problem, AdvisorConfig{});
  ASSERT_TRUE(advisor.Init().ok());
  const WorkloadTrace trace = RecordTraceWithExecutor(
      session.Trace(steady, /*shifted=*/6), advisor.incumbent());
  RecordedTraceFeed feed(&trace);
  const AdvisorRun run = advisor.Run(&feed);
  ASSERT_TRUE(run.status.ok());

  ASSERT_GE(run.num_replans, 1);
  int first_replan = -1;
  for (const AdvisorDecision& d : run.decisions) {
    if (d.replanned) {
      first_replan = d.window;
      break;
    }
  }
  // Never before the shift; within three windows of it (a 10x step is
  // far beyond the default deadband).
  EXPECT_GE(first_replan, steady);
  EXPECT_LE(first_replan, steady + 2);
}

TEST(AdvisorLoopTest, DecisionSequenceIsThreadCountInvariant) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<std::string> fingerprints;
  std::vector<AdvisorRun> runs;
  for (int threads : {1, 4, hw}) {
    TpchSession session;
    session.problem.options.num_threads = threads;
    Advisor advisor(session.problem, AdvisorConfig{});
    ASSERT_TRUE(advisor.Init().ok());
    const WorkloadTrace trace = RecordTraceWithExecutor(
        session.Trace(6, 6), advisor.incumbent());
    RecordedTraceFeed feed(&trace);
    const AdvisorRun run = advisor.Run(&feed);
    ASSERT_TRUE(run.status.ok());
    fingerprints.push_back(DecisionFingerprint(run));
    runs.push_back(run);
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
  EXPECT_EQ(fingerprints[0], fingerprints[2]);

  // The re-plans' counters, summed into the run, are deterministic too
  // (all but the plan-cache pair).
  ASSERT_GE(runs[0].num_replans, 1);
  EXPECT_GT(runs[0].nodes_expanded, 0);
  for (size_t i = 1; i < runs.size(); ++i) {
    const AdvisorRun& a = runs[0];
    const AdvisorRun& b = runs[i];
    EXPECT_EQ(a.layouts_evaluated, b.layouts_evaluated) << i;
    EXPECT_EQ(a.moves_priced, b.moves_priced) << i;
    EXPECT_EQ(a.moves_gated, b.moves_gated) << i;
    EXPECT_EQ(a.nodes_expanded, b.nodes_expanded) << i;
    EXPECT_EQ(a.nodes_pruned_bound, b.nodes_pruned_bound) << i;
    EXPECT_EQ(a.nodes_pruned_infeasible, b.nodes_pruned_infeasible) << i;
    EXPECT_EQ(a.layouts_pruned, b.layouts_pruned) << i;
    EXPECT_EQ(a.warm_start_hits, b.warm_start_hits) << i;
    EXPECT_EQ(a.arena_bytes_peak, b.arena_bytes_peak) << i;
    EXPECT_EQ(a.pool_size, b.pool_size) << i;
    EXPECT_EQ(a.pool_builds, b.pool_builds) << i;
    EXPECT_EQ(a.pool_cache_hits, b.pool_cache_hits) << i;
  }
}

TEST(AdvisorLoopTest, InitRejectsANegativeMigrationWeight) {
  TpchSession session;
  AdvisorConfig config;
  config.migration_weight = -3.0;
  Advisor advisor(session.problem, config);
  EXPECT_EQ(advisor.Init().code(), StatusCode::kInvalidArgument);
}

TEST(AdvisorLoopTest, InitRejectsANanMigrationWeight) {
  TpchSession session;
  AdvisorConfig config;
  config.migration_weight = std::numeric_limits<double>::quiet_NaN();
  Advisor advisor(session.problem, config);
  EXPECT_EQ(advisor.Init().code(), StatusCode::kInvalidArgument);
}

TEST(AdvisorLoopTest, InitRejectsAStatefulReplanMethod) {
  // Rejected by the config check (kFleet not by Solve's missing-roster
  // status).
  TpchSession session;
  for (SolveMethod method : {SolveMethod::kEpochPlan, SolveMethod::kFleet}) {
    AdvisorConfig config;
    config.replan_method = method;
    Advisor advisor(session.problem, config);
    const Status st = advisor.Init();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.message().find("replan_method"), std::string::npos)
        << st.ToString();
  }
}

TEST(AdvisorLoopTest, InitRejectsANegativePaybackHorizon) {
  TpchSession session;
  AdvisorConfig config;
  config.payback_horizon_hours = -1.0;
  Advisor advisor(session.problem, config);
  EXPECT_EQ(advisor.Init().code(), StatusCode::kInvalidArgument);
}

TEST(AdvisorLoopTest, InitRejectsANegativeCooldown) {
  TpchSession session;
  AdvisorConfig config;
  config.cooldown_windows = -1;
  Advisor advisor(session.problem, config);
  EXPECT_EQ(advisor.Init().code(), StatusCode::kInvalidArgument);
}

TEST(AdvisorLoopTest, InitRejectsANegativeReplanInterval) {
  TpchSession session;
  AdvisorConfig config;
  config.replan_interval_windows = -1;
  Advisor advisor(session.problem, config);
  EXPECT_EQ(advisor.Init().code(), StatusCode::kInvalidArgument);
}

TEST(AdvisorLoopTest, InitRejectsAnEmptyPoolCap) {
  TpchSession session;
  AdvisorConfig config;
  config.max_pool = 0;
  Advisor advisor(session.problem, config);
  // Run reports the same status instead of replaying the feed.
  WorkloadTrace empty;
  RecordedTraceFeed feed(&empty);
  EXPECT_EQ(advisor.Run(&feed).status.code(), StatusCode::kInvalidArgument);
}

TEST(AdvisorLoopTest, InitRejectsANullPoolModel) {
  TpchSession session;
  AdvisorConfig config;
  config.model_pool = {session.problem.workload, nullptr};
  Advisor advisor(session.problem, config);
  EXPECT_EQ(advisor.Init().code(), StatusCode::kInvalidArgument);
}

TEST(AdvisorLoopTest, InitRejectsAMalformedDriftConfig) {
  // The detector is built by Init, after the config check, so a bad drift
  // knob comes back as a status instead of aborting in the constructor.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::pair<std::string, DriftConfig>> cases;
  for (double alpha : {0.0, -0.3, 1.5, nan}) {
    DriftConfig drift;
    drift.ewma_alpha = alpha;
    cases.push_back({"ewma_alpha " + std::to_string(alpha), drift});
  }
  for (double deadband : {-0.1, nan}) {
    DriftConfig drift;
    drift.deadband = deadband;
    cases.push_back({"deadband " + std::to_string(deadband), drift});
  }
  for (double trigger : {0.0, -1.0, nan}) {
    DriftConfig drift;
    drift.trigger = trigger;
    cases.push_back({"trigger " + std::to_string(trigger), drift});
  }
  for (double floor : {0.0, -1.0, nan}) {
    DriftConfig drift;
    drift.count_floor = floor;
    cases.push_back({"count_floor " + std::to_string(floor), drift});
  }
  TpchSession session;
  for (const auto& [what, drift] : cases) {
    SCOPED_TRACE(what);
    EXPECT_EQ(ValidateDriftConfig(drift).code(),
              StatusCode::kInvalidArgument);
    AdvisorConfig config;
    config.drift = drift;
    Advisor advisor(session.problem, config);
    EXPECT_EQ(advisor.Init().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_TRUE(ValidateDriftConfig(DriftConfig{}).ok());
}

TEST(AdvisorLoopTest, InitRejectsAProblemWithoutAWorkload) {
  // The initial Solve returns the status; the constructor checks nothing.
  TpchSession session;
  DotProblem problem = session.problem;
  problem.workload = nullptr;
  for (SolveMethod method : {SolveMethod::kExact, SolveMethod::kDotHeuristic,
                             SolveMethod::kEnumerate}) {
    AdvisorConfig config;
    config.replan_method = method;
    Advisor advisor(problem, config);
    EXPECT_EQ(advisor.Init().code(), StatusCode::kInvalidArgument);
  }
}

TEST(AdvisorLoopTest, PoolModelOverAnotherSchemaIsRejected) {
  // Classification prices every pool model on the problem's placements: a
  // model over full TPC-H next to the TPC-H ES subset problem is refused
  // up front, while one over a fingerprint-equal copy of the problem's
  // schema is accepted.
  TpchSession session;
  const Schema full = MakeTpchSchema(20.0);
  const DssWorkloadModel full_model("TPC-H", &full, &session.box,
                                    MakeTpchTemplates(),
                                    RepeatSequence(22, 1), PlannerConfig{});
  Advisor plain(session.problem, AdvisorConfig{});
  ASSERT_TRUE(plain.Init().ok());
  const WorkloadTrace trace =
      RecordTraceWithExecutor(session.Trace(2, 0), plain.incumbent());
  RecordedTraceFeed feed(&trace);

  // A re-plan every window: the first one would classify.
  AdvisorConfig config;
  config.replan_interval_windows = 1;
  config.model_pool = {session.problem.workload, &full_model};
  Advisor advisor(session.problem, config);
  const AdvisorRun run = advisor.Run(&feed);
  EXPECT_EQ(run.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(run.status.message().find("model_pool model TPC-H "),
            std::string::npos)
      << run.status.ToString();
  EXPECT_TRUE(run.decisions.empty());

  const Schema copy = session.schema;
  const DssWorkloadModel copy_model("TPC-H-ES copy", &copy, &session.box,
                                    MakeTpchSubsetTemplates(),
                                    RepeatSequence(11, 3), PlannerConfig{});
  config.model_pool = {session.problem.workload, &copy_model};
  Advisor accepting(session.problem, config);
  EXPECT_TRUE(accepting.Init().ok());
}

TEST(AdvisorLoopTest, RunEndsWithAStatusOnAnEventThatMissesObjects) {
  // An event whose I/O map does not cover the problem's objects ends the
  // run like any malformed event: InvalidArgument naming the window, with
  // the decisions before it kept.
  TpchSession session;
  Advisor advisor(session.problem, AdvisorConfig{});
  ASSERT_TRUE(advisor.Init().ok());
  WorkloadTrace trace =
      RecordTraceWithExecutor(session.Trace(4, 0), advisor.incumbent());
  ASSERT_EQ(trace.events.size(), 4u);
  trace.events[2].io_by_object.resize(3);
  RecordedTraceFeed feed(&trace);
  const AdvisorRun run = advisor.Run(&feed);
  EXPECT_EQ(run.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(run.status.message().find("trace window 2"), std::string::npos)
      << run.status.ToString();
  EXPECT_EQ(run.decisions.size(), 2u);
  EXPECT_EQ(run.layout_by_window.size(), 2u);
  EXPECT_EQ(run.final_layout, advisor.incumbent());
}

TEST(AdvisorLoopTest, RunIsResumableAcrossFeedSegments) {
  TpchSession session;
  const WorkloadTraceSpec spec = session.Trace(6, 6);

  Advisor whole_advisor(session.problem, AdvisorConfig{});
  ASSERT_TRUE(whole_advisor.Init().ok());
  const WorkloadTrace trace =
      RecordTraceWithExecutor(spec, whole_advisor.incumbent());
  RecordedTraceFeed whole_feed(&trace);
  const AdvisorRun whole = whole_advisor.Run(&whole_feed);

  // The same trace cut into two feed segments: state carries over, so the
  // concatenated decision sequence is identical.
  WorkloadTrace first_half, second_half;
  for (size_t e = 0; e < trace.events.size(); ++e) {
    (e < 6 ? first_half : second_half).events.push_back(trace.events[e]);
  }
  Advisor split_advisor(session.problem, AdvisorConfig{});
  RecordedTraceFeed feed_a(&first_half);
  RecordedTraceFeed feed_b(&second_half);
  const AdvisorRun run_a = split_advisor.Run(&feed_a);
  const AdvisorRun run_b = split_advisor.Run(&feed_b);
  ASSERT_TRUE(run_a.status.ok());
  ASSERT_TRUE(run_b.status.ok());

  AdvisorRun stitched = run_a;
  stitched.decisions.insert(stitched.decisions.end(),
                            run_b.decisions.begin(), run_b.decisions.end());
  stitched.layout_by_window.insert(stitched.layout_by_window.end(),
                                   run_b.layout_by_window.begin(),
                                   run_b.layout_by_window.end());
  stitched.num_replans += run_b.num_replans;
  EXPECT_EQ(DecisionFingerprint(stitched), DecisionFingerprint(whole));
  EXPECT_EQ(split_advisor.incumbent(), whole_advisor.incumbent());
}

/// A pool model that counts its unscaled estimates. The advisor's re-plans
/// always run under an io_scale hint (estimate_io_scale is on), so an
/// estimate with no scale is a classification's predicted counts.
class EstimateCountingModel : public WorkloadModel {
 public:
  EstimateCountingModel(const WorkloadModel* inner, long long* count)
      : inner_(inner), count_(count) {}

  const std::string& name() const override { return inner_->name(); }
  const Schema* schema() const override { return inner_->schema(); }
  const BoxConfig* box() const override { return inner_->box(); }
  double concurrency() const override { return inner_->concurrency(); }
  SlaKind sla_kind() const override { return inner_->sla_kind(); }
  PerfEstimate EstimateWithIoScale(const std::vector<int>& placement,
                                   const std::vector<double>& io_scale,
                                   bool need_io_by_object) const override {
    if (io_scale.empty()) ++*count_;
    return inner_->EstimateWithIoScale(placement, io_scale,
                                       need_io_by_object);
  }
  std::unique_ptr<FastScorer> MakeFastScorer(
      const std::vector<double>& io_scale,
      const std::vector<double>& query_caps_ms, double min_tpmc,
      double sla_tolerance) const override {
    return inner_->MakeFastScorer(io_scale, query_caps_ms, min_tpmc,
                                  sla_tolerance);
  }

 private:
  const WorkloadModel* inner_;
  long long* count_;
};

/// A diurnal CH-benCH session: the shared TPC-C objects on Box 2, the
/// analytics ratio swinging 0.1 -> 8 -> 64 -> 8 every day, the advisor
/// planning against the daytime model with the three mixes as its model
/// pool and the migration gate on. The relative SLA is the tightest from
/// 0.35 down (x0.9 steps) the daytime problem meets, so the incumbent
/// misses it under the heavy mixes.
struct DiurnalHtapSession {
  Schema schema;
  BoxConfig box;
  std::vector<double> rhos = {0.1, 8.0, 64.0};
  std::vector<HtapBundle> bundles;
  DotProblem problem;
  WorkloadTrace trace;
  AdvisorConfig config;

  explicit DiurnalHtapSession(int days)
      : schema(MakeTpccSchema(300).Subset(
            {"stock", "pk_stock", "order_line", "pk_order_line", "customer",
             "pk_customer", "orders", "pk_orders"})),
        box(MakeBox2()) {
    for (double rho : rhos) {
      HtapConfig htap;
      htap.analytics_streams = rho;
      bundles.push_back(MakeChbenchHtapWorkload(&schema, &box, htap));
    }
    problem.schema = &schema;
    problem.box = &box;
    problem.workload = bundles[0].htap.get();
    problem.relative_sla = 0.35;
    SolveResult base;
    for (;;) {
      base = Solve(problem);
      if (base.status.ok() || problem.relative_sla < 0.02) break;
      problem.relative_sla *= 0.9;
    }
    DOT_CHECK(base.status.ok());

    WorkloadTraceSpec spec;
    spec.count_noise_cv = 0.002;
    spec.seed = 7;
    const std::pair<int, int> phases[] = {{0, 10}, {1, 4}, {2, 8}, {1, 2}};
    for (int d = 0; d < days; ++d) {
      for (const auto& [bundle, hours] : phases) {
        for (int h = 0; h < hours; ++h) {
          TraceWindow window;
          window.workload = bundles[static_cast<size_t>(bundle)].htap.get();
          spec.windows.push_back(window);
        }
      }
    }
    trace = RecordTraceWithExecutor(spec, base.placement);

    config.migration.transfer_price_cents_per_gb = 0.03;
    config.migration.downtime_price_cents_per_hour = 15.0;
    config.drift.ewma_alpha = 0.7;
    config.payback_horizon_hours = 6.0;
    for (const HtapBundle& bundle : bundles) {
      config.model_pool.push_back(bundle.htap.get());
    }
  }

  AdvisorRun Run(const DotProblem& p, const AdvisorConfig& c) const {
    Advisor advisor(p, c);
    RecordedTraceFeed feed(&trace);
    return advisor.Run(&feed);
  }
};

TEST(AdvisorLoopTest, FastAndFullIncumbentPricingAgreeBitForBit) {
  // The incumbent is priced on the re-plan's scorer when it has one, and
  // through EstimateToc without: every decision field must agree, on an
  // SLA-feasible incumbent and on one the heavy mix pushes over the SLA.
  const DiurnalHtapSession session(/*days=*/2);
  DotProblem full = session.problem;
  full.options.use_fast_eval = false;
  const AdvisorRun fast = session.Run(session.problem, session.config);
  const AdvisorRun slow = session.Run(full, session.config);
  ASSERT_TRUE(fast.status.ok()) << fast.status.ToString();
  ASSERT_TRUE(slow.status.ok()) << slow.status.ToString();
  ASSERT_EQ(fast.decisions.size(), slow.decisions.size());
  int feasible = 0;
  int infeasible = 0;
  for (size_t i = 0; i < fast.decisions.size(); ++i) {
    const AdvisorDecision& a = fast.decisions[i];
    const AdvisorDecision& b = slow.decisions[i];
    SCOPED_TRACE("window " + std::to_string(a.window));
    EXPECT_EQ(a.replanned, b.replanned);
    EXPECT_EQ(a.migrated, b.migrated);
    EXPECT_EQ(StrPrintf("%a", a.incumbent_toc),
              StrPrintf("%a", b.incumbent_toc));
    EXPECT_EQ(StrPrintf("%a", a.candidate_toc),
              StrPrintf("%a", b.candidate_toc));
    EXPECT_EQ(a.incumbent_feasible, b.incumbent_feasible);
    EXPECT_EQ(a.model_index, b.model_index);
    EXPECT_EQ(a.verdict.migrate, b.verdict.migrate);
    EXPECT_EQ(StrPrintf("%a", a.verdict.bill.cents),
              StrPrintf("%a", b.verdict.bill.cents));
    EXPECT_EQ(StrPrintf("%a", a.verdict.toc_delta_cents_per_task),
              StrPrintf("%a", b.verdict.toc_delta_cents_per_task));
    EXPECT_EQ(StrPrintf("%a", a.verdict.projected_saving),
              StrPrintf("%a", b.verdict.projected_saving));
    EXPECT_EQ(StrPrintf("%a", a.verdict.weighted_bill),
              StrPrintf("%a", b.verdict.weighted_bill));
    if (a.replanned && a.candidate_toc > 0.0) {
      ++(a.incumbent_feasible ? feasible : infeasible);
      EXPECT_TRUE(std::isfinite(a.incumbent_toc));
    }
  }
  EXPECT_EQ(DecisionFingerprint(fast), DecisionFingerprint(slow));
  EXPECT_GT(feasible, 0);
  EXPECT_GT(infeasible, 0) << "no re-plan priced an SLA-infeasible incumbent";
}

TEST(AdvisorLoopTest, ClassificationEstimatesOncePerDistinctIncumbent) {
  // Each pool model's predicted counts on a layout are estimated once
  // while the layout stays in the candidate pool: |model_pool| estimates
  // per distinct incumbent classified on, not per re-plan. At max_pool = 1
  // the pool keeps only the incumbent, so every change of incumbent
  // between classifications estimates again.
  const DiurnalHtapSession session(/*days=*/3);
  long long count = 0;
  std::vector<std::unique_ptr<EstimateCountingModel>> counting;
  AdvisorConfig config = session.config;
  for (const WorkloadModel*& model : config.model_pool) {
    counting.push_back(std::make_unique<EstimateCountingModel>(model, &count));
    model = counting.back().get();
  }
  const long long pool_size =
      static_cast<long long>(config.model_pool.size());

  std::string reference;
  for (int max_pool : {16, 1}) {
    SCOPED_TRACE("max_pool " + std::to_string(max_pool));
    config.max_pool = max_pool;
    count = 0;
    const AdvisorRun run = session.Run(session.problem, config);
    ASSERT_TRUE(run.status.ok()) << run.status.ToString();
    std::vector<std::vector<int>> distinct;
    long long changes = 0;
    const std::vector<int>* last = nullptr;
    for (size_t w = 0; w < run.decisions.size(); ++w) {
      if (!run.decisions[w].replanned) continue;
      const std::vector<int>& incumbent = run.layout_by_window[w];
      if (std::find(distinct.begin(), distinct.end(), incumbent) ==
          distinct.end()) {
        distinct.push_back(incumbent);
      }
      if (last == nullptr || *last != incumbent) ++changes;
      last = &incumbent;
    }
    ASSERT_GT(static_cast<long long>(distinct.size()), 1);
    ASSERT_GT(run.num_replans, static_cast<int>(distinct.size()));
    EXPECT_EQ(count, pool_size * (max_pool == 1
                                      ? changes
                                      : static_cast<long long>(
                                            distinct.size())));
    if (max_pool == 1) {
      EXPECT_GT(changes, static_cast<long long>(distinct.size()))
          << "no incumbent came back after its eviction";
    }
    // The pool only seeds warm starts: decisions do not depend on it.
    if (reference.empty()) {
      reference = DecisionFingerprint(run);
    } else {
      EXPECT_EQ(DecisionFingerprint(run), reference);
    }
  }
}

/// Randomized full-schema HTAP sessions: the CH-benCH mix over a TPC-C
/// schema subset, random drift pattern, random SLA — the advisor must
/// stay deterministic and structurally consistent on every draw.
TEST(AdvisorLoopSlowTest, RandomizedFullSchemaSessionsHoldInvariants) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed * 2654435761u);

    BoxConfig box = MakeBox2();
    Schema full = MakeTpccSchema(300);
    Schema schema = full.Subset({"stock", "pk_stock", "order_line",
                                 "pk_order_line", "customer", "pk_customer",
                                 "orders", "pk_orders"});
    HtapConfig htap_config;
    htap_config.analytics_streams = 1.0 + 7.0 * rng.NextUniform(0.0, 1.0);
    HtapBundle bundle = MakeChbenchHtapWorkload(
        &schema, &box, htap_config, TpccConfig{}, /*analytics_reps=*/1);

    DotProblem problem;
    problem.schema = &schema;
    problem.box = &box;
    problem.workload = bundle.htap.get();
    problem.relative_sla = rng.NextUniform(0.25, 0.5);

    // A random 12-window day: each window scales a random object group.
    WorkloadTraceSpec spec;
    for (int w = 0; w < 12; ++w) {
      TraceWindow window;
      window.workload = bundle.htap.get();
      window.duration_hours = 0.5 + rng.NextUniform(0.0, 1.0);
      if (rng.NextBounded(3) == 0) {
        std::vector<double> scale(
            static_cast<size_t>(schema.NumObjects()), 1.0);
        scale[rng.NextBounded(
            static_cast<uint64_t>(schema.NumObjects()))] =
            2.0 + rng.NextUniform(0.0, 8.0);
        window.io_scale = scale;
      }
      spec.windows.push_back(window);
    }

    AdvisorConfig config;
    config.migration.transfer_price_cents_per_gb = 0.03;
    config.migration.downtime_price_cents_per_hour = 15.0;
    config.payback_horizon_hours = 6.0;

    std::vector<std::string> fingerprints;
    AdvisorRun last_run;
    for (int threads : {1, 4, hw}) {
      DotProblem threaded = problem;
      threaded.options.num_threads = threads;
      Advisor advisor(threaded, config);
      ASSERT_TRUE(advisor.Init().ok());
      const WorkloadTrace trace =
          RecordTraceWithExecutor(spec, advisor.incumbent());
      RecordedTraceFeed feed(&trace);
      last_run = advisor.Run(&feed);
      ASSERT_TRUE(last_run.status.ok());
      fingerprints.push_back(DecisionFingerprint(last_run));
    }
    EXPECT_EQ(fingerprints[0], fingerprints[1]) << "seed " << seed;
    EXPECT_EQ(fingerprints[0], fingerprints[2]) << "seed " << seed;

    // Structural invariants of the final run.
    ASSERT_EQ(last_run.layout_by_window.size(), spec.windows.size());
    ASSERT_EQ(last_run.decisions.size(), spec.windows.size());
    int track_migrations = 0;
    for (size_t w = 0; w + 1 < last_run.layout_by_window.size(); ++w) {
      if (last_run.layout_by_window[w] != last_run.layout_by_window[w + 1]) {
        ++track_migrations;
      }
    }
    if (last_run.final_layout != last_run.layout_by_window.back()) {
      ++track_migrations;
    }
    EXPECT_EQ(track_migrations, last_run.num_migrations) << "seed " << seed;
    EXPECT_EQ(last_run.layout_by_window.front(), last_run.initial_layout);

    // The realized replay accepts the advisor's track as-is.
    TrackReplayConfig replay;
    replay.migration = config.migration;
    replay.migration_weight = 0.0;
    const TrackReplayResult realized = ReplayLayoutTrack(
        spec, last_run.layout_by_window, schema, box, replay);
    ASSERT_TRUE(realized.status.ok()) << "seed " << seed;
    EXPECT_EQ(static_cast<size_t>(spec.windows.size()),
              realized.windows.size());
  }
}

}  // namespace
}  // namespace dot
