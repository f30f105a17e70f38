// htap-advisor: one always-on Advisor session over a multi-day diurnal
// CH-benCHmark trace on 8 shared TPC-C objects and Box 2. The analytics
// ratio swings 0.1 -> 8 -> 64 -> 8 every day, the recorded counts carry
// seed-drawn observation noise, and the advisor runs with the model pool
// and the migration gate on. One op is one simulated day: 24 hourly
// windows fed as one Advisor::Run segment. The only workload with
// composite OLTP+DSS scoring, warm-started exact re-plans, drift detection
// and migration gating; quiet windows are nearly free, re-plan windows
// cost a warm exact solve.
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "advisor/advisor.h"
#include "catalog/tpcc_schema.h"
#include "dot/layout.h"
#include "dot/sla.h"
#include "dot/solve.h"
#include "exec/trace_replay.h"
#include "probes.h"
#include "storage/standard_catalog.h"
#include "workload.h"
#include "workload/htap_workload.h"

namespace perfbench {
namespace {

constexpr int kDays = 28;
constexpr int kWindowsPerDay = 24;

struct Phase {
  double rho;  ///< analytics streams per transaction stream
  int hours;
};
const Phase kDay[] = {{0.1, 10}, {8.0, 4}, {64.0, 8}, {8.0, 2}};

class HtapAdvisor : public Workload {
 public:
  explicit HtapAdvisor(uint64_t seed) : seed_(seed) {}

  void SetUp(Tracer* tracer) override {
    SeedRng rng(seed_);
    schema_ = Traced(tracer, "catalog.MakeTpccSchema", [] {
      return dot::MakeTpccSchema(300).Subset(
          {"stock", "pk_stock", "order_line", "pk_order_line", "customer",
           "pk_customer", "orders", "pk_orders"});
    });
    box_ = Traced(tracer, "storage.MakeBox", [] { return dot::MakeBox2(); });
    bundles_.clear();
    for (const Phase& p : kDay) {
      if (bundles_.count(p.rho)) continue;
      dot::HtapConfig config;
      config.analytics_streams = p.rho;
      bundles_.emplace(p.rho, Traced(tracer, "workload.MakeChbenchHtapWorkload",
                                     [&] {
                                       return dot::MakeChbenchHtapWorkload(
                                           &schema_, &box_, config);
                                     }));
    }

    // The advisor plans against the daytime model; the tightest relative
    // SLA from 0.35 down (x0.9 steps) that the daytime problem can meet.
    problem_ = dot::DotProblem{};
    problem_.schema = &schema_;
    problem_.box = &box_;
    problem_.workload = bundles_.at(kDay[0].rho).htap.get();
    problem_.relative_sla = 0.35;
    problem_.options.num_threads = 1;
    dot::SolveResult base;
    for (;;) {
      base = Traced(tracer, "dot.Solve", [&] { return dot::Solve(problem_); });
      if (base.status.ok() || problem_.relative_sla < 0.02) break;
      problem_.relative_sla *= 0.9;
    }

    spec_ = dot::WorkloadTraceSpec{};
    spec_.count_noise_cv = rng.Uniform(0.001, 0.003);
    spec_.seed = rng.Next();
    for (int d = 0; d < kDays; ++d) {
      for (const Phase& p : kDay) {
        for (int h = 0; h < p.hours; ++h) {
          dot::TraceWindow window;
          window.workload = bundles_.at(p.rho).htap.get();
          spec_.windows.push_back(window);
        }
      }
    }
    const Clock::time_point start = Clock::now();
    trace_ = Traced(tracer, "exec.RecordTraceWithExecutor", [&] {
      return dot::RecordTraceWithExecutor(spec_, base.placement);
    });
    record_ms_.push_back(MsSince(start));

    config_ = dot::AdvisorConfig{};
    config_.migration.transfer_price_cents_per_gb = 0.03;
    config_.migration.downtime_price_cents_per_hour = 15.0;
    config_.drift.ewma_alpha = 0.7;
    config_.payback_horizon_hours = 6.0;
    for (const auto& [rho, bundle] : bundles_) {
      config_.model_pool.push_back(bundle.htap.get());
    }
    advisor_ = std::make_unique<dot::Advisor>(problem_, config_);
    init_status_ = Traced(tracer, "advisor.Advisor::Init",
                          [&] { return advisor_->Init(); });
  }

  void Prepare(Tracer* tracer) override {
    replay_config_ = dot::TrackReplayConfig{};
    replay_config_.migration = config_.migration;
    replay_config_.migration_weight = advisor_->resolved_migration_weight();
    const std::vector<std::vector<int>> frozen(spec_.windows.size(),
                                               advisor_->incumbent());
    frozen_ = Traced(tracer, "exec.ReplayLayoutTrack", [&] {
      return dot::ReplayLayoutTrack(spec_, frozen, schema_, box_,
                                    replay_config_);
    });
    targets_.clear();
    for (const auto& [rho, bundle] : bundles_) {
      targets_[bundle.htap.get()] =
          dot::MakePerfTargets(*bundle.htap, box_, schema_.NumObjects(),
                               problem_.relative_sla);
    }
    runs_.assign(kDays, {});
  }

  int PassLength() const override { return kDays; }
  double NominalOpMs() const override { return 13.0; }

  /// Each pass replays the same session from the initialized advisor.
  void BeginPass() override { session_.emplace(*advisor_); }

  void RunOp(int d, Tracer* tracer) override {
    const size_t begin = static_cast<size_t>(d) * kWindowsPerDay;
    if (tracer == nullptr) {
      SliceFeed feed(&trace_, begin, begin + kWindowsPerDay);
      runs_[d] = session_->Run(&feed);
      return;
    }
    // Traced: one window at a time, so quiet and re-plan windows are
    // timed separately.
    dot::AdvisorRun day;
    for (size_t w = begin; w < begin + kWindowsPerDay; ++w) {
      SliceFeed feed(&trace_, w, w + 1);
      const Clock::time_point start = Clock::now();
      dot::AdvisorRun run = Traced(tracer, "advisor.Advisor::Run",
                                   [&] { return session_->Run(&feed); });
      const double ms = MsSince(start);
      const bool replanned = !run.decisions.empty() &&
                             run.decisions[0].replanned;
      (replanned ? replan_window_ms_ : quiet_window_ms_).push_back(ms);
      if (!run.status.ok()) day.status = run.status;
      day.decisions.insert(day.decisions.end(), run.decisions.begin(),
                           run.decisions.end());
      day.layout_by_window.insert(day.layout_by_window.end(),
                                  run.layout_by_window.begin(),
                                  run.layout_by_window.end());
      day.num_replans += run.num_replans;
      day.num_migrations += run.num_migrations;
      day.layouts_evaluated += run.layouts_evaluated;
    }
    runs_[d] = std::move(day);
  }

  std::vector<bool> CheckPass(Tracer* tracer) override {
    // The session's realized objective must not exceed the frozen initial
    // layout's over the same trace; a session that loses fails every day.
    std::vector<std::vector<int>> track;
    bool session_ok = init_status_.ok() && frozen_.status.ok();
    std::vector<bool> ok(runs_.size());
    for (size_t d = 0; d < runs_.size(); ++d) {
      const dot::AdvisorRun& run = runs_[d];
      bool day_ok = run.status.ok() &&
                    run.layout_by_window.size() == kWindowsPerDay;
      for (const std::vector<int>& layout : run.layout_by_window) {
        day_ok = day_ok &&
                 dot::Layout(&schema_, &box_, layout).CheckCapacity().ok();
        track.push_back(layout);
      }
      ok[d] = day_ok;
    }
    if (track.size() != spec_.windows.size()) session_ok = false;
    int windows_met = 0;
    double objective = 0.0;
    if (session_ok) {
      const Clock::time_point start = Clock::now();
      const dot::TrackReplayResult realized =
          Traced(tracer, "exec.ReplayLayoutTrack", [&] {
            return dot::ReplayLayoutTrack(spec_, track, schema_, box_,
                                          replay_config_);
          });
      replay_ms_ = MsSince(start);
      session_ok = realized.status.ok() &&
                   realized.total_objective <= frozen_.total_objective;
      objective = realized.total_objective;
      for (size_t w = 0; w < realized.windows.size(); ++w) {
        const dot::PerfTargets& targets =
            targets_.at(spec_.windows[w].workload);
        windows_met +=
            dot::MeetsTargets(realized.windows[w].measured, targets) ? 1 : 0;
      }
    }
    for (size_t d = 0; d < ok.size(); ++d) ok[d] = ok[d] && session_ok;
    quality_.toc_cents_per_task = objective / spec_.TotalHours();
    quality_.sla_met_share =
        static_cast<double>(windows_met) / spec_.windows.size();
    replans_ = migrations_ = 0;
    layouts_ = 0;
    for (const dot::AdvisorRun& run : runs_) {
      replans_ += run.num_replans;
      migrations_ += run.num_migrations;
      layouts_ += run.layouts_evaluated;
    }
    return ok;
  }

  uint64_t OpDigest(int d) const override {
    const dot::AdvisorRun& run = runs_[d];
    Fingerprint fp;
    for (const std::vector<int>& layout : run.layout_by_window) fp.Add(layout);
    for (const dot::AdvisorDecision& dec : run.decisions) {
      fp.Add(static_cast<long long>(dec.window));
      fp.Add(static_cast<long long>(dec.replanned * 2 + dec.migrated));
      fp.Add(dec.deviation);
      fp.Add(dec.statistic);
      fp.Add(dec.candidate_toc);
    }
    return fp.value();
  }

  Quality quality() const override { return quality_; }

  void LayerMetrics(Tracer* tracer, LayerValues* out) override {
    // Each pool model with the layout in force mid-way through its phase
    // on the second day.
    std::vector<ProbeProblem> probes;
    int hour = kWindowsPerDay;
    for (const Phase& p : kDay) {
      const dot::HtapBundle& bundle = bundles_.at(p.rho);
      hour += p.hours;
      bool seen = false;
      for (const ProbeProblem& pp : probes) {
        seen = seen || pp.problem.workload == bundle.htap.get();
      }
      if (seen) continue;
      dot::DotProblem problem = problem_;
      problem.workload = bundle.htap.get();
      probes.push_back({problem,
                        runs_[1].layout_by_window[(hour - p.hours / 2) %
                                                  kWindowsPerDay],
                        bundle.dss.get()});
    }
    RunProbes(probes, tracer, out);
    const double days = kDays;
    (*out)["dot.layouts_evaluated"] = layouts_ / days;
    (*out)["exec.trace_record_ms"] = Median(record_ms_);
    (*out)["exec.replay_ms"] = replay_ms_;
    (*out)["advisor.quiet_window_us"] = Median(quiet_window_ms_) * 1e3;
    (*out)["advisor.replan_window_ms"] = Median(replan_window_ms_);
    (*out)["advisor.replans_per_day"] = replans_ / days;
    (*out)["advisor.migrations_per_day"] = migrations_ / days;
    (*out)["advisor.layouts_per_replan"] =
        replans_ > 0 ? static_cast<double>(layouts_) / replans_ : 0.0;
  }

 private:
  uint64_t seed_;
  dot::Schema schema_;
  dot::BoxConfig box_;
  std::map<double, dot::HtapBundle> bundles_;
  dot::DotProblem problem_;
  dot::WorkloadTraceSpec spec_;
  dot::WorkloadTrace trace_;
  dot::AdvisorConfig config_;
  std::unique_ptr<dot::Advisor> advisor_;
  dot::Status init_status_;
  std::optional<dot::Advisor> session_;

  dot::TrackReplayConfig replay_config_;
  dot::TrackReplayResult frozen_;
  std::map<const dot::WorkloadModel*, dot::PerfTargets> targets_;
  std::vector<dot::AdvisorRun> runs_;

  Quality quality_;
  int replans_ = 0;
  int migrations_ = 0;
  long long layouts_ = 0;
  std::vector<double> record_ms_;
  double replay_ms_ = 0.0;
  std::vector<double> quiet_window_ms_, replan_window_ms_;
};

}  // namespace

std::unique_ptr<Workload> MakeHtapAdvisor(uint64_t seed) {
  return std::make_unique<HtapAdvisor>(seed);
}

}  // namespace perfbench
