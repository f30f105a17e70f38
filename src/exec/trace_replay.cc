#include "exec/trace_replay.h"

#include <cmath>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "dot/layout.h"

namespace dot {

WorkloadTrace RecordTraceWithExecutor(const WorkloadTraceSpec& spec,
                                      const std::vector<int>& placement,
                                      double exec_noise_cv) {
  WorkloadTrace trace;
  trace.status = ValidateTraceSpec(spec);
  for (size_t w = 0; w < spec.windows.size() && trace.status.ok(); ++w) {
    // What the window's workload would otherwise abort on: one entry per
    // schema object, each a class of the model's box.
    const std::string where = "window " + std::to_string(w);
    const WorkloadModel& model = *spec.windows[w].workload;
    trace.status = ValidatePlacement(placement, *model.schema(), *model.box(),
                                     where + " placement");
    if (trace.status.ok()) {
      trace.status = ValidateExecutorConfig(
          {exec_noise_cv, spec.windows[w].io_scale},
          model.schema()->NumObjects(), where);
    }
  }
  if (!trace.status.ok()) return trace;

  // One noise stream for the whole trace, consumed in window order then
  // object order then request-class order: the recording is a pure function
  // of (spec, seed, placement, exec_noise_cv).
  Rng rng(spec.seed);
  const double sigma2 =
      std::log(1.0 + spec.count_noise_cv * spec.count_noise_cv);
  const double mu = -0.5 * sigma2;
  const double sigma = std::sqrt(sigma2);

  trace.events.reserve(spec.windows.size());
  double clock_hours = 0.0;
  for (size_t w = 0; w < spec.windows.size(); ++w) {
    const TraceWindow& window = spec.windows[w];
    ExecutorConfig cfg;
    cfg.noise_cv = exec_noise_cv;
    cfg.io_scale = window.io_scale;
    cfg.seed = spec.seed + static_cast<uint64_t>(w);
    PerfEstimate measured = Executor(window.workload, cfg).Run(placement);

    TraceEvent event;
    event.window = static_cast<int>(w);
    event.start_hours = clock_hours;
    event.duration_hours = window.duration_hours;
    event.label = window.label;
    event.measured_tasks_per_hour = measured.tasks_per_hour;
    event.io_by_object = std::move(measured.io_by_object);
    if (spec.count_noise_cv > 0.0) {
      for (IoVector& io : event.io_by_object) {
        for (int r = 0; r < kNumIoTypes; ++r) {
          io[static_cast<IoType>(r)] *=
              std::exp(mu + sigma * rng.NextGaussian());
        }
      }
    }
    trace.events.push_back(std::move(event));
    clock_hours += window.duration_hours;
  }
  return trace;
}

namespace {

/// Every ReplayLayoutTrack input check, so a bad input returns a status
/// before any window runs.
Status ValidateTrack(const WorkloadTraceSpec& spec,
                     const std::vector<std::vector<int>>& layout_by_window,
                     const Schema& schema, const BoxConfig& box,
                     const TrackReplayConfig& config,
                     const std::vector<int>& current_layout) {
  Status st = ValidateTraceSpec(spec);
  if (!st.ok()) return st;
  if (!(std::isfinite(config.migration_weight) &&
        config.migration_weight >= 0.0)) {
    return Status::InvalidArgument(
        "TrackReplayConfig::migration_weight must be finite and >= 0, got " +
        std::to_string(config.migration_weight));
  }
  if (layout_by_window.size() != spec.windows.size()) {
    return Status::InvalidArgument(
        "layout track length does not match the trace's window count");
  }
  for (size_t w = 0; w < spec.windows.size(); ++w) {
    const std::string window = "window " + std::to_string(w);
    st = ValidateExecutorConfig(
        {config.exec_noise_cv, spec.windows[w].io_scale}, schema.NumObjects(),
        window);
    if (!st.ok()) return st;
    st = ValidatePlacement(layout_by_window[w], schema, box,
                           window + " layout");
    if (!st.ok()) return st;
  }
  if (current_layout.empty()) return Status::OK();
  return ValidatePlacement(current_layout, schema, box, "current layout");
}

}  // namespace

TrackReplayResult ReplayLayoutTrack(
    const WorkloadTraceSpec& spec,
    const std::vector<std::vector<int>>& layout_by_window,
    const Schema& schema, const BoxConfig& box,
    const TrackReplayConfig& config,
    const std::vector<int>& current_layout) {
  TrackReplayResult result;
  result.status = ValidateTrack(spec, layout_by_window, schema, box, config,
                                current_layout);
  if (!result.status.ok()) return result;

  result.windows.resize(spec.windows.size());
  const std::vector<int>* previous =
      current_layout.empty() ? nullptr : &current_layout;
  for (size_t w = 0; w < spec.windows.size(); ++w) {
    const TraceWindow& window = spec.windows[w];
    const std::vector<int>& layout = layout_by_window[w];
    TrackWindowRun& run = result.windows[w];

    ExecutorConfig exec_config;
    exec_config.noise_cv = config.exec_noise_cv;
    exec_config.io_scale = window.io_scale;
    exec_config.seed = config.seed + static_cast<uint64_t>(w);
    Executor executor(window.workload, exec_config);
    run.measured = executor.Run(layout);
    DOT_CHECK(run.measured.tasks_per_hour > 0)
        << "replayed window produced zero throughput";

    const double cost_cents_per_hour =
        Layout(&schema, &box, layout).CostCentsPerHour(config.cost_model);
    run.toc_cents_per_task = cost_cents_per_hour / run.measured.tasks_per_hour;
    run.window_objective = run.toc_cents_per_task * window.duration_hours;

    if (previous != nullptr && layout != *previous) {
      const MigrationEstimate bill =
          EstimateMigration(config.migration, box, schema, *previous, layout);
      run.migration_cents = bill.cents;
      result.total_migration_cents += bill.cents;
      ++result.num_migrations;
    }
    previous = &layout;

    // Same accounting order as ReprovisionPlan.
    result.total_objective =
        (result.total_objective +
         config.migration_weight * run.migration_cents) +
        run.window_objective;
  }
  return result;
}

}  // namespace dot
