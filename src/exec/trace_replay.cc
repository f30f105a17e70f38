#include "exec/trace_replay.h"

#include <string>

#include "common/check.h"
#include "dot/layout.h"
#include "workload/scenario.h"

namespace dot {

WorkloadTrace RecordTraceWithExecutor(const WorkloadTraceSpec& spec,
                                      const std::vector<int>& placement,
                                      double exec_noise_cv) {
  return RecordTrace(spec, [&](const TraceWindow& window, int w) {
    ExecutorConfig cfg;
    cfg.noise_cv = exec_noise_cv;
    cfg.io_scale = window.io_scale;
    cfg.seed = spec.seed + static_cast<uint64_t>(w);
    Executor executor(window.workload, cfg);
    return executor.Run(placement);
  });
}

namespace {

/// Every ReplayLayoutTrack input check, so a bad input returns a status
/// before any window runs.
Status ValidateTrack(const WorkloadTraceSpec& spec,
                     const std::vector<std::vector<int>>& layout_by_window,
                     const Schema& schema, const BoxConfig& box,
                     const std::vector<int>& current_layout) {
  Status st = ValidateTraceSpec(spec);
  if (!st.ok()) return st;
  if (layout_by_window.size() != spec.windows.size()) {
    return Status::InvalidArgument(
        "layout track length does not match the trace's window count");
  }
  for (size_t w = 0; w < spec.windows.size(); ++w) {
    const std::string window = "window " + std::to_string(w);
    st = ValidateIoScale(spec.windows[w].io_scale, schema.NumObjects(),
                         window + " io_scale");
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
  result.status =
      ValidateTrack(spec, layout_by_window, schema, box, current_layout);
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
