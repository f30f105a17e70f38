#ifndef DOTPROV_WORKLOAD_TRACE_H_
#define DOTPROV_WORKLOAD_TRACE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "query/object_io.h"
#include "workload/profiler.h"
#include "workload/workload.h"

namespace dot {

/// One window of a workload over time: which workload runs, at which
/// per-object I/O intensity, for how long. It is both a planning epoch
/// (ReprovisionPlanner plans across windows, dot/reprovision.h) and the
/// ground truth of a recorded trace. The advisor never sees this struct —
/// it observes TraceEvents — but the trace recorder and the realized-cost
/// replay (exec/trace_replay.h) both price windows from it, so "what really
/// happened" has one definition. Planners read `workload`,
/// `duration_hours`, `profiles` and `label`; `io_scale` is ground truth
/// that only the recorder and the replays measure.
struct TraceWindow {
  /// The workload that ran during this window; must outlive the spec.
  const WorkloadModel* workload = nullptr;

  /// Per-object multiplier on the model's I/O counts (the Executor's
  /// io_scale disturbance); empty = the model's estimates are exact. This
  /// is how a trace drifts: consecutive windows scale different objects.
  std::vector<double> io_scale;

  double duration_hours = 1.0;

  /// Optional profiles for the DOT-heuristic candidate search of the epoch
  /// planner (EpochSearch::kDot); nothing else reads them. Must outlive
  /// the spec.
  const WorkloadProfiles* profiles = nullptr;

  std::string label;  ///< report label, e.g. "night batch"
};

/// A workload over time: windows in virtual-time order — the schedule the
/// epoch planner provisions across and the history a trace records and a
/// replay prices. No wall clock anywhere — recording and replay are
/// bit-reproducible functions of the spec and a seed. Closing a diurnal
/// cycle (charging the migration back to the first window's layout) is the
/// caller's choice: append the first window again.
struct WorkloadTraceSpec {
  std::vector<TraceWindow> windows;

  /// Multiplicative lognormal observation noise (unit mean) applied to
  /// each recorded per-(object, I/O-class) count — the monitoring stack's
  /// sampling error, distinct from the Executor's timing jitter. 0 =
  /// counts are observed exactly.
  double count_noise_cv = 0.0;

  /// Base seed of the observation-noise stream (and, for executor-backed
  /// recording, of the per-window measurement runs at seed + window).
  uint64_t seed = 7;

  double TotalHours() const;

  /// Appends one window (no io_scale); returns *this for chaining.
  WorkloadTraceSpec& Add(const WorkloadModel* workload, double duration_hours,
                         std::string label = std::string(),
                         const WorkloadProfiles* profiles = nullptr);
};

/// OK iff the spec is non-empty, count_noise_cv >= 0, and every window has
/// a workload, a positive, finite duration and finite, non-negative
/// io_scale entries. The io_scale length needs the object count, so
/// RecordTraceWithExecutor and ReplayLayoutTrack check it
/// (ValidateIoScale).
Status ValidateTraceSpec(const WorkloadTraceSpec& spec);

/// What the advisor observes about one window: the measured per-(object,
/// I/O-class) request counts of one profiled run of the window's workload
/// (the §3.4(b) test-run idiom applied continuously), plus the virtual
/// clock. Counts are what drift detection runs on — they are a property of
/// the workload, not of the layout it happened to run on, so an advisor
/// that migrates mid-trace keeps observing comparable numbers.
struct TraceEvent {
  int window = -1;
  double start_hours = 0.0;     ///< virtual time at window start
  double duration_hours = 0.0;  ///< how long this workload level held
  ObjectIoMap io_by_object;     ///< observed counts, one profiled run
  double measured_tasks_per_hour = 0.0;  ///< on the recording layout
  std::string label;
};

/// A recorded trace, ready to feed through advisor::RecordedTraceFeed.
/// The recorder is exec/trace_replay.h's RecordTraceWithExecutor.
struct WorkloadTrace {
  /// OK, or InvalidArgument (with no events) for an input the recorder
  /// rejects.
  Status status = Status::OK();

  std::vector<TraceEvent> events;

  double TotalHours() const;
};

}  // namespace dot

#endif  // DOTPROV_WORKLOAD_TRACE_H_
