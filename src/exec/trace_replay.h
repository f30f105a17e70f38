#ifndef DOTPROV_EXEC_TRACE_REPLAY_H_
#define DOTPROV_EXEC_TRACE_REPLAY_H_

#include <vector>

#include "catalog/schema.h"
#include "exec/executor.h"
#include "storage/migration.h"
#include "storage/pricing.h"
#include "storage/storage_class.h"
#include "workload/trace.h"

namespace dot {

/// Records a trace by running each window once through the simulated
/// Executor on `placement` (the monitoring layout): window w runs at seed
/// spec.seed + w with the window's io_scale disturbance, its measured
/// counts become the window's TraceEvent, stamped with cumulative virtual
/// time, and the spec's observation noise (one lognormal stream seeded by
/// spec.seed, drawn in window, then object, then request-class order)
/// scales the counts. This is the §3.4(b) test-run profiler turned into a
/// continuous recorder; the recording is bit-reproducible.
///
/// `exec_noise_cv` jitters the measured times/rates only; the Executor
/// never jitters I/O counts, so count noise comes solely from
/// spec.count_noise_cv.
///
/// Returns a trace whose status is InvalidArgument, with no events and
/// nothing run, for a spec ValidateTraceSpec rejects, or a window whose
/// executor config ValidateExecutorConfig rejects (an `exec_noise_cv`
/// that is NaN, infinite or negative, or an io_scale whose length is
/// neither 0 nor placement.size()), or a `placement` whose length differs
/// from a window workload's schema()->NumObjects() or that holds an entry
/// outside [0, box()->NumClasses()) of that workload.
WorkloadTrace RecordTraceWithExecutor(const WorkloadTraceSpec& spec,
                                      const std::vector<int>& placement,
                                      double exec_noise_cv = 0.0);

/// Knobs of one layout-track replay.
struct TrackReplayConfig {
  /// Must match the pricing the layouts were chosen under.
  CostModelSpec cost_model;

  /// Migration pricing charged whenever consecutive windows run different
  /// layouts (and on entering window 0 from a differing current layout),
  /// folded in at `migration_weight` (hours/task, same role as the epoch
  /// planner's weight; finite and >= 0 — the replay has no auto sentinel,
  /// so pass a plan's resolved_migration_weight).
  MigrationCostModel migration;
  double migration_weight = 0.0;

  /// Timing jitter of the replay runs (counts are never jittered).
  double exec_noise_cv = 0.0;

  /// Window w replays at seed + w — the same stream for every strategy
  /// replayed over the same trace, so realized costs differ only through
  /// the layouts, never through the noise draws.
  uint64_t seed = 7;
};

/// One window of a replayed layout track.
struct TrackWindowRun {
  PerfEstimate measured;
  double toc_cents_per_task = 0.0;
  double window_objective = 0.0;   ///< measured TOC · window duration
  double migration_cents = 0.0;    ///< bill paid entering this window
};

/// The realized cost of running one strategy's layout sequence over the
/// trace's ground truth.
struct TrackReplayResult {
  Status status = Status::OK();
  std::vector<TrackWindowRun> windows;
  /// Σ over windows, left to right, under the exact accounting contract
  /// ReprovisionPlan documents: total = (total + weight · migration_cents)
  /// + toc · duration. Comparable across strategies bit for bit.
  double total_objective = 0.0;
  double total_migration_cents = 0.0;
  int num_migrations = 0;
};

/// Replays `layout_by_window` (one layout per trace window — e.g. an
/// AdvisorRun's track, an epoch plan's step placements, or a constant
/// vector for the frozen incumbent) against the trace spec's ground truth:
/// window w's workload runs once on layout w with the window's io_scale,
/// and the measured throughput prices the window. Migration between
/// consecutive differing layouts is billed via EstimateMigration, and so
/// is the move from a non-empty `current_layout` into window 0 — the
/// epoch-0 bill ReprovisionPlanner::Plan charges. This is the one
/// scoreboard: every strategy (advisor, baselines, epoch plans) is priced
/// by the same function over the same draws. With zero noise, no io_scale
/// and the plan's migration model and resolved weight, the replay of an
/// epoch plan equals its total_objective bit for bit.
///
/// Returns InvalidArgument (and runs nothing) for an invalid spec
/// (ValidateTraceSpec), a migration_weight that is NaN, infinite or
/// negative, a window whose executor config (exec_noise_cv, io_scale)
/// ValidateExecutorConfig rejects, a track whose length is not the window
/// count, or a track layout or non-empty `current_layout` that is not a
/// placement on the box (ValidatePlacement).
TrackReplayResult ReplayLayoutTrack(
    const WorkloadTraceSpec& spec,
    const std::vector<std::vector<int>>& layout_by_window,
    const Schema& schema, const BoxConfig& box,
    const TrackReplayConfig& config,
    const std::vector<int>& current_layout = {});

}  // namespace dot

#endif  // DOTPROV_EXEC_TRACE_REPLAY_H_
