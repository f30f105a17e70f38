#ifndef DOTPROV_STORAGE_MIGRATION_H_
#define DOTPROV_STORAGE_MIGRATION_H_

#include <vector>

#include "catalog/schema.h"
#include "io/io_types.h"
#include "storage/storage_class.h"

namespace dot {

/// Prices of physically re-laying-out data between storage classes — the
/// term the single-shot §2.5 problem has no word for, and the reason the
/// epoch planner (dot/reprovision.h) exists: when the workload drifts, the
/// question is not "what is the best layout now" but "is the better layout
/// worth the data movement".
///
/// A move is charged twice: once in cents (device wear, admin effort,
/// network egress on remote tiers) and once in time (the copy window,
/// during which the foreground workload loses throughput — priced per hour
/// so the dip is commensurable with everything else the optimizer prices).
/// Both charges are per moved object and exactly zero for an object that
/// stays on its class. That zero is the admissibility hook the planner's
/// bounds rely on: any not-yet-decided object can always stay put, so 0 is
/// a guaranteed lower bound on its migration term.
struct MigrationCostModel {
  /// Cents per GB physically moved.
  double transfer_price_cents_per_gb = 0.0;

  /// Value of one hour of copy window, cents/hour: the throughput dip
  /// while the foreground workload shares its devices with the copy
  /// stream, or the cost of the maintenance window that avoids the dip.
  double downtime_price_cents_per_hour = 0.0;

  /// Degree of concurrency the copy streams at (device latencies are
  /// concurrency-dependent, §3.3). 1 = a dedicated window.
  double copy_concurrency = 1.0;

  bool IsZero() const {
    return transfer_price_cents_per_gb == 0.0 &&
           downtime_price_cents_per_hour == 0.0;
  }
};

/// Streaming bandwidth of one storage class in GB/hour for `type`
/// (kSeqRead drains a source, kSeqWrite fills a target), derived from the
/// calibrated per-8-KiB-unit device latency at `concurrency` — the same
/// Table 1 anchors every other part of the model prices I/O from.
double ClassStreamGbPerHour(const StorageClass& cls, IoType type,
                            double concurrency);

/// Hours to move `size_gb` from `from_class` to `to_class`: the copy runs
/// at the slower of the source's sequential-read and the target's
/// sequential-write stream. Exactly 0 when the classes are equal.
double ObjectMoveHours(const BoxConfig& box, double size_gb, int from_class,
                       int to_class, double copy_concurrency);

/// Cents to move one object of `size_gb` from `from_class` to `to_class`:
/// transfer price plus the priced copy window. Exactly 0 when staying put.
double ObjectMigrationCostCents(const MigrationCostModel& model,
                                const BoxConfig& box, double size_gb,
                                int from_class, int to_class);

/// One layout transition's migration bill.
struct MigrationEstimate {
  double cents = 0.0;
  double hours = 0.0;  ///< serial copy window: objects move one at a time
  double gb_moved = 0.0;
  int objects_moved = 0;
};

/// Σ over the objects whose class changes between `from` and `to`, in
/// ascending object id — a fixed summation order, so the bill is
/// reproducible bit for bit wherever it is recomputed (planner DP,
/// sequence evaluator, layout-track replay).
MigrationEstimate EstimateMigration(const MigrationCostModel& model,
                                    const BoxConfig& box,
                                    const Schema& schema,
                                    const std::vector<int>& from,
                                    const std::vector<int>& to);

/// The outcome of asking "is this move worth its bill?".
struct MigrationVerdict {
  /// true iff the candidate is strictly cheaper AND its projected saving
  /// over the payback horizon strictly exceeds the weighted bill.
  bool migrate = false;

  MigrationEstimate bill;

  /// Incumbent TOC minus candidate TOC, cents/task (> 0 = candidate
  /// cheaper to operate).
  double toc_delta_cents_per_task = 0.0;

  /// toc_delta · horizon_hours — what the move earns if the current
  /// profile holds for the horizon (cents·hour/task).
  double projected_saving = 0.0;

  /// migration_weight · bill.cents, in the same cents·hour/task units.
  double weighted_bill = 0.0;
};

/// The advisor's commit test: migrate from `from` to `to` only when the
/// candidate's operating advantage, projected over `horizon_hours`, pays
/// for the migration bill at `migration_weight` (hours/task — the epoch
/// planner's weight unit, e.g. 1 / best-case tasks-per-hour). Both TOC
/// inputs must be priced under the same model for the delta to mean
/// anything. Strict inequality on both tests: a tie never moves data.
///
/// Edge cases (pinned by storage_migration_test):
///   * toc_delta exactly 0 never migrates — even at a zero bill, there is
///     no saving to pay for the operational risk of moving data;
///   * horizon_hours ≤ 0 never migrates (no future to amortize over;
///     negative horizons clamp to 0 rather than abort, so a caller-side
///     clock underrun degrades to "don't move" instead of crashing);
///   * a zero bill still demands a strictly positive projected saving;
///   * `from`/`to` not placing every schema object is a programmer error
///     and aborts via DOT_CHECK (inside EstimateMigration).
MigrationVerdict GateMigration(const MigrationCostModel& model,
                               const BoxConfig& box, const Schema& schema,
                               const std::vector<int>& from,
                               const std::vector<int>& to,
                               double incumbent_toc_cents_per_task,
                               double candidate_toc_cents_per_task,
                               double horizon_hours, double migration_weight);

}  // namespace dot

#endif  // DOTPROV_STORAGE_MIGRATION_H_
