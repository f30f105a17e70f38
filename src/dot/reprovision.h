#ifndef DOTPROV_DOT_REPROVISION_H_
#define DOTPROV_DOT_REPROVISION_H_

#include <vector>

#include "common/status.h"
#include "dot/optimizer.h"
#include "dot/problem.h"
#include "dot/search_stats.h"
#include "storage/migration.h"
#include "workload/trace.h"

namespace dot {

/// Which per-epoch candidate search seeds the planner's layout pool.
enum class EpochSearch {
  /// ExactSearch(kBranchAndBound): each epoch's solo optimum is the true
  /// optimum of that epoch's §2.5 instance. The default.
  kExact,
  /// DotOptimizer::Optimize (Procedure 1): needs TraceWindow::profiles; the
  /// everyday heuristic path for instances too large to solve exactly.
  kDot,
};

/// Sentinel for ReprovisionConfig::migration_weight: derive the exchange
/// rate from the schedule itself (see the field comment).
inline constexpr double kAutoMigrationWeight = -1.0;

/// The planner's own knobs; everything the epochs share with a
/// single-shot run comes from the DotProblem the planner is built on.
struct ReprovisionConfig {
  /// What moving data costs (storage/migration.h). A zero model makes the
  /// plan degenerate to per-epoch greedy re-optimization.
  MigrationCostModel migration;

  /// Exchange rate folding migration cents into the Σ TOC·duration
  /// objective (cents·hour/task): one migration cent counts as this many
  /// objective units. kAutoMigrationWeight derives it as 1 / (the
  /// duration-weighted mean of the epochs' best-case tasks/hour) — a
  /// migration dollar then competes against the operating dollars one
  /// epoch-hour spends at reference throughput. 0 makes migration free.
  double migration_weight = kAutoMigrationWeight;

  /// Candidate search per epoch (ignored when exhaustive_pool is set).
  EpochSearch search = EpochSearch::kExact;

  /// true: the candidate pool is the *entire* M^N layout space (guarded by
  /// max_pool_layouts) and the epoch DP is provably optimal over all layout
  /// sequences — the mode the brute-force equivalence tests pin. false:
  /// the pool is {current layout} ∪ {each epoch's solo optimum}, which
  /// keeps the DP exact *over the pool* and guarantees the plan never
  /// loses to the stay-forever or re-optimize-every-epoch baselines (both
  /// are pool sequences).
  bool exhaustive_pool = false;

  /// Guard for exhaustive_pool (the DP is O(E·K²) in the pool size K).
  long long max_pool_layouts = 20'000;
};

/// The layout chosen for one epoch, with its bill.
struct EpochPlanStep {
  std::vector<int> placement;
  double toc_cents_per_task = 0.0;
  /// TOC · epoch duration, the epoch's objective term (cents·hour/task).
  double epoch_objective = 0.0;
  /// Migration from the previous layout (the current layout for step 0;
  /// zero when the planner was given no current layout). Unweighted cents.
  double migration_cents = 0.0;
  double migration_hours = 0.0;
  int objects_moved = 0;
};

/// A multi-epoch re-provisioning plan.
///
/// Objective accounting contract (shared bit-for-bit by Plan,
/// EvaluateSequence, and ReplayLayoutTrack in exec/trace_replay.h):
///
///   total = 0
///   for each epoch e in order:
///     total = (total + migration_weight · migration_cents_e)
///             + toc_e · duration_e
///
/// — left-to-right, epochs in order, so independently recomputed totals of
/// the same sequence are bit-identical (floating-point addition is not
/// associative; a different order would drift by ULPs).
///
/// Counters (the SearchStats base): pool_size; layouts_evaluated, the
/// per-epoch solo searches' totals plus the pool × epoch matrix (one per
/// sequence epoch for EvaluateSequence); the solo searches' node, warm-start
/// and plan-cache counters, summed; arena_bytes_peak, the max of theirs and
/// the bytes of the DP tables.
struct ReprovisionPlan : SearchStats {
  Status status = Status::OK();
  std::vector<EpochPlanStep> steps;

  double total_objective = 0.0;
  double total_migration_cents = 0.0;
  double total_migration_hours = 0.0;
  /// Steps whose layout differs from their predecessor's.
  int num_migrations = 0;

  /// The weight the run actually used (migration_weight, or the auto
  /// calibration when kAutoMigrationWeight was configured).
  double resolved_migration_weight = 0.0;

  double plan_ms = 0.0;
};

/// The stateful epoch planner: refactors the optimizer stack from
/// "stateless DotProblem → DotResult" to "current layout + workload over
/// time → per-epoch layout plan", minimizing Σ epoch TOC·duration plus the
/// (weighted) migration cost between consecutive layouts. Each window of
/// the WorkloadTraceSpec is one epoch; the planner reads its workload,
/// duration, profiles and label, and ignores its io_scale and the spec's
/// count_noise_cv and seed (ground truth that the recorder and the replays
/// measure).
///
/// Mechanics: a candidate layout pool is seeded per epoch by the existing
/// searches (warm-started branch-and-bound, or DOT's Procedure 1), every
/// pool layout is scored under every epoch through that epoch's
/// DotOptimizer — the one its solo search ran on (EvaluateQuick,
/// bit-identical to the full path the exact searches re-score winners
/// through) — and an exact dynamic program
/// over epochs picks the cheapest sequence; the migration term enters the
/// DP transition exactly (per-object, zero for staying — the admissible
/// floor DESIGN.md §8 argues from).
///
/// Special case, pinned by tests: one epoch + zero migration model (or no
/// current layout) reproduces ExactSearch / Optimize *bit-identically* —
/// same placement, same TOC, same infeasibility verdicts — because the
/// pool contains the search's winner, every candidate is scored through
/// the optimizer the search ran on, and multiplying TOC by the positive
/// duration is monotone.
///
/// Each epoch's problem is a copy of the planner's DotProblem that takes
/// the window's workload and profiles, so an epoch derives its targets
/// exactly as a single-shot run would; the problem's targets_override and
/// io_scale_hint are ignored. `options.num_threads` also drives the
/// pool × epoch matrix; results are bit-identical at every thread count —
/// searches guarantee it, and the matrix is filled into distinct slots
/// and reduced in fixed order.
///
/// Prefer dot::Solve(problem, spec) with SolveMethod::kEpochPlan over
/// instantiating this class (dot/solve.h): the facade is the documented
/// entry point and hands SolveSpec::epoch to the planner unchanged. The
/// class remains public for EvaluateSequence (the baseline/brute-force
/// pricing kernel) and for drivers that reuse one planner across
/// schedules.
class ReprovisionPlanner {
 public:
  /// The pointees of `problem` (schema, box) must outlive the planner.
  ReprovisionPlanner(const DotProblem& problem, ReprovisionConfig config);

  /// Plans layouts for `schedule` starting from `current_layout` (empty =
  /// greenfield: no epoch-0 migration is charged). A problem
  /// ValidateEpochProblem rejects, an invalid config
  /// (ValidateReprovisionConfig), an invalid spec (ValidateTraceSpec) or a
  /// current layout that is not a placement on the box (ValidatePlacement)
  /// returns InvalidArgument, as does a window whose workload is built
  /// over another object count than the problem's schema.
  ReprovisionPlan Plan(const WorkloadTraceSpec& schedule,
                       const std::vector<int>& current_layout = {}) const;

  /// Prices a fixed layout sequence under exactly the plan objective —
  /// same scoring, same accounting order (see ReprovisionPlan) — after
  /// the same problem, config, spec and current-layout checks. Every
  /// sequence layout must be a valid placement (else InvalidArgument).
  /// The baseline evaluator: bench_reprovision prices the frozen-layout
  /// and migration-oblivious baselines through this, and the DP-optimality
  /// tests brute-force sequences through it.
  ReprovisionPlan EvaluateSequence(
      const WorkloadTraceSpec& schedule,
      const std::vector<std::vector<int>>& placements,
      const std::vector<int>& current_layout = {}) const;

 private:
  DotProblem problem_;  ///< the per-epoch template (see the class comment)
  ReprovisionConfig config_;
};

/// The problem checks Plan and EvaluateSequence run first (Solve(kEpochPlan)
/// forwards the status), returned as InvalidArgument instead of aborting:
/// schema and box set, no scenario ensemble (per-epoch point problems
/// cannot honor one), relative_sla in (0, 1] even under a targets_override
/// (every epoch derives its targets from it), and a valid tail SLA.
Status ValidateEpochProblem(const DotProblem& problem);

/// The config checks Plan and EvaluateSequence run first, returned in
/// ReprovisionPlan::status instead of aborting: max_pool_layouts >= 1 and
/// the migration weight (ValidateMigrationWeight).
Status ValidateReprovisionConfig(const ReprovisionConfig& config);

/// A migration weight must be >= 0 or kAutoMigrationWeight: a negative
/// weight would turn migration cost into a reward, and make a planner churn
/// layouts to collect it. NaN is rejected. The one check behind
/// ValidateReprovisionConfig and ValidateAdvisorConfig.
Status ValidateMigrationWeight(double weight);

/// Runs the configured candidate search on the problem `optimizer` holds —
/// warm-started branch-and-bound for EpochSearch::kExact, DOT's Procedure
/// 1 for kDot — and appends the winning placement to `pool` unless already
/// present. The search runs on `optimizer` itself, so the caller scores
/// its pool with the scorer the search built. This is the seeding step of
/// ReprovisionPlanner::Plan's non-exhaustive pool, exposed as a free
/// function so the fleet planner's FleetPoolMode::kSearch reuses exactly
/// the same searches (same engines, same warm-start semantics) instead of
/// growing a second seeding path. Returns the search's counters; an
/// infeasible search appends nothing.
SearchStats AppendSoloCandidate(
    const DotOptimizer& optimizer, EpochSearch search,
    std::vector<std::vector<int>>* pool,
    const std::vector<std::vector<int>>* warm_starts = nullptr);

}  // namespace dot

#endif  // DOTPROV_DOT_REPROVISION_H_
