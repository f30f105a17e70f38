#ifndef DOTPROV_ADVISOR_ADVISOR_H_
#define DOTPROV_ADVISOR_ADVISOR_H_

#include <vector>

#include "advisor/drift.h"
#include "advisor/feed.h"
#include "dot/solve.h"
#include "storage/migration.h"

namespace dot {

/// Knobs of the always-on advisor loop.
struct AdvisorConfig {
  /// Change detection over the observed I/O profile.
  DriftConfig drift;

  /// Engine behind every (re-)plan, driven through dot::Solve. kExact
  /// re-plans are warm-started from the incumbent and the cached candidate
  /// pool, so a re-plan near the incumbent prunes almost everything.
  SolveMethod replan_method = SolveMethod::kExact;

  /// What moving data costs, and how the bill folds into the commit test.
  /// kAutoMigrationWeight resolves to 1 / (the initial plan's best-case
  /// tasks/hour): a migration dollar competes with the operating dollars
  /// one hour at reference throughput spends.
  MigrationCostModel migration;
  double migration_weight = kAutoMigrationWeight;

  /// How long the newly observed profile is assumed to hold when deciding
  /// whether a migration pays for itself.
  double payback_horizon_hours = 24.0;

  /// Windows to hold off after a re-plan before drift can trigger again
  /// (the detector is rebased anyway; this additionally damps thrash when
  /// the profile is still settling).
  int cooldown_windows = 1;

  /// Cap on the cached candidate pool (past incumbents and re-plan
  /// winners) used to warm-start exact re-plans.
  int max_pool = 16;

  /// Estimate per-object io_scale from the smoothed observed counts and
  /// re-plan with the hint (the refinement-loop idiom, §3 Figure 2, run
  /// continuously). false: re-plan on the unscaled base model — an
  /// ablation switch.
  bool estimate_io_scale = true;

  /// Known workload classes (e.g. the HTAP mixes a box alternates
  /// between). When non-empty, every re-plan first classifies: the model
  /// whose predicted profile on the incumbent best matches the re-plan
  /// window's observed profile becomes the planning model, and io_scale
  /// hints correct only the residual. Per-object scaling cannot express
  /// a task-mix shift (it rescales I/O, not what counts as a task), so
  /// without this a mix swing is planned under the wrong TOC denominator.
  /// Models must be built over the problem's schema/box and outlive the
  /// advisor; ties resolve to the lowest index (deterministic). Empty:
  /// the base model plus scale hints is all there is.
  std::vector<const WorkloadModel*> model_pool;

  /// true: commit a re-plan's winner only when GateMigration approves the
  /// bill. false: commit any winner that differs from the incumbent — the
  /// "always take the new optimum" baseline.
  bool gate_on_migration_bill = true;

  /// > 0: re-plan every Nth window regardless of drift (the fixed-interval
  /// baseline; 1 = every window). 0: re-plan only on drift.
  int replan_interval_windows = 0;
};

/// What the advisor decided after observing one window.
struct AdvisorDecision {
  int window = -1;
  double deviation = 0.0;  ///< smoothed relative deviation after the window
  double statistic = 0.0;  ///< accumulated drift statistic
  bool replanned = false;
  bool migrated = false;

  /// When replanned: both TOCs under the re-plan's (scaled) model, and the
  /// gate's full arithmetic. A re-plan that found the SLA infeasible under
  /// the new profile leaves candidate_toc at 0 and never migrates.
  double incumbent_toc = 0.0;
  double candidate_toc = 0.0;
  MigrationVerdict verdict;

  /// Whether the incumbent still met the SLA under the re-plan's profile.
  /// false overrides the migration gate: restoring the SLA is what the
  /// provisioning contract promises, so the bill is paid regardless (the
  /// refinement loop of Figure 2, run continuously).
  bool incumbent_feasible = true;

  /// Index into AdvisorConfig::model_pool of the class this re-plan was
  /// planned under; -1 when no pool is configured.
  int model_index = -1;
};

/// One advisor session over a feed. The SearchStats base sums the counters
/// of the session's re-plan solves (each Solve's provenance, through Add);
/// the initial solve of Init is not counted.
struct AdvisorRun : SearchStats {
  Status status = Status::OK();

  std::vector<int> initial_layout;

  /// One entry per observed window, in order.
  std::vector<AdvisorDecision> decisions;

  /// The layout in effect *during* window w — the incumbent at window
  /// entry. A decision made from window w's observation takes effect at
  /// window w + 1 (causality: the advisor cannot re-lay-out the past).
  /// Feed directly to ReplayLayoutTrack for realized cost.
  std::vector<std::vector<int>> layout_by_window;

  std::vector<int> final_layout;
  int num_replans = 0;
  int num_migrations = 0;
};

/// The config checks Advisor::Init runs first, returned as
/// InvalidArgument instead of aborting: replan_method is a single-shot
/// method, not kEpochPlan or kFleet (the advisor is the stateful loop),
/// payback_horizon_hours >= 0, cooldown_windows >= 0,
/// replan_interval_windows >= 0, max_pool >= 1, no null model_pool entry,
/// the drift config (ValidateDriftConfig) and the migration weight
/// (ValidateMigrationWeight).
Status ValidateAdvisorConfig(const AdvisorConfig& config);

/// The always-on advisor: replays a workload trace through a virtual-time
/// feed, tracks the observed I/O profile against the incumbent plan's
/// baseline, and on drift re-plans incrementally — warm-started from the
/// incumbent and the cached candidate pool — committing a migration only
/// when its projected saving beats the bill. Fully deterministic: the
/// decision sequence is a pure function of the problem, the config and the
/// feed, bit-identical at any options.num_threads (pinned by tests).
class Advisor {
 public:
  /// `problem` is copied; its pointees (schema, box, workload, profiles)
  /// must outlive the advisor. problem.options carries the engine knobs
  /// for every re-plan, and a problem.ensemble (DESIGN.md §10) puts the
  /// initial plan, every re-plan and the incumbent pricing under it.
  Advisor(const DotProblem& problem, AdvisorConfig config);

  /// Solves the initial incumbent through dot::Solve, installs the
  /// model-predicted I/O profile as the drift baseline, and resolves the
  /// migration weight. Called implicitly by the first Run. A config
  /// ValidateAdvisorConfig rejects, or a model_pool model built over
  /// another schema than the problem's (pointer or fingerprint), returns
  /// InvalidArgument, and a failed initial solve (e.g. no workload) returns
  /// its status.
  Status Init();

  /// Drains `feed` through a FeedPlayer, deciding after every window.
  /// Callable repeatedly; incumbent, detector and pool state carry over
  /// (one long advisor session across several feed segments). A malformed
  /// event, including one whose I/O map does not cover the problem's
  /// objects, ends the run with InvalidArgument naming its window; the
  /// decisions made before it stay in the run.
  AdvisorRun Run(TraceFeed* feed);

  const std::vector<int>& incumbent() const { return incumbent_; }
  double incumbent_toc() const { return incumbent_toc_; }
  const DriftDetector& detector() const { return detector_; }
  double resolved_migration_weight() const { return resolved_weight_; }

 private:
  void Observe(const TraceEvent& event, AdvisorRun* run);
  int ClassifyWorkload(const ObjectIoMap& observed);
  std::vector<double> EstimateIoScale(const ObjectIoMap& observed) const;
  void AddToPool(const std::vector<int>& layout);

  DotProblem problem_;  ///< io_scale_hint mutated by re-plans
  AdvisorConfig config_;
  DriftDetector detector_;  ///< built by Init from config_.drift

  std::vector<int> incumbent_;
  double incumbent_toc_ = 0.0;

  /// The planning model's predicted counts on the incumbent: the
  /// denominator of io_scale estimation (scale is always relative to the
  /// *unscaled* model, matching DotProblem::io_scale_hint's contract). Init
  /// sets it from the base model; with a model_pool, every re-plan's
  /// classification replaces it with the chosen class's counts.
  ObjectIoMap reference_counts_;

  /// Past incumbents and re-plan winners, oldest first: the warm starts.
  /// The incumbent is always among them.
  std::vector<std::vector<int>> pool_;
  /// pool_predicted_[i][m]: model_pool[m]'s predicted counts on pool_[i],
  /// classification's memo; empty until pool_[i] is first classified on,
  /// and evicted with it.
  std::vector<std::vector<ObjectIoMap>> pool_predicted_;
  double resolved_weight_ = 0.0;
  int cooldown_remaining_ = 0;
  long long windows_seen_ = 0;
  bool initialized_ = false;
};

}  // namespace dot

#endif  // DOTPROV_ADVISOR_ADVISOR_H_
