#ifndef DOTPROV_DOT_PROBLEM_H_
#define DOTPROV_DOT_PROBLEM_H_

#include <vector>

#include "catalog/schema.h"
#include "dot/ensemble.h"
#include "dot/sla.h"
#include "storage/pricing.h"
#include "storage/storage_class.h"
#include "workload/profiler.h"
#include "workload/scenario.h"
#include "workload/workload.h"

namespace dot {

/// How the optimizer decides whether to keep a move in the working layout
/// (ablation knob; see DESIGN.md §3 and bench_ablation_heuristics).
enum class MoveAcceptance {
  /// Keep a feasible move only if it does not raise the working layout's
  /// estimated TOC (our default refinement; reaches the paper's DOT≈ES
  /// quality bands).
  kTocNonWorsening,
  /// Keep any feasible move — Procedure 1 exactly as printed. Later,
  /// worse-scored moves of a group override earlier placements.
  kAnyFeasible,
};

/// The search-engine knobs shared by every entry point that runs a layout
/// search (DotOptimizer, ExactSearch, ReprovisionPlanner, the advisor
/// loop). One embeddable block instead of loose per-struct fields, so a
/// driver forwards its caller's engine configuration wholesale — the knobs
/// steer *how* a search runs, never *what* it is solving, and none of them
/// can change a result (only wall-clock), except the ablation knobs whose
/// defaults reproduce the full DOT method.
struct SearchOptions {
  /// Execution lanes (1 = serial, 0 = std::thread::hardware_concurrency())
  /// for the engines that fan out independent work: enumeration
  /// (layout-space shards), the epoch planner's pool × epoch score matrix,
  /// and the fleet planner's pool builds and per-pool pricing. The
  /// provisioner fans its per-option DOT runs out the same way, sized by
  /// ProvisionOverOptions' own `num_threads` argument. The DOT heuristic
  /// walk and the branch-and-bound search are serial and ignore this knob:
  /// every tree the exact search builds is a few hundred nodes at most, and
  /// threads only slowed it down. Results are bit-identical at every
  /// setting — candidates are reduced under a total order (TOC, then
  /// lexicographically lowest placement), never by arrival time.
  int num_threads = 1;

  /// TOC-only fast path for candidate scoring (DESIGN.md §4): per-object
  /// device-time tables, a footprint-keyed DSS plan cache, and
  /// allocation-free space/cost sums. Scores are bit-identical to the full
  /// estimate, so this changes wall-clock only; the flag exists for the
  /// fast-vs-full equivalence tests and as an escape hatch.
  bool use_fast_eval = true;

  // --- ablation knobs (defaults reproduce the full DOT method) ---

  /// Move acceptance rule (see MoveAcceptance).
  MoveAcceptance acceptance = MoveAcceptance::kTocNonWorsening;

  /// true: enumerate placements per *object group* (table + its indices,
  /// §3.2), capturing the plan interaction. false: per-object moves with
  /// independence assumed everywhere — the simpler enumeration of prior
  /// work [10] the paper argues against in §3.1.
  bool group_objects = true;

  /// Maximum passes over the sorted move list (1 = single pass, the
  /// paper's literal procedure; >1 adds the hill-climbing convergence
  /// sweeps).
  int max_sweeps = 5;
};

/// One instance of the §2.5 optimization problem: objects O (schema),
/// storage classes D with prices P and capacities C (box), workload W with
/// performance constraints T (workload model + relative SLA).
struct DotProblem {
  const Schema* schema = nullptr;
  const BoxConfig* box = nullptr;
  const WorkloadModel* workload = nullptr;

  /// Performance constraint as a fraction of the best case (§2.4).
  double relative_sla = 0.5;

  /// Linear (§2.1) or discrete-sized (§5.2) layout cost.
  CostModelSpec cost_model;

  /// Workload profiles X from the profiling phase; drive move scoring.
  const WorkloadProfiles* profiles = nullptr;

  /// Per-object correction factors from the refinement phase (ratio of
  /// measured to estimated I/O); empty on the first optimization round.
  std::vector<double> io_scale_hint;

  /// Optional absolute performance targets. When set, they replace the
  /// targets derived from `relative_sla` on this box — the §5.1 generalized
  /// provisioning problem needs one common constraint set T across all
  /// candidate configurations, not per-box relative ones. Must outlive the
  /// optimization run. Takes precedence over `tail_sla` (an override is an
  /// already-derived constraint set; tail tightening happens at
  /// derivation).
  const PerfTargets* targets_override = nullptr;

  /// Optional percentile response-time target folded into the derived caps
  /// (DESIGN.md §10.4). Default (percentile 0) leaves target derivation
  /// bit-identical to the mean-only path.
  TailSla tail_sla;

  /// Optional scenario ensemble (DESIGN.md §10) — the one way to ask for
  /// a robust plan. When set, every candidate is scored under
  /// `ensemble_objective` across these scenarios; scenario models default
  /// to `workload`, and their io_scale composes onto `io_scale_hint`. Must
  /// outlive the run. Null = the point forecast, which the engines price as
  /// the one-scenario nominal ensemble (so a K=1 nominal ensemble
  /// reproduces it bit for bit: same placements, TOC and counters).
  /// Single-shot methods only: the epoch and fleet planners reject it.
  const ScenarioEnsemble* ensemble = nullptr;

  /// What "best over the ensemble" means; ignored when `ensemble` is null.
  EnsembleObjective ensemble_objective;

  /// Engine knobs (threads, fast path, ablation switches) as one block.
  SearchOptions options;
};

}  // namespace dot

#endif  // DOTPROV_DOT_PROBLEM_H_
