#ifndef DOTPROV_DOT_SOLVE_H_
#define DOTPROV_DOT_SOLVE_H_

#include <vector>

#include "common/status.h"
#include "dot/bnb_search.h"
#include "dot/optimizer.h"
#include "dot/problem.h"
#include "dot/reprovision.h"
#include "fleet/fleet_planner.h"
#include "workload/trace.h"

namespace dot {

/// Which engine Solve() drives. Every method consumes the same DotProblem
/// and fills the same SolveResult; they differ in optimality guarantees
/// and cost, never in what they are solving.
enum class SolveMethod {
  /// Procedure 1 (DotOptimizer::Optimize): the paper's heuristic.
  /// Requires DotProblem::profiles.
  kDotHeuristic,
  /// ExactSearch(kBranchAndBound): the true optimum, tractable on full
  /// benchmark schemas. The default.
  kExact,
  /// ExactSearch(kEnumerate): score every layout; refuses spaces larger
  /// than SolveSpec::max_layouts.
  kEnumerate,
  /// ReprovisionPlanner: the stateful epoch DP over SolveSpec::schedule
  /// (or a synthetic one-epoch schedule of problem.workload when none is
  /// given), charging SolveSpec::epoch.migration between consecutive
  /// layouts. Every epoch honors the problem's relative and tail SLA,
  /// cost model and engine knobs.
  kEpochPlan,
  /// FleetPlanner: N per-tenant problems under one budget/capacity
  /// (SolveSpec::fleet). The DotProblem supplies the shared box and the
  /// engine knobs; its schema/workload may be null on this path.
  kFleet,
};

/// The kFleet inputs: the tenants and the fleet knobs. The tenants vector
/// must outlive the Solve() call; every tenant's problem must reference
/// the same box as the DotProblem passed to Solve, whose options drive the
/// fleet run — the problem is the one source of engine knobs on every
/// method.
struct FleetSpec {
  const std::vector<FleetTenant>* tenants = nullptr;
  FleetConfig config;
};

/// Per-call inputs of Solve() that are not part of the problem instance:
/// which engine, and — for the stateful and fleet paths — the schedule,
/// the incumbent layout, the migration pricing, or the tenant roster.
struct SolveSpec {
  SolveMethod method = SolveMethod::kExact;

  /// kEnumerate only: refuse layout spaces larger than this.
  long long max_layouts = kDefaultMaxEnumeratedLayouts;

  /// kExact only: seed layouts for the branch-and-bound incumbent (the
  /// advisor passes its incumbent layout and cached candidate pool).
  /// Tightens pruning; provably cannot change the result (bnb_search.h).
  const std::vector<std::vector<int>>* warm_starts = nullptr;

  // --- kEpochPlan only ---

  /// The epochs to plan across, one per window (the planner ignores the
  /// windows' io_scale and the spec's noise and seed). Null = one window
  /// of problem.workload with duration 1 h and problem.profiles — the
  /// single-shot special case, which (with a zero migration model)
  /// reproduces kExact bit for bit.
  const WorkloadTraceSpec* schedule = nullptr;

  /// The layout the box runs today; empty = greenfield (no epoch-0
  /// migration is charged). Otherwise it must place every schema object
  /// on one of the box's classes (ValidatePlacement).
  std::vector<int> current_layout;

  /// The planner's own knobs — migration pricing and weight, candidate
  /// search, pool mode (dot/reprovision.h) — handed to ReprovisionPlanner
  /// unchanged.
  ReprovisionConfig epoch;

  // --- kFleet only ---

  /// The fleet to provision (see FleetSpec). Must outlive the call.
  const FleetSpec* fleet = nullptr;
};

/// Where a SolveResult came from and what the engine did to produce it —
/// one block with the same shape for every method, so readers (the advisor
/// loop, the benches) report counters without switching on the engine.
/// The SearchStats base is the payload's counters (`dot`, `plan` or
/// `fleet`), copied whole; counters a method has no notion of stay zero
/// (DESIGN.md §11 tabulates which method fills what).
struct SolveProvenance : SearchStats {
  /// The method that ran, and a stable human-readable engine label
  /// ("dot-heuristic", "branch-and-bound", "enumerate", "epoch-dp",
  /// "fleet-lagrangian").
  SolveMethod method = SolveMethod::kExact;
  const char* engine = "";

  /// Wall-clock of the engine run (the payload's optimize_ms or plan_ms).
  double solve_ms = 0.0;
};

/// The one result type every Solve() method fills. The convenience fields
/// (placement, toc) are populated on success, engine counters live in
/// `provenance`, and the engine-specific payloads carry everything else:
///
///   * single-shot methods fill `dot` — bit-identical to calling
///     DotOptimizer::Optimize / ExactSearch directly (same placement, TOC,
///     estimate, counters, infeasibility verdicts);
///   * kEpochPlan sets has_plan and fills `plan` — bit-identical to
///     ReprovisionPlanner::Plan, a rejected input included — and the
///     convenience fields mirror the plan's first epoch (the layout to
///     deploy now);
///   * kFleet sets has_fleet and fills `fleet` — bit-identical to
///     FleetPlanner::Plan — once the planner runs. `placement` stays empty
///     (a fleet has one placement per tenant, in fleet.tenants) and
///     toc_cents_per_task is the fleet total.
struct SolveResult {
  Status status = Status::OK();

  /// The recommended placement: the search winner, or the plan's first
  /// epoch. Meaningful only when status is OK; empty for kFleet.
  std::vector<int> placement;

  /// TOC of `placement` under its (first) epoch — or the fleet-wide total
  /// for kFleet — cents/task.
  double toc_cents_per_task = 0.0;

  /// Engine attribution and counters, one shape for every method.
  SolveProvenance provenance;

  /// Single-shot payload (kDotHeuristic, kExact, kEnumerate).
  DotResult dot;

  /// Stateful payload (kEpochPlan).
  bool has_plan = false;
  ReprovisionPlan plan;

  /// Fleet payload (kFleet).
  bool has_fleet = false;
  FleetPlan fleet;
};

/// The unified optimization entry point: one facade over the heuristic
/// optimizer, the exact searches, the stateful epoch planner, and the
/// fleet planner, so callers (examples, the advisor loop, the benches)
/// pick an engine with a spec instead of wiring a different API per
/// method. This is the documented way to run any engine; the engine
/// classes stay public as internals.
///
/// Solve() routes and never aborts on a malformed input: each input is
/// checked once, by the engine it enters (DESIGN.md §11), and Solve
/// forwards that status — the one a direct engine call returns. It checks
/// only kFleet's SolveSpec::fleet itself. A single-shot method runs
/// ValidateProblem (the optimizer's constructor asserts it) and, for
/// kEnumerate, CheckEnumerationGuard, then builds one DotOptimizer and runs
/// the overload below on it; its solve_ms counts the target derivation.
///
/// kEpochPlan runs ReprovisionPlanner(problem, spec.epoch): each epoch
/// derives its targets from its own best case, tail SLA included, so
/// problem.targets_override and problem.io_scale_hint are ignored on this
/// path.
SolveResult Solve(const DotProblem& problem, const SolveSpec& spec = {});

/// The single-shot methods (kDotHeuristic, kExact, kEnumerate) on the
/// optimizer the caller holds for a problem, so that the search and the
/// caller's own pricing share one set of targets and one scorer (the
/// advisor prices its incumbent on the re-plan's scorer). Returns what
/// Solve(optimizer.problem(), spec) returns, bit for bit, except that
/// solve_ms and dot.optimize_ms count the engine run alone. Any other
/// method returns InvalidArgument.
SolveResult Solve(const DotOptimizer& optimizer, const SolveSpec& spec);

}  // namespace dot

#endif  // DOTPROV_DOT_SOLVE_H_
