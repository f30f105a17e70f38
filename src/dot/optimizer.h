#ifndef DOTPROV_DOT_OPTIMIZER_H_
#define DOTPROV_DOT_OPTIMIZER_H_

#include <vector>

#include "common/status.h"
#include "dot/ensemble.h"
#include "dot/layout.h"
#include "dot/problem.h"
#include "dot/search_stats.h"
#include "dot/sla.h"

namespace dot {

/// Outcome of one optimization run (DOT heuristic or exact search). The
/// SearchStats base carries the engine counters: layouts_evaluated and the
/// plan-cache pair for every strategy, the node, warm-start and arena
/// counters for branch-and-bound only.
struct DotResult : SearchStats {
  /// OK, or Infeasible when no enumerated layout met every constraint
  /// (§3: "rather than returning a recommended layout, it may return an
  /// answer marked as 'infeasible'").
  Status status = Status::OK();

  /// The recommended placement L*; meaningful only when status is OK.
  std::vector<int> placement;

  /// TOC of L*: C(L*) / T(L*, W), cents per task (§2.1).
  double toc_cents_per_task = 0.0;

  /// C(L*) in cents/hour.
  double layout_cost_cents_per_hour = 0.0;

  /// The workload estimate on L*.
  PerfEstimate estimate;

  /// The targets the run enforced (includes the best-case baseline).
  PerfTargets targets;

  /// Wall-clock optimization time.
  double optimize_ms = 0.0;
};

/// The heuristic optimization phase of DOT (Procedure 1): start from L0
/// (everything on the most expensive class), apply the score-ordered move
/// sequence from enumerateMoves one by one, keep every feasible layout,
/// and return the feasible layout with the lowest estimated TOC.
///
/// Prefer dot::Solve(problem, {SolveMethod::kDotHeuristic}) over calling
/// Optimize() directly (dot/solve.h): the facade is the documented entry
/// point for every engine. The class itself stays public — it is the
/// estimator (EstimateToc, targets()) the whole evaluation stack is built
/// on, not just a search.
class DotOptimizer {
 public:
  /// Asserts ValidateProblem(problem): entry points return it first.
  explicit DotOptimizer(const DotProblem& problem);

  /// InvalidArgument, with nothing walked, when DotProblem::profiles is
  /// null (move scoring needs them).
  DotResult Optimize() const;

  /// estimateTOC(W, L): workload estimate and TOC in cents/task under the
  /// problem's cost model and forecast (applies the refinement io_scale
  /// hint if set). The returned TOC is the forecast's objective (E[TOC] or
  /// CVaR; the point forecast's own TOC at K = 1) and `estimate_out`
  /// receives scenario 0's estimate. `cost_out` (if non-null) receives
  /// C(L) in cents/hour — the numerator the TOC was computed from, so
  /// callers need not recompute it. `sla_ok_out` (if non-null) receives
  /// the SLA verdict — the chance constraint, which at K = 1 is
  /// MeetsTargets — and is the verdict callers must use for feasibility
  /// (judging the nominal estimate alone would ignore an ensemble's miss
  /// mass).
  double EstimateToc(const std::vector<int>& placement,
                     PerfEstimate* estimate_out, double* cost_out = nullptr,
                     bool* sla_ok_out = nullptr) const;

  /// Overload for callers that already hold a Layout (the candidate-
  /// evaluation hot loop), skipping the placement re-validation and copy.
  double EstimateToc(const Layout& layout, PerfEstimate* estimate_out,
                     double* cost_out = nullptr,
                     bool* sla_ok_out = nullptr) const;

  /// The targets implied by the problem's relative SLA.
  const PerfTargets& targets() const { return targets_; }

  /// The problem instance this optimizer was built for.
  const DotProblem& problem() const { return problem_; }

  /// The forecast every candidate is priced under (DESIGN.md §10):
  /// problem().ensemble, or else the point forecast as a one-scenario
  /// nominal ensemble.
  const ScenarioEnsemble& forecast() const { return *forecast_; }

  /// The forecast's objective: problem().ensemble_objective under an
  /// ensemble, else the default (a problem's ensemble_objective is ignored
  /// without an ensemble).
  const EnsembleObjective& objective() const { return objective_; }

 private:
  DotProblem problem_;
  PerfTargets targets_;
  const ScenarioEnsemble* forecast_;
  EnsembleObjective objective_;
  EnsembleEstimator estimator_;  ///< the full evaluation path
};

/// DotOptimizer's preconditions as a Status instead of an abort: schema,
/// box and workload set; relative_sla in (0, 1] unless a targets_override
/// supplies the targets (ValidateRelativeSla); a valid tail SLA
/// (ValidateTailSla) and io_scale_hint (ValidateIoScale); and, when the
/// problem carries an ensemble, a valid objective and scenario set
/// (ValidateEnsembleObjective, ValidateEnsemble — a point problem's
/// objective is not read, so it is not checked). ExactSearch,
/// Solve(kDotHeuristic), RunDotPipeline and ValidateFleetRoster return it;
/// DotOptimizer asserts it.
Status ValidateProblem(const DotProblem& problem);

}  // namespace dot

#endif  // DOTPROV_DOT_OPTIMIZER_H_
