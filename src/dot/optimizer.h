#ifndef DOTPROV_DOT_OPTIMIZER_H_
#define DOTPROV_DOT_OPTIMIZER_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "dot/ensemble.h"
#include "dot/layout.h"
#include "dot/problem.h"
#include "dot/sla.h"

namespace dot {

/// Outcome of one optimization run (DOT heuristic or exhaustive search).
struct DotResult {
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

  /// Number of candidate layouts evaluated (|Δ|+1 for DOT, M^N for the
  /// enumerating exact search, the surviving leaves for branch-and-bound).
  long long layouts_evaluated = 0;

  /// Branch-and-bound search statistics (all 0 for the other strategies).
  /// A node is one partial assignment the search visited: it is either
  /// expanded (its children were generated), pruned, or — at full depth —
  /// an evaluated leaf (counted in layouts_evaluated). `layouts_pruned` is
  /// the number of complete layouts under the pruned subtrees, so
  /// layouts_evaluated + layouts_pruned == M^N always holds (saturating at
  /// LLONG_MAX for spaces too large to count).
  long long nodes_expanded = 0;
  long long nodes_pruned_bound = 0;       ///< TOC bound ≥ incumbent
  long long nodes_pruned_infeasible = 0;  ///< capacity/SLA cannot be met
  long long layouts_pruned = 0;

  /// Caller-supplied warm starts that were valid and feasible, i.e. that
  /// actually seeded the branch-and-bound incumbent (0 for the other
  /// strategies and when no warm starts were passed). Diagnostics for the
  /// SolveResult provenance block; cannot affect the search result.
  int warm_start_hits = 0;

  /// DSS plan-cache traffic of the run's fast evaluation path: a hit is a
  /// template time served from its dense cache slot, a miss one run of the
  /// template's compiled program (templates too large for a dense cache
  /// miss on every probe). Both 0 for OLTP models, which have no plan
  /// cache, and when the fast path is disabled; HTAP models report their
  /// analytic side's cache. Diagnostics only: the counts vary with thread
  /// count even though the search result does not.
  long long plan_cache_hits = 0;
  long long plan_cache_misses = 0;

  /// Search-arena traffic of the branch-and-bound engine (0 for the other
  /// engines, which allocate nothing per node): total Reset() calls across
  /// all task arenas plus the prefix walker's, and the largest high-water
  /// live-byte mark of any single arena. resets is a sum over the
  /// thread-count-independent shard set and bytes_peak an order-free max,
  /// so both are deterministic at any parallelism. Diagnostics only.
  long long arena_resets = 0;
  long long arena_bytes_peak = 0;

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
  explicit DotOptimizer(const DotProblem& problem);

  DotResult Optimize() const;

  /// estimateTOC(W, L): workload estimate and TOC in cents/task under the
  /// problem's cost model (applies the refinement io_scale hint if set).
  /// Under an ensemble the returned TOC is the ensemble objective
  /// (E[TOC] or CVaR) and `estimate_out` receives scenario 0's estimate.
  /// `cost_out` (if non-null) receives C(L) in cents/hour — the numerator
  /// the TOC was computed from, so callers need not recompute it.
  /// `sla_ok_out` (if non-null) receives the SLA verdict — MeetsTargets on
  /// the point forecast, the chance constraint under an ensemble — which is
  /// the verdict callers must use for feasibility (judging the nominal
  /// estimate alone would ignore the ensemble's miss mass).
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

 private:
  DotProblem problem_;
  PerfTargets targets_;

  /// Full-path ensemble evaluation; null in point-forecast mode. (Makes
  /// the optimizer move-only, which every caller already respects.)
  std::unique_ptr<EnsembleEstimator> ensemble_;
};

/// Repeatedly relaxes the relative SLA by `relax_factor` until `optimize`
/// (run at that SLA) finds a feasible layout — the loop the paper applies
/// when capacity and performance constraints conflict (§4.5.3, Figure 9:
/// "we slightly relax the relative SLA and repeat the optimization").
/// Returns the final result; `problem.relative_sla` is updated in place to
/// the achieved SLA.
DotResult OptimizeWithRelaxation(DotProblem& problem, double relax_factor,
                                 double min_sla);

}  // namespace dot

#endif  // DOTPROV_DOT_OPTIMIZER_H_
