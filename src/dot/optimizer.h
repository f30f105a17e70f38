#ifndef DOTPROV_DOT_OPTIMIZER_H_
#define DOTPROV_DOT_OPTIMIZER_H_

#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "dot/candidate_evaluator.h"
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

/// The estimator and evaluator of one problem, and the heuristic
/// optimization phase of DOT (Procedure 1): start from L0 (everything on
/// the most expensive class), apply the score-ordered move sequence from
/// enumerateMoves one by one, keep every feasible layout, and return the
/// feasible layout with the lowest estimated TOC. Every engine that
/// searches a problem runs on its one DotOptimizer, which derives the
/// targets once and builds the fast scorer once (DESIGN.md §2).
///
/// Prefer dot::Solve(problem, {SolveMethod::kDotHeuristic}) over calling
/// Optimize() directly (dot/solve.h): the facade is the documented entry
/// point for every engine.
///
/// The fast path scores a candidate from tables built once per problem
/// (DESIGN.md §4) — per-object sizes summed into a stack buffer and priced
/// by Layout's span kernels, and the forecast's FastScorer
/// (MakeEnsembleScorer: the model's own at K = 1) for the workload time —
/// bit-identical to EvaluateOne, the full path, so only a committed
/// winner needs a full re-score for its PerfEstimate. The scorer is built
/// on the first fast-path call: a caller that only prices through
/// EstimateToc never pays for it. It is null, and every call takes the
/// full path, when `use_fast_eval` is off, the box has more than
/// kMaxClasses classes, or the targets' SLA kind does not match the
/// workload's or a scenario model's. Every method is const and
/// thread-safe.
class DotOptimizer {
 public:
  /// Asserts ValidateProblem(problem): entry points return it first.
  explicit DotOptimizer(const DotProblem& problem);

  /// InvalidArgument, with nothing walked, when DotProblem::profiles is
  /// null (move scoring needs them). The result's plan-cache counters are
  /// this call's traffic; moves_priced and moves_gated split the moves
  /// that fit by whether the walk's bound rejected them unpriced, which
  /// never changes a decision. Walk(), plus one full estimate of the
  /// winner to fill DotResult::estimate.
  DotResult Optimize() const;

  /// Procedure 1 as Optimize() runs it — same placement, TOC, cost, status
  /// and counters — but without the winner's full estimate: `estimate`
  /// stays empty. For callers that keep only the winner's TOC or
  /// placement (the branch-and-bound seed, solo pool candidates).
  DotResult Walk() const;

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

  /// The full-path evaluation rule: capacity fit
  /// (Layout::ComputeCapacityFit), then EstimateToc for the TOC, cost and
  /// SLA verdict, with the full PerfEstimate materialized. Used for
  /// committed winners, and the reference every fast-path method is
  /// bit-identical to.
  CandidateEval EvaluateOne(const Layout& layout) const;

  /// TOC-only evaluation: identical toc/cost/feasibility/violation to
  /// EvaluateOne — bit-for-bit, so search decisions cannot differ — but
  /// CandidateEval::estimate stays empty and no allocation is performed.
  /// Without a scorer it is EvaluateOne.
  CandidateEval EvaluateQuick(const std::vector<int>& placement) const;

  /// The exact-search leaf path (branch-and-bound leaves and every
  /// enumerated layout): the fit/cost kernels of EvaluateQuick, with the
  /// workload score from `cursor`, which must have every object assigned
  /// (Optimistic() is then exact) and is asked only when the layout fits.
  /// Bit-identical to EvaluateQuick, which a null cursor (no scorer to
  /// make one from) falls back to.
  CandidateEval EvaluateLeaf(const std::vector<int>& placement,
                             const FastScorer::BoundCursor* cursor) const;

  /// Scans the whole mixed-radix layout space (placement[o] = (index /
  /// M^o) mod M — digit 0 least significant, the serial odometer's order),
  /// sharded across the problem's `options.num_threads` lanes, and returns
  /// the feasible minimum under BetterCandidate. Each shard walks the
  /// odometer with one FastScorer::BoundCursor (only the rolled digits are
  /// unassigned and re-assigned) and scores every layout through the
  /// branch-and-bound leaf kernel; the winner is re-scored through the full
  /// path so `best.estimate` is populated. The caller checks that M^N fits.
  struct SpaceScan {
    bool feasible_found = false;
    std::vector<int> best_placement;
    CandidateEval best;
    long long evaluated = 0;
  };
  SpaceScan ScanLayoutSpace() const;

  /// The workload scorer, built on first use; null when the problem takes
  /// the full path. The exact searches build their BoundCursors from it.
  const FastScorer* scorer() const;

  /// Plan-cache traffic of the scorer so far (0/0 without one, or when the
  /// model has no plan cache, e.g. OLTP).
  long long plan_cache_hits() const;
  long long plan_cache_misses() const;

  /// The targets implied by the problem's relative SLA.
  const PerfTargets& targets() const { return targets_; }

  /// The problem instance this optimizer was built for.
  const DotProblem& problem() const { return problem_; }

 private:
  /// Stack budget for the per-class space accumulator; no real box comes
  /// close (Table 2 has 3-4 classes).
  static constexpr int kMaxClasses = 32;

  /// Fills fits/violation/cost; false (with toc = +inf) when over capacity.
  /// Needs the size table, i.e. a built scorer.
  bool FitAndCost(const std::vector<int>& placement,
                  CandidateEval* eval) const;
  /// Applies the workload score: TOC, SLA feasibility.
  CandidateEval Finish(CandidateEval eval, const QuickPerf& qp) const;

  DotProblem problem_;
  PerfTargets targets_;
  /// The forecast every candidate is priced under (DESIGN.md §10):
  /// problem_.ensemble, or else the point forecast as a one-scenario
  /// nominal ensemble; and its objective (a problem's ensemble_objective is
  /// ignored without an ensemble).
  const ScenarioEnsemble* forecast_;
  EnsembleObjective objective_;
  EnsembleEstimator estimator_;  ///< the full evaluation path

  /// The fast path, built by scorer() under call_once: the first call may
  /// come from several threads at once (the epoch planner's matrix lanes).
  mutable std::once_flag scorer_once_;
  mutable std::unique_ptr<FastScorer> scorer_;
  mutable std::vector<double> size_gb_;  ///< per object, schema order
};

/// DotOptimizer's preconditions as a Status instead of an abort: schema,
/// box and workload set, and a workload built over as many objects as the
/// schema holds; relative_sla in (0, 1] unless a targets_override
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
