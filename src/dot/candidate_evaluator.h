#ifndef DOTPROV_DOT_CANDIDATE_EVALUATOR_H_
#define DOTPROV_DOT_CANDIDATE_EVALUATOR_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "dot/layout.h"
#include "dot/optimizer.h"
#include "dot/problem.h"
#include "dot/sla.h"
#include "workload/workload.h"

namespace dot {

/// Verdict of one candidate-layout evaluation. Pure data: producing one has
/// no side effects, so evaluations can run on any thread and be reduced
/// later by the (deterministic) search driver.
struct CandidateEval {
  /// Σ s_o < c_j on every class (strict — an exactly-full class does not
  /// fit; the Layout::ComputeCapacityFit rule).
  bool fits = false;
  /// fits && meets every performance target.
  bool feasible = false;
  /// estimateTOC, cents/task; +inf when the candidate is infeasible.
  double toc = 0.0;
  /// C(L) in cents/hour (0 when the candidate does not fit).
  double cost_cents_per_hour = 0.0;
  /// Total over-capacity volume, GB (the optimizer's escape gradient).
  double violation_gb = 0.0;
  /// Workload estimate; meaningful only when `fits`.
  PerfEstimate estimate;
};

/// Total order used everywhere a best layout is selected: lower TOC wins,
/// exact TOC ties broken by the lexicographically lowest placement. Because
/// the order is total and depends only on (toc, placement), any reduction
/// over any partition of candidates — per-shard minima merged in shard
/// order, or a serial scan — picks the same winner, which is what makes the
/// parallel engine bit-identical to the serial path at every thread count.
bool BetterCandidate(double toc_a, const std::vector<int>& placement_a,
                     double toc_b, const std::vector<int>& placement_b);

/// The one candidate evaluator of a search run, shared by the DOT walk,
/// the enumerating scan, branch-and-bound, the fleet pool build and the
/// epoch planner's pool × epoch matrix.
///
/// Both search phases consume only {toc, cost, feasibility, violation} per
/// candidate, yet the full path re-plans every query template and
/// heap-allocates an N-object PerfEstimate each time. The evaluator scores
/// a candidate from tables built once per run instead (DESIGN.md §4):
///
///   * space/capacity/cost: a fixed-order sum of per-object sizes into a
///     stack buffer, priced by the same span kernels Layout uses;
///   * workload time: the model's FastScorer (per-object device-time tables
///     for OLTP, compiled templates behind a dense plan cache for DSS, and
///     for HTAP a composite of both plus the interference tables).
///
/// Every value is bit-identical to EvaluateOne, the full path — the fast
/// path reorganizes the arithmetic, it never approximates — so search
/// decisions are unchanged and only the committed winner needs a full
/// re-score to fill in its PerfEstimate. The scorer is the forecast's
/// (MakeEnsembleScorer: the model's own at K = 1). It is null, and every
/// call takes the full path, when `use_fast_eval` is off, the box has more
/// than kMaxClasses classes, or the targets' SLA kind does not match the
/// workload's or a scenario model's.
class CandidateEvaluator {
 public:
  /// `estimator` supplies EstimateToc and the run's targets and must
  /// outlive the evaluator. Construction builds the scorer tables. Every
  /// method is const and thread-safe.
  explicit CandidateEvaluator(const DotOptimizer& estimator);

  /// The full-path evaluation rule: capacity fit
  /// (Layout::ComputeCapacityFit), then the estimator's EstimateToc for the
  /// TOC, cost and SLA verdict, with the full PerfEstimate materialized.
  /// Used for committed winners, and the reference every other method is
  /// bit-identical to.
  CandidateEval EvaluateOne(const Layout& layout) const;

  /// TOC-only evaluation: identical toc/cost/feasibility/violation to
  /// EvaluateOne — bit-for-bit, so search decisions cannot differ — but
  /// CandidateEval::estimate stays empty and no allocation is performed.
  /// Without a scorer it is EvaluateOne.
  CandidateEval EvaluateQuick(const std::vector<int>& placement) const;

  /// Exact-search leaf path (branch-and-bound leaves and every enumerated
  /// layout): the same fit/cost kernels as EvaluateQuick, but the workload
  /// score comes from `cursor`, which must have every object assigned
  /// (Optimistic() is then exact). The cursor is only asked for a score
  /// when the layout fits. Bit-identical to EvaluateQuick, which a null
  /// cursor (no scorer to make one from) falls back to.
  CandidateEval EvaluateLeaf(const std::vector<int>& placement,
                             const FastScorer::BoundCursor* cursor) const;

  /// The DOT walk's move pricer, committed at `start`; null when the run
  /// takes the full path.
  std::unique_ptr<FastScorer::MoveWalk> MakeMoveWalk(
      const std::vector<int>& start) const;

  /// DOT-walk path: the same fit/cost kernels as EvaluateQuick, but the
  /// workload score comes from walk->Price(placement, moved), which must
  /// find `placement` differing from the walk's committed placement only
  /// in `moved`. The walk is only asked for a price when the layout fits.
  /// Bit-identical to EvaluateQuick, which a null walk falls back to.
  CandidateEval EvaluateMove(const std::vector<int>& placement,
                             const std::vector<int>& moved,
                             FastScorer::MoveWalk* walk) const;

  /// Scans layout indices [space_begin, space_end) of the mixed-radix space
  /// (placement[o] = (index / M^o) mod M — digit 0 least significant, the
  /// serial odometer's order), sharded across `pool`, and returns the
  /// feasible minimum under BetterCandidate. Each shard walks the odometer
  /// with one FastScorer::BoundCursor (only the rolled digits are
  /// unassigned and re-assigned) and scores every layout through the
  /// branch-and-bound leaf kernel; the winner is re-scored through the full
  /// path so `best.estimate` is populated.
  struct SpaceScan {
    bool feasible_found = false;
    std::vector<int> best_placement;
    CandidateEval best;
    long long evaluated = 0;
  };
  SpaceScan ScanLayoutSpace(long long space_begin, long long space_end,
                            ThreadPool* pool) const;

  /// The workload scorer, or null when the run takes the full path; the
  /// exact search builds its per-subtree and per-shard BoundCursors from
  /// it.
  const FastScorer* scorer() const { return scorer_.get(); }

  /// Plan-cache traffic of the scorer (0/0 without one, or when the model
  /// has no plan cache, e.g. OLTP).
  long long plan_cache_hits() const;
  long long plan_cache_misses() const;

 private:
  /// Stack budget for the per-class space accumulator; no real box comes
  /// close (Table 2 has 3-4 classes).
  static constexpr int kMaxClasses = 32;

  /// Fills fits/violation/cost; false (with toc = +inf) when over capacity.
  bool FitAndCost(const std::vector<int>& placement,
                  CandidateEval* eval) const;
  /// Applies the workload score: TOC, SLA feasibility.
  CandidateEval Finish(CandidateEval eval, const QuickPerf& qp) const;

  const DotOptimizer& estimator_;
  std::vector<double> size_gb_;  ///< per object, schema order
  std::unique_ptr<FastScorer> scorer_;
};

/// M^N, the number of layouts of `num_objects` objects over `num_classes`
/// classes, saturating at kLayoutSpaceSaturated instead of overflowing.
long long LayoutSpaceSize(int num_classes, int num_objects);

/// placement[o] = (index / M^o) mod M for an N-digit, radix-M space.
std::vector<int> DecodeLayoutIndex(long long index, int num_objects,
                                   int num_classes);

/// Every layout of the M^N space in index order (DecodeLayoutIndex), the
/// exhaustive candidate pool of the epoch planner and the fleet; OutOfRange
/// when the space holds more than `max_layouts` layouts.
Result<std::vector<std::vector<int>>> EnumerateLayoutSpace(
    int num_objects, int num_classes, long long max_layouts);

}  // namespace dot

#endif  // DOTPROV_DOT_CANDIDATE_EVALUATOR_H_
