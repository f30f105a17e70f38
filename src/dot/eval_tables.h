#ifndef DOTPROV_DOT_EVAL_TABLES_H_
#define DOTPROV_DOT_EVAL_TABLES_H_

#include <memory>
#include <vector>

#include "dot/candidate_evaluator.h"
#include "dot/layout.h"
#include "dot/optimizer.h"
#include "workload/workload.h"

namespace dot {

/// The TOC-only candidate evaluation fast path (DESIGN.md §4).
///
/// Both search phases consume only {toc, cost, feasibility, violation} per
/// candidate, yet the full path re-plans every query template and
/// heap-allocates an N-object PerfEstimate each time. This class scores a
/// candidate from precomputed per-object tables instead:
///
///   * space/capacity/cost: a fixed-order sum of per-object sizes into a
///     stack buffer, priced by the same span kernels Layout uses;
///   * workload time: the model's FastScorer (per-object device-time tables
///     for OLTP, a footprint-keyed plan cache for DSS, and for HTAP a
///     composite of both plus the interference tables).
///
/// Every value is bit-identical to what EvaluateOne/EstimateToc would
/// produce — the fast path reorganizes the arithmetic, it never
/// approximates — so search decisions (and therefore results) are unchanged
/// and only the committed winner needs a full re-score to fill in its
/// PerfEstimate.
class FastEvaluator {
 public:
  /// Builds the tables once for the run. Disabled (enabled() == false) when
  /// the box has more than kMaxClasses classes, the targets' SLA kind does
  /// not match the workload's, or an ensemble is out of range; callers then
  /// use the full path.
  explicit FastEvaluator(const DotOptimizer& estimator);
  ~FastEvaluator();

  bool enabled() const { return scorer_ != nullptr; }

  /// Scores one candidate without materializing a PerfEstimate
  /// (CandidateEval::estimate stays empty). Thread-safe.
  CandidateEval EvaluateQuick(const std::vector<int>& placement) const;

  /// Exact-search leaf path (branch-and-bound leaves and every enumerated
  /// layout): the same fit/cost kernels as EvaluateQuick, but the workload
  /// score comes from `cursor`, which must have every object assigned
  /// (Optimistic() is then exact). The cursor is only asked for a score
  /// when the layout fits. Bit-identical to EvaluateQuick. Thread-safe for
  /// distinct cursors.
  CandidateEval EvaluateLeaf(const std::vector<int>& placement,
                             const FastScorer::BoundCursor& cursor) const;

  /// The underlying workload scorer (never null while enabled()); the
  /// exact search builds its per-subtree and per-shard BoundCursors from
  /// it.
  const FastScorer* scorer() const { return scorer_.get(); }

  /// Plan-cache traffic of the underlying scorer (0/0 when the model has no
  /// plan cache, e.g. OLTP).
  long long plan_cache_hits() const;
  long long plan_cache_misses() const;

  /// Stack budget for the per-class space accumulator; no real box comes
  /// close (Table 2 has 3-4 classes).
  static constexpr int kMaxClasses = 32;

 private:
  /// Fills fits/violation/cost; false (with toc = +inf) when over capacity.
  bool FitAndCost(const std::vector<int>& placement,
                  CandidateEval* eval) const;
  /// Applies the workload score: TOC, SLA feasibility.
  CandidateEval Finish(CandidateEval eval, const QuickPerf& qp) const;

  const DotOptimizer& estimator_;
  std::vector<double> size_gb_;  ///< per object, schema order
  std::unique_ptr<FastScorer> scorer_;
};

}  // namespace dot

#endif  // DOTPROV_DOT_EVAL_TABLES_H_
