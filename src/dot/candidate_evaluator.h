#ifndef DOTPROV_DOT_CANDIDATE_EVALUATOR_H_
#define DOTPROV_DOT_CANDIDATE_EVALUATOR_H_

#include <limits>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "dot/layout.h"
#include "dot/optimizer.h"
#include "dot/problem.h"
#include "dot/sla.h"

namespace dot {

class FastEvaluator;  // dot/eval_tables.h (includes this header)

/// Verdict of one candidate-layout evaluation. Pure data: producing one has
/// no side effects, so evaluations can run on any thread and be committed —
/// or discarded — later by the (sequential, deterministic) search driver.
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

/// The parallel candidate-evaluation engine shared by both DOT search
/// phases. Batches EstimateToc calls across a ThreadPool for the heuristic
/// optimizer's move sequence (Procedure 1) and shards the exhaustive
/// search's mixed-radix layout space [0, M^N) across workers.
class CandidateEvaluator {
 public:
  /// `estimator` supplies EstimateToc and the run's targets; `pool` supplies
  /// the lanes. Both must outlive the evaluator. The estimator is only read
  /// (EstimateToc is const and touches no mutable state), so concurrent
  /// calls are safe. Construction builds the TOC-only fast path (device-time
  /// tables / plan cache) unless the problem disables it or the workload
  /// model offers none.
  CandidateEvaluator(const DotOptimizer& estimator, ThreadPool* pool);
  ~CandidateEvaluator();

  /// Evaluates one candidate on the calling thread, materializing the full
  /// PerfEstimate. Used for the committed winner; the search loops go
  /// through the quick variants.
  CandidateEval EvaluateOne(const Layout& layout) const;

  /// The full-path evaluation rule as a free-standing kernel (EvaluateOne
  /// delegates here). Exposed so the exact branch-and-bound search can
  /// score leaves and re-score winners through the one implementation of
  /// the rule without constructing an engine (and a second fast path) of
  /// its own.
  static CandidateEval EvaluateOneWith(const DotOptimizer& estimator,
                                       const Layout& layout);

  /// TOC-only evaluation: identical toc/cost/feasibility/violation to
  /// EvaluateOne — bit-for-bit, so search decisions cannot differ — but
  /// CandidateEval::estimate stays empty and no allocation is performed.
  /// Falls back to EvaluateOne when the fast path is unavailable.
  CandidateEval EvaluateQuick(const Layout& layout) const;

  /// Evaluates `candidates` concurrently through EvaluateQuick; results
  /// align with the input.
  std::vector<CandidateEval> EvaluateBatchQuick(
      const std::vector<Layout>& candidates) const;

  /// Scans layout indices [space_begin, space_end) of the mixed-radix space
  /// (placement[o] = (index / M^o) mod M — digit 0 least significant, the
  /// serial odometer's order), sharded across the pool, and returns the
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
  SpaceScan ScanLayoutSpace(long long space_begin, long long space_end) const;

  const DotOptimizer& estimator() const { return estimator_; }

  /// Plan-cache traffic of this run's fast path (0/0 without one).
  long long plan_cache_hits() const;
  long long plan_cache_misses() const;

 private:
  const DotOptimizer& estimator_;
  ThreadPool* pool_;
  std::unique_ptr<FastEvaluator> fast_;  ///< null when disabled/unavailable
};

/// What LayoutSpaceSize returns when M^N does not fit in a long long. No
/// M^N equals it exactly (2^63 - 1 = 7^2 · 73 · 127 · 337 · 92737 · 649657
/// is no perfect power, and M^1 is an int), so every size guard refuses
/// this value whatever its cap, LLONG_MAX included.
inline constexpr long long kLayoutSpaceSaturated =
    std::numeric_limits<long long>::max();

/// M^N, the number of layouts of `num_objects` objects over `num_classes`
/// classes, saturating at kLayoutSpaceSaturated instead of overflowing.
long long LayoutSpaceSize(int num_classes, int num_objects);

/// placement[o] = (index / M^o) mod M for an N-digit, radix-M space.
std::vector<int> DecodeLayoutIndex(long long index, int num_objects,
                                   int num_classes);

}  // namespace dot

#endif  // DOTPROV_DOT_CANDIDATE_EVALUATOR_H_
