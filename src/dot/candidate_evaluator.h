#ifndef DOTPROV_DOT_CANDIDATE_EVALUATOR_H_
#define DOTPROV_DOT_CANDIDATE_EVALUATOR_H_

#include <vector>

#include "common/result.h"
#include "dot/search_stats.h"
#include "workload/workload.h"

namespace dot {

/// Verdict of one candidate-layout evaluation (DotOptimizer::EvaluateOne
/// and its fast-path twins). Pure data: producing one has no side effects,
/// so evaluations can run on any thread and be reduced later by the
/// (deterministic) search driver.
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

/// M^N, the number of layouts of `num_objects` objects over `num_classes`
/// classes, saturating at kLayoutSpaceSaturated instead of overflowing.
long long LayoutSpaceSize(int num_classes, int num_objects);

/// placement[o] = (index / M^o) mod M for an N-digit, radix-M space.
std::vector<int> DecodeLayoutIndex(long long index, int num_objects,
                                   int num_classes);

/// M^N, or OutOfRange when the space holds more than `max_layouts` layouts:
/// the one guard of the exhaustive candidate pools (the epoch planner's
/// EnumerateLayoutSpace and the fleet's enumerated pool scan).
Result<long long> GuardedLayoutSpaceSize(int num_objects, int num_classes,
                                         long long max_layouts);

/// Every layout of the M^N space in index order (DecodeLayoutIndex), the
/// exhaustive candidate pool of the epoch planner; GuardedLayoutSpaceSize's
/// OutOfRange when the space holds more than `max_layouts` layouts.
Result<std::vector<std::vector<int>>> EnumerateLayoutSpace(
    int num_objects, int num_classes, long long max_layouts);

}  // namespace dot

#endif  // DOTPROV_DOT_CANDIDATE_EVALUATOR_H_
