#ifndef DOTPROV_DOT_BNB_SEARCH_H_
#define DOTPROV_DOT_BNB_SEARCH_H_

#include <vector>

#include "common/status.h"
#include "dot/optimizer.h"
#include "dot/problem.h"

namespace dot {

/// Which algorithm ExactSearch runs. Both return the true optimum of the
/// §2.5 problem under the estimator — the same placement, TOC, and status,
/// bit for bit — they differ only in how much of the M^N space they must
/// touch to prove it.
enum class ExactStrategy {
  /// Score every layout (the paper's Exhaustive Search comparator,
  /// §4.4.3/§4.5.3). Pays M^N evaluations; refuses spaces larger than
  /// `max_layouts`.
  kEnumerate,
  /// Branch-and-bound (DESIGN.md §5): one serial depth-first search that
  /// assigns objects one at a time in descending space/I-O weight, expands
  /// each node's children best bound first, lower-bounds every partial
  /// placement with an admissible completion-cost/device-time bound, and
  /// discards a subtree as soon as its optimistic completion violates a
  /// performance target, cannot fit the box, or cannot beat the running
  /// incumbent. Ignores `options.num_threads`. Needs no layout guard —
  /// pruning statistics come back on DotResult (nodes_expanded,
  /// nodes_pruned_bound, nodes_pruned_infeasible, layouts_pruned).
  kBranchAndBound,
};

/// Guard for ExactStrategy::kEnumerate: the run returns an OutOfRange
/// status when M^N exceeds this (or the caller's `max_layouts`), or does
/// not fit in a long long.
inline constexpr long long kDefaultMaxEnumeratedLayouts = 50'000'000;

/// The kEnumerate guard on a problem ValidateProblem accepts: OutOfRange
/// when M^N exceeds `max_layouts` or does not fit in a long long.
/// ExactSearch(problem) and Solve(problem) run it before the optimizer is
/// built, so a guard trip derives nothing.
Status CheckEnumerationGuard(const DotProblem& problem, long long max_layouts);

/// The exact-search entry point. kEnumerate is the paper's Exhaustive
/// Search comparator; kBranchAndBound is the scalable choice — bit-identical
/// results, tractable on full benchmark schemas. `max_layouts` applies to
/// kEnumerate only.
///
/// Prefer dot::Solve(problem, spec) with SolveMethod::kExact / kEnumerate
/// (dot/solve.h) over calling this directly: the facade is the documented
/// entry point and returns the same DotResult in SolveResult::dot, bit for
/// bit. ExactSearch remains public as the engine internal the facade (and
/// the planners) drive. Called directly, it returns the status Solve
/// would: a problem ValidateProblem rejects (dot/optimizer.h) comes back as
/// InvalidArgument in DotResult::status before anything is built.
///
/// `warm_starts` (optional, kBranchAndBound only) seeds the incumbent with
/// the best feasible TOC among the given layouts before the tree search
/// starts — the advisor loop passes its incumbent layout and cached
/// candidate pool here so a re-plan prunes against what is already known.
/// Warm starts can only tighten pruning, never change the result: only the
/// seed TOC is kept (the winning placement is always rediscovered in-tree,
/// because no subtree whose bound ties the incumbent is pruned), so the
/// returned placement/TOC/status are bit-identical with or without seeds —
/// only the node counters shrink. Layouts that do not place every object
/// or are infeasible are ignored.
DotResult ExactSearch(
    const DotProblem& problem, ExactStrategy strategy,
    long long max_layouts = kDefaultMaxEnumeratedLayouts,
    const std::vector<std::vector<int>>* warm_starts = nullptr);

/// ExactSearch on the optimizer the caller holds for the problem, so that
/// the search (its seed walk included) and the caller's own scoring share
/// one set of targets and one scorer. Returns what
/// ExactSearch(optimizer.problem(), ...) returns, bit for bit; the
/// plan-cache pair counts this call's traffic.
DotResult ExactSearch(
    const DotOptimizer& optimizer, ExactStrategy strategy,
    long long max_layouts = kDefaultMaxEnumeratedLayouts,
    const std::vector<std::vector<int>>* warm_starts = nullptr);

}  // namespace dot

#endif  // DOTPROV_DOT_BNB_SEARCH_H_
