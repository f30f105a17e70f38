#ifndef DOTPROV_DOT_SEARCH_STATS_H_
#define DOTPROV_DOT_SEARCH_STATS_H_

#include <algorithm>
#include <limits>

namespace dot {

/// What LayoutSpaceSize returns when M^N does not fit in a long long, and
/// where SearchStats::layouts_pruned saturates. No M^N equals it exactly
/// (2^63 - 1 = 7^2 · 73 · 127 · 337 · 92737 · 649657 is no perfect power,
/// and M^1 is an int), so every size guard refuses this value whatever its
/// cap, LLONG_MAX included.
inline constexpr long long kLayoutSpaceSaturated =
    std::numeric_limits<long long>::max();

/// a + b for non-negative counts, saturating at kLayoutSpaceSaturated.
/// Order-free: any summation order of the same terms gives the same value.
inline long long SaturatingAdd(long long a, long long b) {
  if (a > kLayoutSpaceSaturated - b) return kLayoutSpaceSaturated;
  return a + b;
}

/// The engine counters: what a run did, as opposed to what it found. One
/// shape for every engine — DotResult, ReprovisionPlan, FleetPlan,
/// AdvisorRun and SolveProvenance derive from it — so each counter has one
/// name and one reduction (Add). An engine leaves the counters it has no
/// notion of at zero. Every counter except the plan-cache pair is
/// deterministic: bit-identical at any thread count.
struct SearchStats {
  /// Candidate layouts evaluated: |Δ|+1 for DOT, M^N for the enumerating
  /// exact search, the surviving leaves for branch-and-bound; planners add
  /// their solo searches' counts to the candidates they score themselves.
  long long layouts_evaluated = 0;

  /// The DOT walk's moves (candidates after L0) that fit: priced exactly,
  /// or rejected unpriced because their bound proves the walk would reject
  /// them (DESIGN.md §2). With the over-capacity moves they make up
  /// layouts_evaluated − 1 of one walk.
  long long moves_priced = 0;
  long long moves_gated = 0;

  /// Branch-and-bound nodes. A node is one partial assignment the search
  /// visited: it is either expanded (its children were generated), pruned,
  /// or — at full depth — an evaluated leaf (counted in layouts_evaluated).
  /// `layouts_pruned` is the number of complete layouts under the pruned
  /// subtrees, so for one search
  ///   layouts_evaluated + layouts_pruned == M^N
  ///   nodes_pruned_bound + nodes_pruned_infeasible + layouts_evaluated
  ///       == 1 + (M-1) · nodes_expanded
  /// (layouts_pruned saturating at kLayoutSpaceSaturated).
  long long nodes_expanded = 0;
  long long nodes_pruned_bound = 0;       ///< TOC bound ≥ incumbent
  long long nodes_pruned_infeasible = 0;  ///< capacity/SLA cannot be met
  long long layouts_pruned = 0;

  /// Caller-supplied warm starts that were valid and feasible, i.e. that
  /// seeded the branch-and-bound incumbent. Cannot affect the result.
  long long warm_start_hits = 0;

  /// DSS plan-cache traffic of the fast evaluation path: a hit is a
  /// template time served from its dense cache slot, a miss one run of the
  /// template's compiled program. Zero for OLTP models, which have no plan
  /// cache, and when the fast path is disabled; HTAP models report their
  /// analytic side's cache. An exact solve's counters include its DOT seed
  /// walk, which runs on the solve's scorer. The only
  /// thread-count-dependent counters.
  long long plan_cache_hits = 0;
  long long plan_cache_misses = 0;

  /// Peak bytes of one search's scratch tables: branch-and-bound's
  /// per-depth vectors, the epoch DP's tables.
  long long arena_bytes_peak = 0;

  /// The epoch DP's candidate-pool size.
  long long pool_size = 0;

  /// Fleet candidate pools built (== distinct cache keys) and tenants
  /// served from an already-built pool; pool_builds + pool_cache_hits ==
  /// fleet size.
  long long pool_builds = 0;
  long long pool_cache_hits = 0;

  /// The one reduction: sums every counter, except that layouts_pruned
  /// adds with saturation and arena_bytes_peak takes the max. Order-free,
  /// so reducing per-run or per-pool stats in any order gives the same
  /// totals.
  void Add(const SearchStats& o) {
    layouts_evaluated += o.layouts_evaluated;
    moves_priced += o.moves_priced;
    moves_gated += o.moves_gated;
    nodes_expanded += o.nodes_expanded;
    nodes_pruned_bound += o.nodes_pruned_bound;
    nodes_pruned_infeasible += o.nodes_pruned_infeasible;
    layouts_pruned = SaturatingAdd(layouts_pruned, o.layouts_pruned);
    warm_start_hits += o.warm_start_hits;
    plan_cache_hits += o.plan_cache_hits;
    plan_cache_misses += o.plan_cache_misses;
    arena_bytes_peak = std::max(arena_bytes_peak, o.arena_bytes_peak);
    pool_size += o.pool_size;
    pool_builds += o.pool_builds;
    pool_cache_hits += o.pool_cache_hits;
  }
};

}  // namespace dot

#endif  // DOTPROV_DOT_SEARCH_STATS_H_
