#ifndef DOTPROV_DOT_MOVES_H_
#define DOTPROV_DOT_MOVES_H_

#include <vector>

#include "catalog/db_object.h"
#include "dot/layout.h"
#include "dot/problem.h"

namespace dot {

/// A move m(g, p) (§3.2): re-place every member of object group `group`
/// onto the classes of `placement` (placement[i] applies to members[i]).
struct Move {
  int group = -1;
  std::vector<int> placement;

  /// δtime[m] (Eq. 2): I/O-time-share change of the group vs. L0, ms.
  double dtime_ms = 0.0;
  /// δcost[m] (Eq. 3): layout-cost saving vs. L0, cents/hour.
  double dcost = 0.0;
  /// σ[m] = δtime/δcost (Eq. 4); moves are applied in ascending order.
  double score = 0.0;
};

/// The I/O time share T^p[g] (Eq. 1) of group `g` under group placement
/// `p`, read from the workload profiles at the workload's concurrency.
/// For groups with several indices, each index's χ is taken from the
/// baseline matching (table class, that index's class) — the §3.4 baseline
/// set covers exactly the pairwise table/index interactions.
double GroupIoTimeShareMs(const DotProblem& problem, const ObjectGroup& g,
                          const std::vector<int>& p);

/// enumerateMoves (Procedure 2): every placement combination of every
/// object group, scored by σ[m] against the initial layout L0 (everything
/// on the box's most expensive class) and sorted ascending — most
/// beneficial (large cost saving per unit performance penalty) first.
/// The identity placement (all members still on L0's class) is skipped.
/// `problem` is DotOptimizer::Optimize's: valid, with profiles.
std::vector<Move> EnumerateMoves(const DotProblem& problem,
                                 const std::vector<ObjectGroup>& groups);

}  // namespace dot

#endif  // DOTPROV_DOT_MOVES_H_
