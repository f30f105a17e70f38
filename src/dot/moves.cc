#include "dot/moves.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace dot {

namespace {

/// χ for one object of a group under group placement `p`: profiles are
/// keyed by (table class, index class) baselines (§3.4).
const IoVector& ChiFor(const DotProblem& problem, const ObjectGroup& g,
                       const std::vector<int>& p, size_t member_idx) {
  const int object_id = g.members[member_idx];
  const DbObject& obj = problem.schema->object(object_id);

  int table_cls;
  int index_cls;
  if (g.table_id < 0) {
    // Auxiliary singleton group (temp/log): its own class plays both roles.
    table_cls = p[0];
    index_cls = p[0];
  } else if (obj.IsIndex()) {
    table_cls = p[0];  // the table is always member 0
    index_cls = p[member_idx];
  } else {
    // The table itself: pair it with its first index's class (exact for
    // one-index groups; the documented approximation for wider groups).
    table_cls = p[member_idx];
    index_cls = p.size() > 1 ? p[1] : p[member_idx];
  }
  const ObjectIoMap& profile = problem.profiles->For(table_cls, index_cls);
  static const IoVector kZero{};
  if (static_cast<size_t>(object_id) >= profile.size()) return kZero;
  return profile[static_cast<size_t>(object_id)];
}

}  // namespace

double GroupIoTimeShareMs(const DotProblem& problem, const ObjectGroup& g,
                          const std::vector<int>& p) {
  DOT_CHECK(p.size() == g.members.size())
      << "placement arity != group size";
  const double concurrency = problem.workload->concurrency();
  double total = 0.0;
  for (size_t i = 0; i < g.members.size(); ++i) {
    IoVector chi = ChiFor(problem, g, p, i);
    if (!problem.io_scale_hint.empty()) {
      chi *= problem.io_scale_hint[static_cast<size_t>(g.members[i])];
    }
    if (chi.IsZero()) continue;
    const StorageClass& sc = problem.box->classes[static_cast<size_t>(p[i])];
    total += sc.device().TimeForMs(chi, concurrency);
  }
  return total;
}

std::vector<Move> EnumerateMoves(const DotProblem& problem,
                                 const std::vector<ObjectGroup>& groups) {
  const int m = problem.box->NumClasses();
  const int l0_class = problem.box->MostExpensiveClass();

  const Layout l0 =
      Layout::Uniform(problem.schema, problem.box, l0_class);
  const SpaceUsage l0_space = l0.SpaceByClass();
  const double l0_cost =
      LayoutCostCentsPerHour(*problem.box, l0_space, problem.cost_model);
  const std::vector<double>& sizes = problem.schema->sizes_gb();

  std::vector<Move> moves;
  SpaceUsage moved_space(static_cast<size_t>(m), 0.0);
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    const ObjectGroup& g = groups[gi];
    const int k = g.size();
    const std::vector<int> p0(static_cast<size_t>(k), l0_class);
    const double t0 = GroupIoTimeShareMs(problem, g, p0);

    // Iterate all M^K placements of the group via an odometer.
    std::vector<int> p(static_cast<size_t>(k), 0);
    for (;;) {
      const bool identity =
          std::all_of(p.begin(), p.end(),
                      [&](int cls) { return cls == l0_class; });
      if (!identity) {
        Move move;
        move.group = static_cast<int>(gi);
        move.placement = p;
        move.dtime_ms = GroupIoTimeShareMs(problem, g, p) - t0;
        // Moved-layout space by delta from L0: only the group's members
        // change class, so there is no need to materialize a Layout and
        // rescan every object per enumerated move. Members are a strict
        // subset of the objects summed into l0_space[l0_class], so the
        // remainder stays non-negative.
        moved_space = l0_space;
        for (int i = 0; i < k; ++i) {
          const double s = sizes[static_cast<size_t>(g.members[i])];
          moved_space[static_cast<size_t>(l0_class)] -= s;
          moved_space[static_cast<size_t>(p[static_cast<size_t>(i)])] += s;
        }
        move.dcost = l0_cost - LayoutCostCentsPerHour(*problem.box,
                                                      moved_space,
                                                      problem.cost_model);
        if (move.dcost > 0.0) {
          move.score = move.dtime_ms / move.dcost;
        } else {
          // Zero/negative saving: a pure-performance move. Free
          // improvements sort first, pure penalties last.
          move.score = move.dtime_ms < 0.0
                           ? -std::numeric_limits<double>::infinity()
                           : std::numeric_limits<double>::infinity();
        }
        moves.push_back(std::move(move));
      }
      // Advance the odometer.
      int digit = 0;
      while (digit < k) {
        if (++p[static_cast<size_t>(digit)] < m) break;
        p[static_cast<size_t>(digit)] = 0;
        ++digit;
      }
      if (digit == k) break;
    }
  }

  std::stable_sort(moves.begin(), moves.end(),
                   [](const Move& a, const Move& b) {
                     return a.score < b.score;
                   });
  return moves;
}

}  // namespace dot
