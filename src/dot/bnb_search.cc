#include "dot/bnb_search.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/check.h"
#include "common/clock.h"
#include "common/thread_pool.h"
#include "dot/candidate_evaluator.h"
#include "dot/layout.h"
#include "dot/sla.h"
#include "storage/pricing.h"

namespace dot {

namespace {

// ---------------------------------------------------------------------------
// ExactStrategy::kEnumerate — the paper's Exhaustive Search comparator.
// ---------------------------------------------------------------------------

/// ExactStrategy::kEnumerate's guard: OutOfRange when M^N exceeds
/// `max_layouts` or does not fit in a long long. ExactSearch(problem) runs
/// it before the optimizer is built, so a guard trip derives nothing.
Status CheckEnumerationGuard(const DotProblem& problem,
                             long long max_layouts) {
  const int n = problem.schema->NumObjects();
  const int m = problem.box->NumClasses();
  const long long total = LayoutSpaceSize(m, n);
  if (total != kLayoutSpaceSaturated && total <= max_layouts) {
    return Status::OK();
  }
  // A guard trip is an expected outcome on large schemas, not a programmer
  // error: report it as a Status so callers can fall back to
  // branch-and-bound (or shrink the instance) instead of aborting.
  return Status::OutOfRange(
      "exhaustive enumeration over " + std::to_string(m) + "^" +
      std::to_string(n) + " = " +
      (total == kLayoutSpaceSaturated ? std::string("> 9.2e18")
                                      : std::to_string(total)) +
      " layouts exceeds the guard (" + std::to_string(max_layouts) +
      "); use ExactStrategy::kBranchAndBound or raise max_layouts");
}

/// Runs after CheckEnumerationGuard passed.
DotResult EnumerateSearch(const DotOptimizer& optimizer) {
  const DotProblem& problem = optimizer.problem();
  DotResult result;
  result.targets = optimizer.targets();

  // Shard the mixed-radix layout space [0, M^N) across the pool; the
  // reduction under (TOC, lexicographically lowest placement) is a total
  // order, so the winner is the same at every thread count.
  ThreadPool pool(problem.options.num_threads);
  DotOptimizer::SpaceScan scan = optimizer.ScanLayoutSpace(&pool);

  result.layouts_evaluated = scan.evaluated;
  if (scan.feasible_found) {
    result.placement = std::move(scan.best_placement);
    result.toc_cents_per_task = scan.best.toc;
    result.layout_cost_cents_per_hour = scan.best.cost_cents_per_hour;
    result.estimate = std::move(scan.best.estimate);
  } else {
    result.status = Status::Infeasible(
        "no layout satisfies the capacity and SLA constraints");
  }
  return result;
}

// ---------------------------------------------------------------------------
// ExactStrategy::kBranchAndBound
// ---------------------------------------------------------------------------

/// Winner of one subtree task under the BetterCandidate total order.
struct SubtreeBest {
  bool found = false;
  double toc = std::numeric_limits<double>::infinity();
  std::vector<int> placement;
};

/// Everything the subtree walkers share, read-only during the parallel
/// phase. The assignment order, suffix tables, shard depth, and seed
/// incumbent depend only on the problem — never on the thread count — which
/// is what makes every counter and the task set deterministic.
struct BnbShared {
  const DotProblem* problem = nullptr;
  /// The problem's optimizer; without a scorer the leaves take the full
  /// path and no node is bounded.
  const DotOptimizer* optimizer = nullptr;
  int n = 0;
  int m = 0;
  /// Assignment order: order[d] is the object assigned at depth d,
  /// descending space/I-O weight (normalized cost spread + time spread).
  std::vector<int> order;
  std::vector<double> size_at_depth;    ///< size_gb of order[d]
  std::vector<double> suffix_min_cost;  ///< [d] Σ_{i>=d} min marginal cost
  std::vector<double> suffix_size;      ///< [d] Σ_{i>=d} size_gb
  std::vector<double> capacity;         ///< per class, c_j
  std::vector<double> class_price;      ///< per class, p_j (hoisted)
  bool linear_cost = false;             ///< cost model has no discrete part
  std::vector<long long> leaves_below;  ///< [d] = M^(N-d), saturating
  double seed_incumbent = std::numeric_limits<double>::infinity();
  int shard_depth = 0;  ///< tasks are the surviving depth-k prefixes
};

/// One depth-first subtree walker: per-depth space snapshots (pure
/// functions of the assignment path, so backtracking cannot accumulate
/// floating-point drift), a per-walker bound cursor, and best-first child
/// ordering. Pruning compares admissible bounds through the kBoundSafety
/// margin, so a subtree is cut only when no completion can beat the
/// incumbent or be feasible; ties are never cut, which preserves the
/// lexicographic tie-break bit for bit.
class SubtreeWalker {
 public:
  /// With `task_sink` non-null the walker stops at shard_depth and emits
  /// the surviving prefixes instead of descending (the top-k sharding
  /// pass); with it null the walker searches the subtree exhaustively.
  /// `arena` backs the per-depth snapshot and probe arrays; the walker is
  /// built once per shard and reused across its tasks (BeginTask resets
  /// the arena and every piece of per-task state), so the steady state
  /// allocates nothing per task — not even the bound cursor, whose Reset
  /// contract restores its full initial state.
  SubtreeWalker(const BnbShared& sh, std::vector<std::vector<int>>* task_sink,
                Arena* arena)
      : sh_(sh),
        task_sink_(task_sink),
        arena_(arena),
        placement_(static_cast<size_t>(sh.n), 0),
        incumbent_(sh.seed_incumbent) {
    const FastScorer* scorer = sh_.optimizer->scorer();
    if (scorer != nullptr) cursor_ = scorer->MakeBoundCursor();
  }

  /// Replays a shard prefix (classes of order[0..shard_depth)) — already
  /// vetted by the sharding pass — and searches the subtree below it.
  void RunSubtree(const std::vector<int>& prefix) {
    BeginTask();
    for (int d = 0; d < sh_.shard_depth; ++d) {
      // The sharding pass ran each prefix node's entry check against the
      // same seed incumbent; only the cursor state is replayed here.
      AssignLevel(d, prefix[static_cast<size_t>(d)]);
    }
    Dfs(sh_.shard_depth);
  }

  /// The sharding pass: walk (and prune) levels [0, shard_depth).
  void RunPrefix() {
    BeginTask();
    Dfs(0);
  }

  /// The walker's counters: its node counts summed over every task it has
  /// run, and its arena's high-water mark.
  SearchStats stats() const {
    SearchStats out = stats_;
    out.arena_bytes_peak = static_cast<long long>(arena_->bytes_peak());
    return out;
  }
  const SubtreeBest& best() const { return best_; }

 private:
  /// Admissible TOC lower bound of one child, kept as the unreduced ratio
  /// toc_num / toc_den so the hot loop never divides: pruning and
  /// ordering compare ratios by cross-multiplication (both sides are
  /// positive when a bound exists). The "no bound" case — no cursor, or
  /// an unbounded optimistic throughput — is the ratio 0 / 1, which sorts
  /// before every real bound and never prunes, exactly like the literal
  /// toc_lb = 0 it replaces. `cost_lb` is the child's completion-cost
  /// bound, kept for the entry check (EnterChild).
  struct Probe {
    double toc_num = 0.0;
    double toc_den = 1.0;
    double cost_lb = 0.0;
    int cls = 0;
  };

  double* UsedRow(int depth) {
    return used_ + static_cast<size_t>(depth) * static_cast<size_t>(sh_.m);
  }

  /// Per-task reset: reclaim the arena, re-carve the per-depth arrays from
  /// it, and restore every piece of state a fresh walker would start with
  /// — the per-task results must be identical whether a walker is fresh or
  /// reused, or the shard mapping would leak into the search outcome. The
  /// counters alone carry over: they sum across tasks, in any order.
  void BeginTask() {
    arena_->Reset();
    const size_t cells =
        static_cast<size_t>(sh_.n + 1) * static_cast<size_t>(sh_.m);
    used_ = arena_->AllocateArray<double>(cells);
    std::fill(used_, used_ + cells, 0.0);
    probes_ = arena_->AllocateArray<Probe>(cells);
    mask_ = arena_->AllocateArray<unsigned char>(static_cast<size_t>(sh_.m));
    qps_ = arena_->AllocateArray<QuickPerf>(static_cast<size_t>(sh_.m));
    pfree_ = arena_->AllocateArray<double>(static_cast<size_t>(sh_.m));
    tpden_ = arena_->AllocateArray<double>(static_cast<size_t>(sh_.m));
    std::fill(placement_.begin(), placement_.end(), 0);
    incumbent_ = sh_.seed_incumbent;
    best_ = SubtreeBest{};
    if (cursor_ != nullptr) cursor_->Reset();
  }

  /// Commits class `cls` for the depth-d object: placement, the depth+1
  /// space snapshot, and the bound cursor, which then tightens the node it
  /// enters. Returns true when that moved the cursor's bound.
  bool AssignLevel(int depth, int cls) {
    const int obj = sh_.order[static_cast<size_t>(depth)];
    placement_[static_cast<size_t>(obj)] = cls;
    const double* cur = UsedRow(depth);
    double* next = UsedRow(depth + 1);
    for (int j = 0; j < sh_.m; ++j) next[j] = cur[j];
    next[cls] += sh_.size_at_depth[static_cast<size_t>(depth)];
    if (cursor_ == nullptr) return false;
    cursor_->Assign(obj, placement_);
    return cursor_->Tighten(placement_);
  }

  /// The entry check of a child whose bound Tighten raised after its
  /// probe: pass 3's SLA and TOC tests on the tightened Optimistic(),
  /// with the probe's `cost_lb`. A failure counts as the prune pass 3
  /// would have made, so the tree identities still hold.
  bool EnterChild(int child_depth, double cost_lb) {
    const QuickPerf qp = cursor_->Optimistic(placement_);
    if (!qp.sla_ok) {
      PruneInfeasible(child_depth);
      return false;
    }
    if (qp.tasks_per_hour > 0 &&
        cost_lb > incumbent_ * (1 + kBoundSafety) * qp.tasks_per_hour) {
      PruneBound(child_depth);
      return false;
    }
    return true;
  }

  void PruneInfeasible(int child_depth) {
    stats_.nodes_pruned_infeasible += 1;
    stats_.layouts_pruned = SaturatingAdd(
        stats_.layouts_pruned,
        sh_.leaves_below[static_cast<size_t>(child_depth)]);
  }

  void PruneBound(int child_depth) {
    stats_.nodes_pruned_bound += 1;
    stats_.layouts_pruned = SaturatingAdd(
        stats_.layouts_pruned,
        sh_.leaves_below[static_cast<size_t>(child_depth)]);
  }

  /// Completion-cost lower bound of the child that adds the depth-d
  /// object (of `size` GB) to class `cls` on top of parent row `cur`.
  /// The linear model prices the child as the parent's priced total (a
  /// per-node hoist, passed in) plus this one object — the same value as
  /// re-pricing the child row up to ULP re-association, which the ε
  /// margin on every compare this feeds absorbs. The discrete model is
  /// not linear in used space, so it materializes the child row and takes
  /// the generic path.
  double ChildCostLowerBound(double parent_cost, const double* cur, int cls,
                             double size, int child_depth) {
    const double remaining =
        sh_.suffix_min_cost[static_cast<size_t>(child_depth)];
    if (sh_.linear_cost) {
      return parent_cost + sh_.class_price[static_cast<size_t>(cls)] * size +
             remaining;
    }
    double* next = UsedRow(child_depth);  // scratch until AssignLevel
    for (int j = 0; j < sh_.m; ++j) next[j] = cur[j];
    next[cls] += size;
    return CompletionCostLowerBoundCentsPerHour(
        *sh_.problem->box, next, sh_.m, remaining, sh_.problem->cost_model);
  }

  void ConsiderLeaf(double toc) {
    if (!best_.found ||
        BetterCandidate(toc, placement_, best_.toc, best_.placement)) {
      best_.found = true;
      best_.toc = toc;
      best_.placement = placement_;
    }
    incumbent_ = std::min(incumbent_, toc);
  }

  /// Expands the node with `depth` objects assigned (depth < n).
  void Dfs(int depth) {
    if (task_sink_ != nullptr && depth == sh_.shard_depth) {
      task_sink_->emplace_back(placement_prefix(depth));
      return;
    }
    stats_.nodes_expanded += 1;

    const int obj = sh_.order[static_cast<size_t>(depth)];
    const double size = sh_.size_at_depth[static_cast<size_t>(depth)];
    const double* cur = UsedRow(depth);
    Probe* probes = probes_ + static_cast<size_t>(depth + 1) *
                                  static_cast<size_t>(sh_.m);

    if (depth + 1 == sh_.n) {
      for (int cls = 0; cls < sh_.m; ++cls) {
        // Assigned objects never move again, so a class already at or
        // over its (strict) capacity dooms every completion. Deflated:
        // the snapshot is an assignment-order sum while the exact fit
        // rule sums in object order, and a few ULPs must not prune a
        // fitting leaf.
        if ((cur[cls] + size) * (1 - kBoundSafety) >=
            sh_.capacity[static_cast<size_t>(cls)]) {
          PruneInfeasible(depth + 1);
          continue;
        }

        // Leaf: exact evaluation through the same kernels the enumerating
        // search uses — bit-identical toc, fit, and feasibility.
        placement_[static_cast<size_t>(obj)] = cls;
        if (cursor_ != nullptr) cursor_->Assign(obj, placement_);
        const CandidateEval eval =
            sh_.optimizer->EvaluateLeaf(placement_, cursor_.get());
        if (cursor_ != nullptr) cursor_->Unassign(obj);
        stats_.layouts_evaluated += 1;
        if (eval.feasible) ConsiderLeaf(eval.toc);
      }
      return;
    }

    // Interior children, three passes over the classes. Per-class prune
    // decisions match interleaving the passes class by class; only the
    // order the prune counters tick in changes, and counters are totals.
    // Each child differs from this node in one class, so per-node totals
    // over the parent row turn every per-child check into an O(1) delta:
    // free space as parent free minus this class's shrinkage, priced
    // space as parent cost plus this object's price. The deltas
    // re-associate sums the one-row-per-child spelling computed left to
    // right, which moves compared values by ULPs — every compare they
    // feed carries the kBoundSafety margin (~1e-9, nine orders above ULP
    // noise), so no fitting or tying completion can be cut.
    const double remaining_size =
        sh_.suffix_size[static_cast<size_t>(depth + 1)];
    double parent_free = 0.0;
    for (int j = 0; j < sh_.m; ++j) {
      pfree_[j] = std::max(0.0, sh_.capacity[static_cast<size_t>(j)] -
                                    cur[j]);
      parent_free += pfree_[j];
    }

    // Pass 1: space feasibility.
    int live = 0;
    for (int cls = 0; cls < sh_.m; ++cls) {
      mask_[cls] = 0;
      const double used_cls = cur[cls] + size;
      if (used_cls * (1 - kBoundSafety) >= sh_.capacity[static_cast<size_t>(
                                               cls)]) {
        PruneInfeasible(depth + 1);
        continue;
      }
      // The unassigned volume must fit in the remaining free space.
      const double free_gb =
          parent_free - pfree_[cls] +
          std::max(0.0, sh_.capacity[static_cast<size_t>(cls)] - used_cls);
      if (remaining_size * (1 - kBoundSafety) >= free_gb * (1 + kBoundSafety)) {
        PruneInfeasible(depth + 1);
        continue;
      }
      mask_[cls] = 1;
      ++live;
    }

    // Pass 2: one batched optimistic-completion probe over the surviving
    // classes — an upper bound on every completion's throughput, and a
    // definite verdict when even the optimistic completion misses a
    // target. Without a bound cursor there is no throughput bound, TOC =
    // cost/throughput cannot be bounded either (cost alone bounds
    // nothing), and the search degrades to capacity pruning — skip the
    // cost kernel entirely.
    if (cursor_ != nullptr && live > 0) {
      cursor_->ProbeClasses(obj, placement_, sh_.m, mask_, qps_, tpden_);
    }

    // Pass 3: SLA and bound pruning; survivors become child probes.
    // Division-free: the TOC bound cost_lb / tp is compared against the
    // incumbent as cost_lb vs incumbent·(1+ε)·tp. The ε safety margin is
    // ~1e-9 relative while cross-multiplication re-rounds by at most a
    // few ULPs (~1e-16), so no completion that ties or beats the
    // incumbent can ever be cut by the changed rounding — admissibility
    // is preserved, only microscopically-marginal prunes may differ from
    // the division spelling.
    const double inc_scaled = incumbent_ * (1 + kBoundSafety);
    double parent_cost = 0.0;
    if (cursor_ != nullptr && live > 0 && sh_.linear_cost) {
      for (int j = 0; j < sh_.m; ++j) {
        parent_cost += sh_.class_price[static_cast<size_t>(j)] * cur[j];
      }
    }
    live = 0;
    for (int cls = 0; cls < sh_.m; ++cls) {
      if (mask_[cls] == 0) continue;
      double toc_num = 0.0;
      double toc_den = 1.0;
      double cost_lb = 0.0;
      if (cursor_ != nullptr) {
        const QuickPerf& qp = qps_[cls];
        if (!qp.sla_ok) {
          PruneInfeasible(depth + 1);
          continue;
        }
        // Admissible TOC lower bound: assigned space priced exactly,
        // every unassigned object at its guaranteed marginal minimum,
        // over the optimistic throughput tp_num / tp_den:
        // toc = cost_lb·tp_den / tp_num.
        cost_lb = ChildCostLowerBound(parent_cost, cur, cls, size, depth + 1);
        if (qp.tasks_per_hour > 0) {
          toc_num = cost_lb * tpden_[cls];
          toc_den = qp.tasks_per_hour;
          if (toc_num > inc_scaled * toc_den) {
            PruneBound(depth + 1);
            continue;
          }
        }
      }
      probes[live].toc_num = toc_num;
      probes[live].toc_den = toc_den;
      probes[live].cost_lb = cost_lb;
      probes[live].cls = cls;
      ++live;
    }

    // Best-first child order: most promising bound first (class index
    // breaks exact bound ties deterministically), so a near-optimal
    // incumbent appears early and the later siblings get pruned by the
    // re-check below.
    std::sort(probes, probes + live, [](const Probe& a, const Probe& b) {
      const double lhs = a.toc_num * b.toc_den;
      const double rhs = b.toc_num * a.toc_den;
      return lhs != rhs ? lhs < rhs : a.cls < b.cls;
    });
    for (int i = 0; i < live; ++i) {
      // Incumbent may have improved since the probe; same cross-multiplied
      // compare as pass 3 (incumbent_ changes between iterations, so the
      // scaled incumbent cannot be hoisted here).
      if (probes[i].toc_num >
          incumbent_ * (1 + kBoundSafety) * probes[i].toc_den) {
        PruneBound(depth + 1);
        continue;
      }
      if (!AssignLevel(depth, probes[i].cls) ||
          EnterChild(depth + 1, probes[i].cost_lb)) {
        Dfs(depth + 1);
      }
      if (cursor_ != nullptr) cursor_->Unassign(obj);
    }
  }

  std::vector<int> placement_prefix(int depth) const {
    std::vector<int> prefix(static_cast<size_t>(depth));
    for (int d = 0; d < depth; ++d) {
      prefix[static_cast<size_t>(d)] =
          placement_[static_cast<size_t>(sh_.order[static_cast<size_t>(d)])];
    }
    return prefix;
  }

  const BnbShared& sh_;
  std::vector<std::vector<int>>* task_sink_;
  Arena* arena_;
  std::vector<int> placement_;  ///< vector: the scorer API's currency
  double* used_ = nullptr;      ///< (n+1) × m space snapshots, arena-backed
  Probe* probes_ = nullptr;     ///< (n+1) × m child-probe scratch
  unsigned char* mask_ = nullptr;  ///< per-class space-feasibility, one node
  QuickPerf* qps_ = nullptr;       ///< per-class batched probe results
  double* pfree_ = nullptr;        ///< per-class parent free space, one node
  double* tpden_ = nullptr;        ///< per-class probe ratio denominators
  std::unique_ptr<FastScorer::BoundCursor> cursor_;
  double incumbent_;
  SearchStats stats_;
  SubtreeBest best_;
};

DotResult BranchAndBoundSearch(
    const DotOptimizer& optimizer,
    const std::vector<std::vector<int>>* warm_starts) {
  const DotProblem& problem = optimizer.problem();
  const int n = problem.schema->NumObjects();
  const int m = problem.box->NumClasses();
  DOT_CHECK(n >= 1 && m >= 1);

  DotResult result;
  result.targets = optimizer.targets();

  BnbShared sh;
  sh.problem = &problem;
  sh.optimizer = &optimizer;
  sh.n = n;
  sh.m = m;

  sh.capacity.reserve(static_cast<size_t>(m));
  sh.class_price.reserve(static_cast<size_t>(m));
  sh.linear_cost = !problem.cost_model.discrete;
  double max_price = 0.0;
  double min_price = std::numeric_limits<double>::infinity();
  for (const StorageClass& sc : problem.box->classes) {
    sh.capacity.push_back(sc.capacity_gb());
    sh.class_price.push_back(sc.price_cents_per_gb_hour());
    max_price = std::max(max_price, sc.price_cents_per_gb_hour());
    min_price = std::min(min_price, sc.price_cents_per_gb_hour());
  }

  // Assignment order: descending space/I-O weight. An object's weight is
  // its guaranteed cost spread (size × price spread) plus its workload-time
  // spread across classes, each normalized to the largest in the schema —
  // the objects whose placement moves the bound the most are decided first,
  // so both prunes bite near the root. Any order is correct; this one is
  // fast.
  const FastScorer* scorer = optimizer.scorer();
  std::vector<double> cost_spread(static_cast<size_t>(n), 0.0);
  std::vector<double> time_spread(static_cast<size_t>(n), 0.0);
  double max_cost_spread = 0.0;
  double max_time_spread = 0.0;
  for (int o = 0; o < n; ++o) {
    cost_spread[static_cast<size_t>(o)] =
        problem.schema->object(o).size_gb * (max_price - min_price);
    if (scorer != nullptr) {
      time_spread[static_cast<size_t>(o)] = scorer->ObjectTimeSpreadMs(o);
    }
    max_cost_spread =
        std::max(max_cost_spread, cost_spread[static_cast<size_t>(o)]);
    max_time_spread =
        std::max(max_time_spread, time_spread[static_cast<size_t>(o)]);
  }
  sh.order.resize(static_cast<size_t>(n));
  for (int o = 0; o < n; ++o) sh.order[static_cast<size_t>(o)] = o;
  std::vector<double> weight(static_cast<size_t>(n), 0.0);
  for (int o = 0; o < n; ++o) {
    double w = 0.0;
    if (max_cost_spread > 0) {
      w += cost_spread[static_cast<size_t>(o)] / max_cost_spread;
    }
    if (max_time_spread > 0) {
      w += time_spread[static_cast<size_t>(o)] / max_time_spread;
    }
    weight[static_cast<size_t>(o)] = w;
  }
  std::sort(sh.order.begin(), sh.order.end(), [&](int a, int b) {
    const double wa = weight[static_cast<size_t>(a)];
    const double wb = weight[static_cast<size_t>(b)];
    return wa != wb ? wa > wb : a < b;
  });

  sh.size_at_depth.resize(static_cast<size_t>(n));
  for (int d = 0; d < n; ++d) {
    sh.size_at_depth[static_cast<size_t>(d)] =
        problem.schema->object(sh.order[static_cast<size_t>(d)]).size_gb;
  }
  sh.suffix_min_cost.assign(static_cast<size_t>(n) + 1, 0.0);
  sh.suffix_size.assign(static_cast<size_t>(n) + 1, 0.0);
  for (int d = n - 1; d >= 0; --d) {
    sh.suffix_min_cost[static_cast<size_t>(d)] =
        sh.suffix_min_cost[static_cast<size_t>(d) + 1] +
        MinObjectCostCentsPerHour(*problem.box,
                                  sh.size_at_depth[static_cast<size_t>(d)],
                                  problem.cost_model);
    sh.suffix_size[static_cast<size_t>(d)] =
        sh.suffix_size[static_cast<size_t>(d) + 1] +
        sh.size_at_depth[static_cast<size_t>(d)];
  }
  sh.leaves_below.resize(static_cast<size_t>(n) + 1);
  for (int d = 0; d <= n; ++d) {
    sh.leaves_below[static_cast<size_t>(d)] = LayoutSpaceSize(m, n - d);
  }

  // Deterministic incumbent seeds, evaluated through the same path the
  // leaves use: the M uniform layouts plus the DOT heuristic's answer when
  // profiles are available (the paper's own argument that DOT lands within
  // a few percent of the optimum makes it a near-perfect warm start; the
  // walk runs on this optimizer, so it shares the tree's scorer, and skips
  // the winner's full estimate). Only the TOC is kept — the winning
  // *placement* is always rediscovered in-tree, because no subtree whose
  // bound ties the incumbent is ever pruned.
  double seed = std::numeric_limits<double>::infinity();
  for (int cls = 0; cls < m; ++cls) {
    const CandidateEval eval =
        optimizer.EvaluateQuick(UniformPlacement(n, cls));
    if (eval.feasible) seed = std::min(seed, eval.toc);
  }
  if (problem.profiles != nullptr) {
    const DotResult dot = optimizer.Walk();
    if (dot.status.ok()) seed = std::min(seed, dot.toc_cents_per_task);
  }
  // Caller-supplied warm starts (the advisor's incumbent layout and cached
  // candidate pool): same evaluation path, same only-the-TOC-is-kept rule,
  // so they tighten pruning without being able to change the result.
  if (warm_starts != nullptr) {
    for (const std::vector<int>& w : *warm_starts) {
      if (!IsValidPlacement(w, n, m)) continue;
      const CandidateEval eval = optimizer.EvaluateQuick(w);
      if (eval.feasible) {
        seed = std::min(seed, eval.toc);
        ++result.warm_start_hits;
      }
    }
  }
  sh.seed_incumbent = seed;

  // Shard the top k levels into independent subtree tasks. k depends only
  // on (M, N) — never on the thread count — so the task set, the reduction,
  // and every counter are identical at any parallelism.
  int shard_depth = 0;
  while (shard_depth < n - 1 && LayoutSpaceSize(m, shard_depth) < 64) {
    ++shard_depth;
  }
  sh.shard_depth = shard_depth;

  std::vector<std::vector<int>> tasks;
  Arena prefix_arena;
  SubtreeWalker prefix_walker(sh, &tasks, &prefix_arena);
  prefix_walker.RunPrefix();

  result.Add(prefix_walker.stats());

  // One arena + walker (and therefore one bound cursor) per shard, reused
  // across the shard's tasks. Shard boundaries depend only on the task
  // count — never on the thread count — and BeginTask restores fresh-walker
  // state per task, so per-task results and per-shard counters are
  // identical at any parallelism.
  // The shard count caps at 64 for load balancing; below that it is one
  // task per shard, exactly the old walker-per-task behaviour minus the
  // allocations.
  ThreadPool pool(problem.options.num_threads);
  const int num_shards = static_cast<int>(std::min<size_t>(tasks.size(), 64));
  std::vector<SearchStats> shard_stats(static_cast<size_t>(num_shards));
  std::vector<SubtreeBest> task_best(tasks.size());
  if (!tasks.empty()) {
    pool.ParallelForShards(
        0, static_cast<int64_t>(tasks.size()), num_shards,
        [&](int shard, int64_t shard_begin, int64_t shard_end) {
          Arena arena;
          SubtreeWalker walker(sh, nullptr, &arena);
          for (int64_t i = shard_begin; i < shard_end; ++i) {
            walker.RunSubtree(tasks[static_cast<size_t>(i)]);
            task_best[static_cast<size_t>(i)] = walker.best();
          }
          shard_stats[static_cast<size_t>(shard)] = walker.stats();
        });
  }

  // Reduce the counters (SearchStats::Add is order-free) and the winners
  // under the BetterCandidate total order (any reduction order yields the
  // same winner; see BetterCandidate).
  for (const SearchStats& shard : shard_stats) result.Add(shard);
  SubtreeBest best;
  for (size_t i = 0; i < tasks.size(); ++i) {
    SubtreeBest& cand = task_best[static_cast<size_t>(i)];
    if (!cand.found) continue;
    if (!best.found || BetterCandidate(cand.toc, cand.placement, best.toc,
                                       best.placement)) {
      best = std::move(cand);
    }
  }

  if (best.found) {
    // Re-score the winner through the full path (bit-identical toc/cost,
    // now with the PerfEstimate filled) — exactly what the enumerating
    // search does with its winner.
    const CandidateEval eval = optimizer.EvaluateOne(
        Layout(problem.schema, problem.box, best.placement));
    DOT_CHECK(eval.feasible) << "winner infeasible on full re-score";
    result.placement = std::move(best.placement);
    result.toc_cents_per_task = eval.toc;
    result.layout_cost_cents_per_hour = eval.cost_cents_per_hour;
    result.estimate = eval.estimate;
  } else {
    result.status = Status::Infeasible(
        "no layout satisfies the capacity and SLA constraints");
  }
  return result;
}

}  // namespace

DotResult ExactSearch(const DotOptimizer& optimizer, ExactStrategy strategy,
                      long long max_layouts,
                      const std::vector<std::vector<int>>* warm_starts) {
  const double start_ms = NowMs();
  DotResult result;
  // The enumerating search scores every layout anyway; a tighter incumbent
  // seed would not change what it touches.
  if (strategy == ExactStrategy::kEnumerate) {
    result.status = CheckEnumerationGuard(optimizer.problem(), max_layouts);
  }
  if (result.status.ok()) {
    // This call's plan-cache traffic, the branch-and-bound seed walk's
    // included.
    const long long hits = optimizer.plan_cache_hits();
    const long long misses = optimizer.plan_cache_misses();
    result = strategy == ExactStrategy::kEnumerate
                 ? EnumerateSearch(optimizer)
                 : BranchAndBoundSearch(optimizer, warm_starts);
    result.plan_cache_hits = optimizer.plan_cache_hits() - hits;
    result.plan_cache_misses = optimizer.plan_cache_misses() - misses;
  }
  result.optimize_ms = NowMs() - start_ms;
  return result;
}

DotResult ExactSearch(const DotProblem& problem, ExactStrategy strategy,
                      long long max_layouts,
                      const std::vector<std::vector<int>>* warm_starts) {
  const double start_ms = NowMs();
  DotResult result;
  result.status = ValidateProblem(problem);
  // The guard runs before the optimizer derives anything from the problem.
  if (result.status.ok() && strategy == ExactStrategy::kEnumerate) {
    result.status = CheckEnumerationGuard(problem, max_layouts);
  }
  if (result.status.ok()) {
    result = ExactSearch(DotOptimizer(problem), strategy, max_layouts,
                         warm_starts);
  }
  result.optimize_ms = NowMs() - start_ms;  // target derivation included
  return result;
}

}  // namespace dot
