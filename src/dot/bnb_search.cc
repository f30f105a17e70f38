#include "dot/bnb_search.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/clock.h"
#include "dot/candidate_evaluator.h"
#include "dot/layout.h"
#include "dot/sla.h"
#include "storage/pricing.h"

namespace dot {

// ---------------------------------------------------------------------------
// ExactStrategy::kEnumerate — the paper's Exhaustive Search comparator.
// ---------------------------------------------------------------------------

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

namespace {

/// Runs after CheckEnumerationGuard passed.
DotResult EnumerateSearch(const DotOptimizer& optimizer) {
  DotResult result;
  result.targets = optimizer.targets();

  // The scan splits the mixed-radix layout space [0, M^N) across the
  // problem's lanes; the reduction under (TOC, lexicographically lowest
  // placement) is a total order, so the winner is the same at every thread
  // count.
  DotOptimizer::SpaceScan scan = optimizer.ScanLayoutSpace();

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

/// The branch-and-bound search: one depth-first walk over the whole tree
/// with one bound cursor and one running incumbent. Per-depth space
/// snapshots are pure functions of the assignment path, so backtracking
/// cannot accumulate floating-point drift; children are probed first and
/// expanded best-first. Pruning compares admissible bounds through the
/// kBoundSafety margin, so a subtree is cut only when no completion can
/// beat the incumbent or be feasible; ties are never cut, and leaves
/// reduce under BetterCandidate, which preserves the lexicographic
/// tie-break bit for bit.
class BnbWalker {
 public:
  /// `incumbent` is the seed TOC (+inf when no seed is feasible). Without a
  /// scorer the leaves take the full path and no node is bounded.
  BnbWalker(const DotOptimizer& optimizer, double incumbent)
      : problem_(optimizer.problem()),
        optimizer_(optimizer),
        n_(problem_.schema->NumObjects()),
        m_(problem_.box->NumClasses()),
        linear_cost_(!problem_.cost_model.discrete),
        incumbent_(incumbent),
        placement_(static_cast<size_t>(n_), 0),
        used_(static_cast<size_t>(n_ + 1) * static_cast<size_t>(m_), 0.0),
        probes_(used_.size()),
        mask_(static_cast<size_t>(m_)),
        qps_(static_cast<size_t>(m_)),
        pfree_(static_cast<size_t>(m_)),
        tpden_(static_cast<size_t>(m_)) {
    const FastScorer* scorer = optimizer_.scorer();
    if (scorer != nullptr) cursor_ = scorer->MakeBoundCursor();
    BuildTables(scorer);
    stats_.arena_bytes_peak = static_cast<long long>(
        (used_.size() + pfree_.size() + tpden_.size()) * sizeof(double) +
        probes_.size() * sizeof(Probe) + mask_.size() +
        qps_.size() * sizeof(QuickPerf));
  }

  /// Searches the tree from the root.
  void Run() { Dfs(0); }

  /// The node counters, and the bytes of the per-depth scratch vectors.
  const SearchStats& stats() const { return stats_; }
  /// The best feasible leaf under BetterCandidate; empty when none was.
  std::vector<int>& best() { return best_; }

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

  /// The per-problem tables: class capacities and prices, the assignment
  /// order, and the per-depth suffix sums.
  void BuildTables(const FastScorer* scorer) {
    const size_t n = static_cast<size_t>(n_);
    double max_price = 0.0;
    double min_price = std::numeric_limits<double>::infinity();
    for (const StorageClass& sc : problem_.box->classes) {
      capacity_.push_back(sc.capacity_gb());
      class_price_.push_back(sc.price_cents_per_gb_hour());
      max_price = std::max(max_price, sc.price_cents_per_gb_hour());
      min_price = std::min(min_price, sc.price_cents_per_gb_hour());
    }

    // Assignment order: descending space/I-O weight. An object's weight is
    // its guaranteed cost spread (size × price spread) plus its
    // workload-time spread across classes, each normalized to the largest
    // in the schema — the objects whose placement moves the bound the most
    // are decided first, so both prunes bite near the root. Any order is
    // correct; this one is fast.
    std::vector<double> cost_spread(n, 0.0);
    std::vector<double> time_spread(n, 0.0);
    double max_cost_spread = 0.0;
    double max_time_spread = 0.0;
    for (size_t o = 0; o < n; ++o) {
      cost_spread[o] = problem_.schema->object(static_cast<int>(o)).size_gb *
                       (max_price - min_price);
      if (scorer != nullptr) {
        time_spread[o] = scorer->ObjectTimeSpreadMs(static_cast<int>(o));
      }
      max_cost_spread = std::max(max_cost_spread, cost_spread[o]);
      max_time_spread = std::max(max_time_spread, time_spread[o]);
    }
    std::vector<double> weight(n, 0.0);
    for (size_t o = 0; o < n; ++o) {
      if (max_cost_spread > 0) weight[o] += cost_spread[o] / max_cost_spread;
      if (max_time_spread > 0) weight[o] += time_spread[o] / max_time_spread;
    }
    order_.resize(n);
    for (size_t o = 0; o < n; ++o) order_[o] = static_cast<int>(o);
    std::sort(order_.begin(), order_.end(), [&](int a, int b) {
      const double wa = weight[static_cast<size_t>(a)];
      const double wb = weight[static_cast<size_t>(b)];
      return wa != wb ? wa > wb : a < b;
    });

    size_at_depth_.resize(n);
    for (size_t d = 0; d < n; ++d) {
      size_at_depth_[d] = problem_.schema->object(order_[d]).size_gb;
    }
    suffix_min_cost_.assign(n + 1, 0.0);
    suffix_size_.assign(n + 1, 0.0);
    for (size_t d = n; d-- > 0;) {
      suffix_min_cost_[d] =
          suffix_min_cost_[d + 1] +
          MinObjectCostCentsPerHour(*problem_.box, size_at_depth_[d],
                                    problem_.cost_model);
      suffix_size_[d] = suffix_size_[d + 1] + size_at_depth_[d];
    }
    leaves_below_.resize(n + 1);
    for (int d = 0; d <= n_; ++d) {
      leaves_below_[static_cast<size_t>(d)] = LayoutSpaceSize(m_, n_ - d);
    }
  }

  double* UsedRow(int depth) {
    return used_.data() + static_cast<size_t>(depth) * static_cast<size_t>(m_);
  }

  /// Commits class `cls` for the depth-d object: placement, the depth+1
  /// space snapshot, and the bound cursor, which then tightens the node it
  /// enters. Returns true when that moved the cursor's bound.
  bool AssignLevel(int depth, int cls) {
    const int obj = order_[static_cast<size_t>(depth)];
    placement_[static_cast<size_t>(obj)] = cls;
    const double* cur = UsedRow(depth);
    double* next = UsedRow(depth + 1);
    for (int j = 0; j < m_; ++j) next[j] = cur[j];
    next[cls] += size_at_depth_[static_cast<size_t>(depth)];
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
        stats_.layouts_pruned, leaves_below_[static_cast<size_t>(child_depth)]);
  }

  void PruneBound(int child_depth) {
    stats_.nodes_pruned_bound += 1;
    stats_.layouts_pruned = SaturatingAdd(
        stats_.layouts_pruned, leaves_below_[static_cast<size_t>(child_depth)]);
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
        suffix_min_cost_[static_cast<size_t>(child_depth)];
    if (linear_cost_) {
      return parent_cost + class_price_[static_cast<size_t>(cls)] * size +
             remaining;
    }
    double* next = UsedRow(child_depth);  // scratch until AssignLevel
    for (int j = 0; j < m_; ++j) next[j] = cur[j];
    next[cls] += size;
    return CompletionCostLowerBoundCentsPerHour(*problem_.box, next, m_,
                                                remaining, problem_.cost_model);
  }

  void ConsiderLeaf(double toc) {
    if (best_.empty() || BetterCandidate(toc, placement_, best_toc_, best_)) {
      best_toc_ = toc;
      best_ = placement_;
    }
    incumbent_ = std::min(incumbent_, toc);
  }

  /// Expands the node with `depth` objects assigned (depth < n).
  void Dfs(int depth) {
    stats_.nodes_expanded += 1;

    const int obj = order_[static_cast<size_t>(depth)];
    const double size = size_at_depth_[static_cast<size_t>(depth)];
    const double* cur = UsedRow(depth);
    Probe* probes = probes_.data() + static_cast<size_t>(depth + 1) *
                                         static_cast<size_t>(m_);

    if (depth + 1 == n_) {
      for (int cls = 0; cls < m_; ++cls) {
        // Assigned objects never move again, so a class already at or
        // over its (strict) capacity dooms every completion. Deflated:
        // the snapshot is an assignment-order sum while the exact fit
        // rule sums in object order, and a few ULPs must not prune a
        // fitting leaf.
        if ((cur[cls] + size) * (1 - kBoundSafety) >=
            capacity_[static_cast<size_t>(cls)]) {
          PruneInfeasible(depth + 1);
          continue;
        }

        // Leaf: exact evaluation through the same kernels the enumerating
        // search uses — bit-identical toc, fit, and feasibility.
        placement_[static_cast<size_t>(obj)] = cls;
        if (cursor_ != nullptr) cursor_->Assign(obj, placement_);
        const CandidateEval eval =
            optimizer_.EvaluateLeaf(placement_, cursor_.get());
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
        suffix_size_[static_cast<size_t>(depth + 1)];
    double parent_free = 0.0;
    for (int j = 0; j < m_; ++j) {
      pfree_[j] = std::max(0.0, capacity_[static_cast<size_t>(j)] -
                                    cur[j]);
      parent_free += pfree_[j];
    }

    // Pass 1: space feasibility.
    int live = 0;
    for (int cls = 0; cls < m_; ++cls) {
      mask_[cls] = 0;
      const double used_cls = cur[cls] + size;
      if (used_cls * (1 - kBoundSafety) >= capacity_[static_cast<size_t>(
                                               cls)]) {
        PruneInfeasible(depth + 1);
        continue;
      }
      // The unassigned volume must fit in the remaining free space.
      const double free_gb =
          parent_free - pfree_[cls] +
          std::max(0.0, capacity_[static_cast<size_t>(cls)] - used_cls);
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
      cursor_->ProbeClasses(obj, placement_, m_, mask_.data(), qps_.data(),
                            tpden_.data());
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
    if (cursor_ != nullptr && live > 0 && linear_cost_) {
      for (int j = 0; j < m_; ++j) {
        parent_cost += class_price_[static_cast<size_t>(j)] * cur[j];
      }
    }
    live = 0;
    for (int cls = 0; cls < m_; ++cls) {
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

  const DotProblem& problem_;
  const DotOptimizer& optimizer_;
  const int n_;
  const int m_;
  const bool linear_cost_;               ///< cost model has no discrete part
  std::vector<double> capacity_;         ///< per class, c_j
  std::vector<double> class_price_;      ///< per class, p_j (hoisted)
  /// Assignment order: order_[d] is the object assigned at depth d.
  std::vector<int> order_;
  std::vector<double> size_at_depth_;    ///< size_gb of order_[d]
  std::vector<double> suffix_min_cost_;  ///< [d] Σ_{i>=d} min marginal cost
  std::vector<double> suffix_size_;      ///< [d] Σ_{i>=d} size_gb
  std::vector<long long> leaves_below_;  ///< [d] = M^(N-d), saturating
  double incumbent_;                     ///< best TOC known, seeds included
  std::vector<int> placement_;  ///< vector: the scorer API's currency
  std::vector<double> used_;    ///< (n+1) × m space snapshots
  std::vector<Probe> probes_;   ///< (n+1) × m child-probe scratch
  std::vector<unsigned char> mask_;  ///< per-class space feasibility
  std::vector<QuickPerf> qps_;       ///< per-class batched probe results
  std::vector<double> pfree_;        ///< per-class parent free space
  std::vector<double> tpden_;        ///< per-class probe ratio denominators
  std::unique_ptr<FastScorer::BoundCursor> cursor_;
  SearchStats stats_;
  double best_toc_ = std::numeric_limits<double>::infinity();
  std::vector<int> best_;
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

  BnbWalker walker(optimizer, seed);
  walker.Run();
  result.Add(walker.stats());

  if (!walker.best().empty()) {
    // Re-score the winner through the full path (bit-identical toc/cost,
    // now with the PerfEstimate filled) — exactly what the enumerating
    // search does with its winner.
    const CandidateEval eval = optimizer.EvaluateOne(
        Layout(problem.schema, problem.box, walker.best()));
    DOT_CHECK(eval.feasible) << "winner infeasible on full re-score";
    result.placement = std::move(walker.best());
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
