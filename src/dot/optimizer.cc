#include "dot/optimizer.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/clock.h"
#include "common/thread_pool.h"
#include "dot/moves.h"
#include "storage/pricing.h"

namespace dot {

namespace {

/// The point forecast as an ensemble: one nominal scenario of weight 1.
const ScenarioEnsemble& PointForecast() {
  static const ScenarioEnsemble point{std::vector<Scenario>(1)};
  return point;
}

PerfTargets DeriveTargets(const DotProblem& problem) {
  // The constructor's one precondition; entry points return it first.
  DOT_CHECK_OK(ValidateProblem(problem));
  return problem.targets_override != nullptr
             ? *problem.targets_override
             : MakePerfTargets(*problem.workload, *problem.box,
                               problem.schema->NumObjects(),
                               problem.relative_sla, problem.io_scale_hint,
                               problem.tail_sla);
}

}  // namespace

Status ValidateProblem(const DotProblem& problem) {
  if (problem.schema == nullptr || problem.box == nullptr ||
      problem.workload == nullptr) {
    return Status::InvalidArgument(
        "DotProblem::schema, ::box and ::workload must be set");
  }
  const int n = problem.schema->NumObjects();
  const Schema* workload_schema = problem.workload->schema();
  if (workload_schema == nullptr || workload_schema->NumObjects() != n) {
    return Status::InvalidArgument(
        "the workload's schema and the problem's differ in size");
  }
  Status st = problem.targets_override == nullptr
                  ? ValidateRelativeSla(problem.relative_sla)
                  : Status::OK();
  if (st.ok()) st = ValidateTailSla(problem.tail_sla);
  if (st.ok()) st = ValidateIoScale(problem.io_scale_hint, n, "io_scale_hint");
  if (!st.ok() || problem.ensemble == nullptr) return st;
  st = ValidateEnsembleObjective(problem.ensemble_objective);
  return st.ok() ? ValidateEnsemble(*problem.ensemble, n) : st;
}

DotOptimizer::DotOptimizer(const DotProblem& problem)
    : problem_(problem),
      targets_(DeriveTargets(problem_)),
      forecast_(problem_.ensemble != nullptr ? problem_.ensemble
                                             : &PointForecast()),
      objective_(problem_.ensemble != nullptr ? problem_.ensemble_objective
                                              : EnsembleObjective{}),
      estimator_(*problem_.workload, *forecast_, objective_,
                 problem_.io_scale_hint, targets_) {}

double DotOptimizer::EstimateToc(const std::vector<int>& placement,
                                 PerfEstimate* estimate_out, double* cost_out,
                                 bool* sla_ok_out) const {
  return EstimateToc(Layout(problem_.schema, problem_.box, placement),
                     estimate_out, cost_out, sla_ok_out);
}

double DotOptimizer::EstimateToc(const Layout& layout,
                                 PerfEstimate* estimate_out, double* cost_out,
                                 bool* sla_ok_out) const {
  const double cost = layout.CostCentsPerHour(problem_.cost_model);
  if (cost_out != nullptr) *cost_out = cost;
  const EnsembleVerdict verdict =
      estimator_.Evaluate(layout.placement(), estimate_out);
  DOT_CHECK(verdict.tasks_per_hour > 0) << "estimate produced zero throughput";
  if (sla_ok_out != nullptr) *sla_ok_out = verdict.sla_ok;
  return cost / verdict.tasks_per_hour;
}

CandidateEval DotOptimizer::EvaluateOne(const Layout& layout) const {
  CandidateEval eval;
  const Layout::CapacityFit fit = layout.ComputeCapacityFit();
  eval.fits = fit.fits;
  eval.violation_gb = fit.violation_gb;
  if (!eval.fits) {
    eval.toc = std::numeric_limits<double>::infinity();
    return eval;
  }
  // EstimateToc owns the SLA verdict: the forecast's chance constraint
  // (MeetsTargets on the point forecast).
  bool sla_ok = false;
  eval.toc = EstimateToc(layout, &eval.estimate, &eval.cost_cents_per_hour,
                         &sla_ok);
  eval.feasible = sla_ok;
  if (!eval.feasible) eval.toc = std::numeric_limits<double>::infinity();
  return eval;
}

const FastScorer* DotOptimizer::scorer() const {
  std::call_once(scorer_once_, [this] {
    if (!problem_.options.use_fast_eval) return;  // the full-path reference
    if (problem_.box->NumClasses() > kMaxClasses) {
      // Out of stack budget: stay on the full path — such a box must still
      // optimize, just not fast.
      return;
    }
    if (targets_.kind != problem_.workload->sla_kind()) {
      // A targets_override of the other kind (e.g. throughput targets over
      // a DSS workload) is degenerate but legal — MeetsTargets just finds
      // every candidate infeasible. The scorers assume matching caps, so
      // leave the full path to produce that verdict.
      return;
    }
    // K child scorers under the forecast's aggregation, or at K = 1 (the
    // point forecast) the model's own scorer. Null (a scenario of the
    // other SLA kind) leaves the full path on.
    scorer_ = MakeEnsembleScorer(*problem_.workload, *forecast_, objective_,
                                 problem_.io_scale_hint, targets_);
    if (scorer_ == nullptr) return;
    size_gb_.reserve(static_cast<size_t>(problem_.schema->NumObjects()));
    for (const DbObject& o : problem_.schema->objects()) {
      size_gb_.push_back(o.size_gb);
    }
  });
  return scorer_.get();
}

bool DotOptimizer::FitAndCost(const std::vector<int>& placement,
                              CandidateEval* eval) const {
  // Space by class, in the exact object order Layout::SpaceByClass sums.
  std::array<double, kMaxClasses> used{};
  for (size_t o = 0; o < size_gb_.size(); ++o) {
    used[static_cast<size_t>(placement[o])] += size_gb_[o];
  }
  const Layout::CapacityFit fit =
      Layout::FitFromSpace(*problem_.box, used.data());
  eval->fits = fit.fits;
  eval->violation_gb = fit.violation_gb;
  if (!eval->fits) {
    // The full path skips estimation for over-capacity candidates; so do
    // we.
    eval->toc = std::numeric_limits<double>::infinity();
    return false;
  }
  eval->cost_cents_per_hour = LayoutCostCentsPerHour(
      *problem_.box, used.data(), problem_.box->NumClasses(),
      problem_.cost_model);
  return true;
}

CandidateEval DotOptimizer::Finish(CandidateEval eval,
                                   const QuickPerf& qp) const {
  DOT_CHECK(qp.tasks_per_hour > 0) << "estimate produced zero throughput";
  eval.toc = eval.cost_cents_per_hour / qp.tasks_per_hour;
  eval.feasible = qp.sla_ok;
  if (!eval.feasible) eval.toc = std::numeric_limits<double>::infinity();
  return eval;
}

CandidateEval DotOptimizer::EvaluateQuick(
    const std::vector<int>& placement) const {
  const FastScorer* fast = scorer();
  if (fast == nullptr) {
    return EvaluateOne(Layout(problem_.schema, problem_.box, placement));
  }
  CandidateEval eval;
  if (!FitAndCost(placement, &eval)) return eval;
  return Finish(eval, fast->Score(placement));
}

CandidateEval DotOptimizer::EvaluateLeaf(
    const std::vector<int>& placement,
    const FastScorer::BoundCursor* cursor) const {
  if (cursor == nullptr) return EvaluateQuick(placement);
  CandidateEval eval;
  if (!FitAndCost(placement, &eval)) return eval;
  return Finish(eval, cursor->Optimistic(placement));
}

long long DotOptimizer::plan_cache_hits() const {
  const FastScorer* fast = scorer();
  return fast != nullptr ? fast->cache_hits() : 0;
}

long long DotOptimizer::plan_cache_misses() const {
  const FastScorer* fast = scorer();
  return fast != nullptr ? fast->cache_misses() : 0;
}

DotOptimizer::SpaceScan DotOptimizer::ScanLayoutSpace() const {
  const int n = problem_.schema->NumObjects();
  const int m = problem_.box->NumClasses();
  const long long space = LayoutSpaceSize(m, n);
  const FastScorer* fast = scorer();
  SpaceScan out;
  ThreadPool pool(problem_.options.num_threads);

  // Oversplit relative to the lane count for load balance. The shard count
  // (and thus the boundaries) DOES vary with the thread count — determinism
  // comes solely from the merge below being a minimum under the
  // BetterCandidate total order, which picks the same winner for any
  // partition of the space. Do not replace the reduction with a
  // first-found or shard-order rule. The fast path keeps this safe: a
  // fully assigned bound cursor is bit-identical to FastScorer::Score, so a
  // layout's value cannot depend on which shard (or thread) walked to it.
  const int num_shards =
      static_cast<int>(std::min<long long>(space, 8LL * pool.num_threads()));
  std::vector<SpaceScan> per_shard(static_cast<size_t>(num_shards));

  pool.ParallelForShards(
      0, space, num_shards,
      [&](int shard, int64_t shard_begin, int64_t shard_end) {
        SpaceScan local;
        std::vector<int> placement = DecodeLayoutIndex(shard_begin, n, m);
        // The shard walks one bound cursor, LIFO with digit 0 on top: the
        // start placement is assigned most significant digit first, and
        // each odometer step unassigns the rolled digits 0..d and
        // re-assigns d..0, so only the state those digits touch refreshes.
        // With every object assigned the cursor is exact, and each layout
        // scores through the branch-and-bound leaf kernel.
        std::unique_ptr<FastScorer::BoundCursor> cursor;
        if (fast != nullptr) {
          cursor = fast->MakeBoundCursor();
          cursor->Reset();
          for (int o = n - 1; o >= 0; --o) cursor->Assign(o, placement);
        }
        for (int64_t idx = shard_begin; idx < shard_end; ++idx) {
          local.evaluated += 1;
          CandidateEval eval = EvaluateLeaf(placement, cursor.get());
          if (eval.feasible) {
            if (!local.feasible_found ||
                BetterCandidate(eval.toc, placement, local.best.toc,
                                local.best_placement)) {
              local.feasible_found = true;
              local.best = std::move(eval);
              local.best_placement = placement;
            }
          }
          if (idx + 1 == shard_end) break;
          // Advance the M-ary odometer (digit 0 least significant): digits
          // 0..d roll, almost always just digit 0.
          int rolled = 0;
          while (++placement[static_cast<size_t>(rolled)] >= m) {
            placement[static_cast<size_t>(rolled)] = 0;
            ++rolled;
          }
          if (cursor != nullptr) {
            for (int o = 0; o <= rolled; ++o) cursor->Unassign(o);
            for (int o = rolled; o >= 0; --o) cursor->Assign(o, placement);
          }
        }
        per_shard[static_cast<size_t>(shard)] = std::move(local);
      });

  for (SpaceScan& shard : per_shard) {
    out.evaluated += shard.evaluated;
    if (!shard.feasible_found) continue;
    if (!out.feasible_found ||
        BetterCandidate(shard.best.toc, shard.best_placement, out.best.toc,
                        out.best_placement)) {
      out.feasible_found = true;
      out.best = std::move(shard.best);
      out.best_placement = std::move(shard.best_placement);
    }
  }

  // Quick evaluations carry no PerfEstimate; re-score the winner through
  // the full path (bit-identical toc/cost, now with the estimate filled).
  if (out.feasible_found && fast != nullptr) {
    out.best =
        EvaluateOne(Layout(problem_.schema, problem_.box, out.best_placement));
  }
  return out;
}

DotResult DotOptimizer::Optimize() const {
  const double start_ms = NowMs();
  DotResult result = Walk();
  if (result.status.ok()) {
    // One full evaluation of L* fills result.estimate. The fast path's toc
    // and cost are bit-identical to the full path's, so every committed
    // field already matches what a full-evaluation walk would have
    // recorded (pinned by dot_fast_eval_test). The reporting estimate is
    // scenario 0's: the point forecast's when scenario 0 is nominal.
    estimator_.Evaluate(result.placement, &result.estimate);
  }
  result.optimize_ms = NowMs() - start_ms;
  return result;
}

DotResult DotOptimizer::Walk() const {
  const double start_ms = NowMs();
  DotResult result;
  result.targets = targets_;
  // `profiles` is needed only here (move scoring); EstimateToc and the
  // exact searches' reuse of this class work without it.
  if (problem_.profiles == nullptr) {
    result.status = Status::InvalidArgument(
        "Optimize() needs DotProblem::profiles from the profiling phase");
    return result;
  }

  const long long cache_hits_before = plan_cache_hits();
  const long long cache_misses_before = plan_cache_misses();

  // The working layout is one scratch placement, starting at L0: each move
  // is applied to it in place, priced through the move walk (which
  // re-prices only what the move touches), and reverted when rejected.
  std::vector<int> current = UniformPlacement(
      problem_.schema->NumObjects(), problem_.box->MostExpensiveClass());
  const FastScorer* fast = scorer();
  const std::unique_ptr<FastScorer::MoveWalk> walk =
      fast != nullptr ? fast->MakeMoveWalk(current) : nullptr;
  const bool any_feasible =
      problem_.options.acceptance == MoveAcceptance::kAnyFeasible;

  double best_toc = std::numeric_limits<double>::infinity();
  bool feasible_found = false;

  // Commits one evaluation to the result: counts it and records it as L*
  // when it is the best feasible candidate under the engine's total order
  // (TOC, then lexicographically lowest placement). Evaluations here are
  // TOC-only (no PerfEstimate is materialized); Optimize() re-scores the
  // winner through the full path once, after the walk.
  auto commit = [&](const std::vector<int>& placement,
                    const CandidateEval& eval) {
    result.layouts_evaluated += 1;
    if (!eval.feasible) return;
    if (!feasible_found ||
        BetterCandidate(eval.toc, placement, best_toc, result.placement)) {
      best_toc = eval.toc;
      result.placement = placement;
      result.toc_cents_per_task = eval.toc;
      result.layout_cost_cents_per_hour = eval.cost_cents_per_hour;
    }
    feasible_found = true;
  };

  // L0 itself is the first candidate (feasible unless a capacity cap on
  // the premium class makes it over-full). Working-layout state for the
  // acceptance rule below starts from its verdict.
  std::vector<int> moved;  // objects the current move changes
  std::vector<int> saved;  // their classes in the working layout
  double current_toc = std::numeric_limits<double>::infinity();
  double current_violation = 0.0;

  // Evaluates `current`, which differs from the working layout in `moved`,
  // into *eval: the fit and cost kernels, then the move walk's price —
  // bit-identical to EvaluateQuick, which it falls back to without a
  // walk. While the working layout is feasible (a finite TOC: it fits and
  // meets the SLA) the walk's Bound is asked first, and a move it proves
  // the rules below must reject is rejected unpriced (returns false): one
  // that must miss the SLA, or under the TOC rule one whose TOC must be
  // strictly above the working layout's, which is at least the best TOC so
  // far. Ties are priced: a tie can still be accepted (sweep 0) or win on
  // placement order. With the working layout over capacity or
  // SLA-infeasible, the rules accept moves no TOC bound can rule out, so
  // every move is priced (DESIGN.md §2).
  auto evaluate = [&](CandidateEval* eval) {
    if (walk == nullptr) {
      *eval = EvaluateQuick(current);
      return true;
    }
    if (!FitAndCost(current, eval)) return true;
    if (std::isfinite(current_toc)) {
      const QuickPerf bound = walk->Bound(current, moved);
      if (!bound.sla_ok ||
          (!any_feasible && bound.tasks_per_hour > 0 &&
           eval->cost_cents_per_hour / bound.tasks_per_hour > current_toc)) {
        return false;
      }
    }
    *eval = Finish(*eval, walk->Price(current, moved));
    return true;
  };

  CandidateEval l0_eval;
  evaluate(&l0_eval);
  commit(current, l0_eval);
  current_toc = l0_eval.toc;
  current_violation = l0_eval.violation_gb;

  // Procedure 1 walks the score-ordered move list, applying each move to
  // the working layout when it helps. Two refinements over the literal
  // pseudocode (documented in DESIGN.md):
  //  * a feasible move is kept only if it does not increase the estimated
  //    TOC of the working layout — otherwise later (worse-scored) moves of
  //    the same group override earlier, better placements and the best
  //    combination across groups never materializes;
  //  * while the working layout is over capacity (capped premium class,
  //    §4.5.3), moves that strictly shrink the violation are kept so the
  //    walk can reach feasible space at all.
  std::vector<ObjectGroup> groups;
  if (problem_.options.group_objects) {
    groups = problem_.schema->MakeGroups();
  } else {
    // Ablation: one singleton group per object — the per-object move
    // enumeration of prior work that ignores table/index interaction.
    for (const DbObject& o : problem_.schema->objects()) {
      ObjectGroup g;
      g.table_id = o.kind == ObjectKind::kTable ? o.id : -1;
      g.members = {o.id};
      groups.push_back(std::move(g));
    }
  }
  const std::vector<Move> moves = EnumerateMoves(problem_, groups);
  const int max_sweeps = std::max(1, problem_.options.max_sweeps);

  // The walk is serial: each acceptance changes the working layout every
  // later move is judged against, so every candidate is derived from the
  // current working layout and scored in move order.
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    bool improved = false;
    for (const Move& move : moves) {
      const ObjectGroup& g = groups[static_cast<size_t>(move.group)];
      // Apply the move, remembering what it changed. Most moves in a
      // converged sweep change nothing and are skipped.
      moved.clear();
      saved.clear();
      for (size_t i = 0; i < g.members.size(); ++i) {
        int& cls = current[static_cast<size_t>(g.members[i])];
        if (cls == move.placement[i]) continue;
        moved.push_back(g.members[i]);
        saved.push_back(cls);
        cls = move.placement[i];
      }
      if (moved.empty()) continue;
      CandidateEval eval;
      bool accept = false;
      if (!evaluate(&eval)) {
        // Judged by its bound: counted, but never accepted and never L*.
        result.layouts_evaluated += 1;
        result.moves_gated += 1;
      } else {
        if (eval.fits) result.moves_priced += 1;
        commit(current, eval);
        if (any_feasible) {
          // Procedure 1 verbatim: keep every feasible move.
          accept = std::isfinite(eval.toc);
        } else {
          // Sweep 0 accepts non-worsening moves (neutral moves open up
          // later combinations); converging sweeps demand strict
          // improvement.
          accept = sweep == 0 ? eval.toc <= current_toc
                              : eval.toc < current_toc * (1.0 - 1e-12);
        }
        accept = accept || (current_violation > 0.0 &&
                            eval.violation_gb < current_violation);
      }
      if (accept) {
        if (eval.toc < current_toc) improved = true;
        if (walk != nullptr) walk->Commit(current, moved);
        current_toc = eval.toc;
        current_violation = eval.violation_gb;
      } else {
        for (size_t k = 0; k < moved.size(); ++k) {
          current[static_cast<size_t>(moved[k])] = saved[k];
        }
      }
    }
    if (!improved && sweep > 0) break;
  }

  if (!feasible_found) {
    result.status = Status::Infeasible(
        "no enumerated layout satisfies the capacity and SLA constraints");
  }
  result.plan_cache_hits = plan_cache_hits() - cache_hits_before;
  result.plan_cache_misses = plan_cache_misses() - cache_misses_before;
  result.optimize_ms = NowMs() - start_ms;
  return result;
}

}  // namespace dot
