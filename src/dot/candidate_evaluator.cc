#include "dot/candidate_evaluator.h"

#include <algorithm>
#include <array>
#include <limits>
#include <string>
#include <utility>

#include "common/check.h"
#include "dot/ensemble.h"
#include "storage/pricing.h"

namespace dot {

bool BetterCandidate(double toc_a, const std::vector<int>& placement_a,
                     double toc_b, const std::vector<int>& placement_b) {
  if (toc_a != toc_b) return toc_a < toc_b;
  return placement_a < placement_b;
}

long long LayoutSpaceSize(int num_classes, int num_objects) {
  DOT_CHECK(num_classes >= 1 && num_objects >= 0);
  long long total = 1;
  for (int o = 0; o < num_objects; ++o) {
    if (total > kLayoutSpaceSaturated / num_classes) {
      return kLayoutSpaceSaturated;
    }
    total *= num_classes;
  }
  return total;
}

std::vector<int> DecodeLayoutIndex(long long index, int num_objects,
                                   int num_classes) {
  DOT_CHECK(index >= 0 && num_objects >= 0 && num_classes >= 1);
  std::vector<int> placement(static_cast<size_t>(num_objects), 0);
  for (int o = 0; o < num_objects && index != 0; ++o) {
    placement[static_cast<size_t>(o)] = static_cast<int>(index % num_classes);
    index /= num_classes;
  }
  DOT_CHECK(index == 0) << "layout index out of range for the M^N space";
  return placement;
}

Result<std::vector<std::vector<int>>> EnumerateLayoutSpace(
    int num_objects, int num_classes, long long max_layouts) {
  const long long space = LayoutSpaceSize(num_classes, num_objects);
  if (space == kLayoutSpaceSaturated || space > max_layouts) {
    return Status::OutOfRange(
        "layout space " + std::to_string(num_classes) + "^" +
        std::to_string(num_objects) + " exceeds the cap of " +
        std::to_string(max_layouts) + " layouts");
  }
  std::vector<std::vector<int>> layouts;
  layouts.reserve(static_cast<size_t>(space));
  for (long long idx = 0; idx < space; ++idx) {
    layouts.push_back(DecodeLayoutIndex(idx, num_objects, num_classes));
  }
  return layouts;
}

CandidateEval CandidateEvaluator::EvaluateOne(const Layout& layout) const {
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
  eval.toc = estimator_.EstimateToc(layout, &eval.estimate,
                                    &eval.cost_cents_per_hour, &sla_ok);
  eval.feasible = sla_ok;
  if (!eval.feasible) eval.toc = std::numeric_limits<double>::infinity();
  return eval;
}

CandidateEvaluator::CandidateEvaluator(const DotOptimizer& estimator)
    : estimator_(estimator) {
  const DotProblem& problem = estimator_.problem();
  if (!problem.options.use_fast_eval) return;  // the full-path reference
  if (problem.box->NumClasses() > kMaxClasses) {
    // Out of stack budget: stay on the full path — such a box must still
    // optimize, just not fast.
    return;
  }
  const PerfTargets& targets = estimator_.targets();
  if (targets.kind != problem.workload->sla_kind()) {
    // A targets_override of the other kind (e.g. throughput targets over a
    // DSS workload) is degenerate but legal — MeetsTargets just finds every
    // candidate infeasible. The scorers assume matching caps, so leave the
    // full path to produce that verdict.
    return;
  }
  // K child scorers under the forecast's aggregation, or at K = 1 (the
  // point forecast) the model's own scorer. Null (a scenario of the other
  // SLA kind) leaves the full path on.
  scorer_ = MakeEnsembleScorer(*problem.workload, estimator_.forecast(),
                               estimator_.objective(), problem.io_scale_hint,
                               targets);
  if (scorer_ == nullptr) return;
  size_gb_.reserve(static_cast<size_t>(problem.schema->NumObjects()));
  for (const DbObject& o : problem.schema->objects()) {
    size_gb_.push_back(o.size_gb);
  }
}

bool CandidateEvaluator::FitAndCost(const std::vector<int>& placement,
                                    CandidateEval* eval) const {
  const DotProblem& problem = estimator_.problem();
  // Space by class, in the exact object order Layout::SpaceByClass sums.
  std::array<double, kMaxClasses> used{};
  for (size_t o = 0; o < size_gb_.size(); ++o) {
    used[static_cast<size_t>(placement[o])] += size_gb_[o];
  }
  const Layout::CapacityFit fit =
      Layout::FitFromSpace(*problem.box, used.data());
  eval->fits = fit.fits;
  eval->violation_gb = fit.violation_gb;
  if (!eval->fits) {
    // The full path skips estimation for over-capacity candidates; so do
    // we.
    eval->toc = std::numeric_limits<double>::infinity();
    return false;
  }
  eval->cost_cents_per_hour = LayoutCostCentsPerHour(
      *problem.box, used.data(), problem.box->NumClasses(),
      problem.cost_model);
  return true;
}

CandidateEval CandidateEvaluator::Finish(CandidateEval eval,
                                         const QuickPerf& qp) const {
  DOT_CHECK(qp.tasks_per_hour > 0) << "estimate produced zero throughput";
  eval.toc = eval.cost_cents_per_hour / qp.tasks_per_hour;
  eval.feasible = qp.sla_ok;
  if (!eval.feasible) eval.toc = std::numeric_limits<double>::infinity();
  return eval;
}

CandidateEval CandidateEvaluator::EvaluateQuick(
    const std::vector<int>& placement) const {
  if (scorer_ == nullptr) {
    const DotProblem& problem = estimator_.problem();
    return EvaluateOne(Layout(problem.schema, problem.box, placement));
  }
  CandidateEval eval;
  if (!FitAndCost(placement, &eval)) return eval;
  return Finish(eval, scorer_->Score(placement));
}

CandidateEval CandidateEvaluator::EvaluateLeaf(
    const std::vector<int>& placement,
    const FastScorer::BoundCursor* cursor) const {
  if (cursor == nullptr) return EvaluateQuick(placement);
  CandidateEval eval;
  if (!FitAndCost(placement, &eval)) return eval;
  return Finish(eval, cursor->Optimistic(placement));
}

std::unique_ptr<FastScorer::MoveWalk> CandidateEvaluator::MakeMoveWalk(
    const std::vector<int>& start) const {
  if (scorer_ == nullptr) return nullptr;
  return scorer_->MakeMoveWalk(start);
}

CandidateEval CandidateEvaluator::EvaluateMove(
    const std::vector<int>& placement, const std::vector<int>& moved,
    FastScorer::MoveWalk* walk) const {
  if (walk == nullptr) return EvaluateQuick(placement);
  CandidateEval eval;
  if (!FitAndCost(placement, &eval)) return eval;
  return Finish(eval, walk->Price(placement, moved));
}

long long CandidateEvaluator::plan_cache_hits() const {
  return scorer_ != nullptr ? scorer_->cache_hits() : 0;
}

long long CandidateEvaluator::plan_cache_misses() const {
  return scorer_ != nullptr ? scorer_->cache_misses() : 0;
}

CandidateEvaluator::SpaceScan CandidateEvaluator::ScanLayoutSpace(
    long long space_begin, long long space_end, ThreadPool* pool) const {
  const DotProblem& problem = estimator_.problem();
  const int n = problem.schema->NumObjects();
  const int m = problem.box->NumClasses();

  SpaceScan out;
  if (space_begin >= space_end) return out;

  // Oversplit relative to the lane count for load balance. The shard count
  // (and thus the boundaries) DOES vary with the thread count — determinism
  // comes solely from the merge below being a minimum under the
  // BetterCandidate total order, which picks the same winner for any
  // partition of the space. Do not replace the reduction with a
  // first-found or shard-order rule. The fast path keeps this safe: a
  // fully assigned bound cursor is bit-identical to FastScorer::Score, so a
  // layout's value cannot depend on which shard (or thread) walked to it.
  const int num_shards = static_cast<int>(std::min<long long>(
      space_end - space_begin, 8LL * pool->num_threads()));
  std::vector<SpaceScan> per_shard(static_cast<size_t>(num_shards));

  pool->ParallelForShards(
      space_begin, space_end, num_shards,
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
        if (scorer_ != nullptr) {
          cursor = scorer_->MakeBoundCursor();
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
  if (out.feasible_found && scorer_ != nullptr) {
    out.best =
        EvaluateOne(Layout(problem.schema, problem.box, out.best_placement));
  }
  return out;
}

}  // namespace dot
