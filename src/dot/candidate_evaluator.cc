#include "dot/candidate_evaluator.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"
#include "dot/eval_tables.h"

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

CandidateEvaluator::CandidateEvaluator(const DotOptimizer& estimator,
                                       ThreadPool* pool)
    : estimator_(estimator), pool_(pool) {
  DOT_CHECK(pool_ != nullptr);
  if (estimator_.problem().options.use_fast_eval) {
    auto fast = std::make_unique<FastEvaluator>(estimator_);
    if (fast->enabled()) fast_ = std::move(fast);
  }
}

CandidateEvaluator::~CandidateEvaluator() = default;

CandidateEval CandidateEvaluator::EvaluateOne(const Layout& layout) const {
  return EvaluateOneWith(estimator_, layout);
}

CandidateEval CandidateEvaluator::EvaluateOneWith(
    const DotOptimizer& estimator, const Layout& layout) {
  CandidateEval eval;
  const Layout::CapacityFit fit = layout.ComputeCapacityFit();
  eval.fits = fit.fits;
  eval.violation_gb = fit.violation_gb;
  if (!eval.fits) {
    eval.toc = std::numeric_limits<double>::infinity();
    return eval;
  }
  // EstimateToc owns the SLA verdict: MeetsTargets on the point forecast,
  // the chance constraint under an ensemble.
  bool sla_ok = false;
  eval.toc = estimator.EstimateToc(layout, &eval.estimate,
                                   &eval.cost_cents_per_hour, &sla_ok);
  eval.feasible = sla_ok;
  if (!eval.feasible) eval.toc = std::numeric_limits<double>::infinity();
  return eval;
}

CandidateEval CandidateEvaluator::EvaluateQuick(const Layout& layout) const {
  if (fast_ == nullptr) return EvaluateOne(layout);
  return fast_->EvaluateQuick(layout.placement());
}

std::vector<CandidateEval> CandidateEvaluator::EvaluateBatchQuick(
    const std::vector<Layout>& candidates) const {
  std::vector<CandidateEval> evals(candidates.size());
  pool_->ParallelFor(0, static_cast<int64_t>(candidates.size()),
                     [&](int64_t i) {
                       evals[static_cast<size_t>(i)] =
                           EvaluateQuick(candidates[static_cast<size_t>(i)]);
                     });
  return evals;
}

long long CandidateEvaluator::plan_cache_hits() const {
  return fast_ != nullptr ? fast_->plan_cache_hits() : 0;
}

long long CandidateEvaluator::plan_cache_misses() const {
  return fast_ != nullptr ? fast_->plan_cache_misses() : 0;
}

CandidateEvaluator::SpaceScan CandidateEvaluator::ScanLayoutSpace(
    long long space_begin, long long space_end) const {
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
      space_end - space_begin, 8LL * pool_->num_threads()));
  std::vector<SpaceScan> per_shard(static_cast<size_t>(num_shards));

  pool_->ParallelForShards(
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
        if (fast_ != nullptr) {
          cursor = fast_->scorer()->MakeBoundCursor();
          cursor->Reset();
          for (int o = n - 1; o >= 0; --o) cursor->Assign(o, placement);
        }
        for (int64_t idx = shard_begin; idx < shard_end; ++idx) {
          local.evaluated += 1;
          CandidateEval eval =
              cursor != nullptr
                  ? fast_->EvaluateLeaf(placement, *cursor)
                  : EvaluateOne(Layout(problem.schema, problem.box, placement));
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
  if (out.feasible_found && fast_ != nullptr) {
    out.best =
        EvaluateOne(Layout(problem.schema, problem.box, out.best_placement));
  }
  return out;
}

}  // namespace dot
