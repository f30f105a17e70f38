#include "dot/eval_tables.h"

#include <array>
#include <limits>

#include "common/check.h"
#include "dot/ensemble.h"
#include "dot/sla.h"
#include "storage/pricing.h"

namespace dot {

FastEvaluator::FastEvaluator(const DotOptimizer& estimator)
    : estimator_(estimator) {
  const DotProblem& problem = estimator_.problem();
  if (problem.box->NumClasses() > kMaxClasses) {
    // Out of stack budget: stay disabled and let the engine use the full
    // path — such a box must still optimize, just not fast.
    return;
  }
  size_gb_.reserve(static_cast<size_t>(problem.schema->NumObjects()));
  for (const DbObject& o : problem.schema->objects()) {
    size_gb_.push_back(o.size_gb);
  }
  const PerfTargets& targets = estimator_.targets();
  if (targets.kind != problem.workload->sla_kind()) {
    // A targets_override of the other kind (e.g. throughput targets over a
    // DSS workload) is degenerate but legal — MeetsTargets just finds every
    // candidate infeasible. The scorers assume matching caps, so leave the
    // fast path disabled and let the full path produce that verdict.
    return;
  }
  if (problem.ensemble != nullptr) {
    // Robust mode: K child scorers under the ensemble aggregation. Null
    // (an out-of-range ensemble or a scenario of the other SLA kind)
    // leaves the fast path disabled.
    scorer_ = MakeEnsembleScorer(*problem.workload, *problem.ensemble,
                                 problem.ensemble_objective,
                                 problem.io_scale_hint, targets);
    return;
  }
  scorer_ = problem.workload->MakeFastScorer(
      problem.io_scale_hint, targets.query_caps_ms, targets.min_tpmc,
      kDefaultSlaTolerance);
}

FastEvaluator::~FastEvaluator() = default;

bool FastEvaluator::FitAndCost(const std::vector<int>& placement,
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
    // EvaluateOne skips estimation for over-capacity candidates; so do we.
    eval->toc = std::numeric_limits<double>::infinity();
    return false;
  }
  eval->cost_cents_per_hour = LayoutCostCentsPerHour(
      *problem.box, used.data(), problem.box->NumClasses(),
      problem.cost_model);
  return true;
}

CandidateEval FastEvaluator::Finish(CandidateEval eval,
                                    const QuickPerf& qp) const {
  DOT_CHECK(qp.tasks_per_hour > 0) << "estimate produced zero throughput";
  eval.toc = eval.cost_cents_per_hour / qp.tasks_per_hour;
  eval.feasible = qp.sla_ok;
  if (!eval.feasible) eval.toc = std::numeric_limits<double>::infinity();
  return eval;
}

CandidateEval FastEvaluator::EvaluateQuick(
    const std::vector<int>& placement) const {
  DOT_CHECK(scorer_ != nullptr);
  CandidateEval eval;
  if (!FitAndCost(placement, &eval)) return eval;
  return Finish(eval, scorer_->Score(placement));
}

CandidateEval FastEvaluator::EvaluateLeaf(
    const std::vector<int>& placement,
    const FastScorer::BoundCursor& cursor) const {
  CandidateEval eval;
  if (!FitAndCost(placement, &eval)) return eval;
  return Finish(eval, cursor.Optimistic(placement));
}

long long FastEvaluator::plan_cache_hits() const {
  return scorer_ != nullptr ? scorer_->cache_hits() : 0;
}

long long FastEvaluator::plan_cache_misses() const {
  return scorer_ != nullptr ? scorer_->cache_misses() : 0;
}

}  // namespace dot
