#include "dot/ensemble.h"

#include <algorithm>
#include <array>
#include <limits>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/simd_dispatch.h"

namespace dot {

Status ValidateEnsembleObjective(const EnsembleObjective& objective) {
  if (objective.kind == EnsembleObjective::Kind::kCVaR &&
      !(objective.alpha > 0.0 && objective.alpha <= 1.0)) {
    return Status::InvalidArgument("CVaR alpha must be in (0, 1], got " +
                                   std::to_string(objective.alpha));
  }
  if (!(objective.min_feasible_fraction > kChanceTolerance &&
        objective.min_feasible_fraction <= 1.0)) {
    return Status::InvalidArgument(
        "min_feasible_fraction must be in (kChanceTolerance, 1], got " +
        std::to_string(objective.min_feasible_fraction));
  }
  return Status::OK();
}

EnsembleVerdict AggregateEnsemble(const EnsembleObjective& objective,
                                  const std::vector<double>& weights,
                                  const ScenarioScore* scores, int k) {
  DOT_CHECK(k >= 1 && k <= kMaxScenarios);
  DOT_CHECK(static_cast<int>(weights.size()) == k);

  EnsembleVerdict out;
  double feasible_mass = 0.0;
  for (int i = 0; i < k; ++i) {
    if (scores[i].sla_ok) feasible_mass += weights[static_cast<size_t>(i)];
  }
  out.sla_ok =
      feasible_mass + kChanceTolerance >= objective.min_feasible_fraction;

  if (k == 1) {
    // The point forecast (or a single-scenario ensemble): hand the
    // scenario's throughput through untouched — 1/(1/x) != x bitwise.
    out.tasks_per_hour = scores[0].tasks_per_hour;
    return out;
  }

  const bool cvar = objective.kind == EnsembleObjective::Kind::kCVaR &&
                    objective.alpha < 1.0;
  if (!cvar) {
    // E[TOC] = cost · Σ w_k / thr_k, so the effective throughput is the
    // weighted harmonic mean. An unbounded scenario (thr 0, only possible
    // for optimistic bounds) contributes its best case: nothing. Terms are
    // buffered and summed through the pinned blocked schedule — every
    // caller (fast scorer, bound cursor, full estimator) funnels into this
    // one function, so the schedule choice cannot break fast == full.
    std::array<double, kMaxScenarios> terms;
    int n = 0;
    for (int i = 0; i < k; ++i) {
      const double thr = scores[i].tasks_per_hour;
      if (thr > 0.0) {
        terms[static_cast<size_t>(n++)] =
            weights[static_cast<size_t>(i)] / thr;
      }
    }
    const double sum = BlockedSum(terms.data(), n);
    out.tasks_per_hour = sum > 0.0 ? 1.0 / sum : 0.0;
    return out;
  }

  // Worst-first scenario order: lowest throughput = highest TOC first;
  // unbounded (0) is the *cheapest* possible TOC and sorts last; exact
  // throughput ties break by scenario index (deterministic).
  std::array<int, kMaxScenarios> order;
  for (int i = 0; i < k; ++i) order[static_cast<size_t>(i)] = i;
  const auto sort_key = [&](int i) {
    const double thr = scores[i].tasks_per_hour;
    return thr > 0.0 ? thr : std::numeric_limits<double>::infinity();
  };
  std::sort(order.begin(), order.begin() + k, [&](int a, int b) {
    const double ka = sort_key(a);
    const double kb = sort_key(b);
    return ka != kb ? ka < kb : a < b;
  });

  double remaining = objective.alpha;
  double sum = 0.0;
  for (int j = 0; j < k && remaining > 0.0; ++j) {
    const int i = order[static_cast<size_t>(j)];
    const double w = weights[static_cast<size_t>(i)];
    const double thr = scores[i].tasks_per_hour;
    if (j == 0 && w >= remaining) {
      // The whole tail lives in one scenario: CVaR_α is exactly that
      // scenario's TOC. Return its throughput directly (bit-identical to
      // the worst case; α/(α/thr) is not thr bitwise).
      out.tasks_per_hour = thr;
      return out;
    }
    const double take = std::min(w, remaining);
    if (thr > 0.0) sum += take / thr;
    remaining -= take;
  }
  out.tasks_per_hour = sum > 0.0 ? objective.alpha / sum : 0.0;
  return out;
}

namespace {

/// K child scorers aggregated through AggregateEnsemble. Scenario order is
/// fixed at construction, every per-scenario loop runs in that order, and
/// the children's own Score contracts guarantee per-scenario bit-identity
/// to the full path — so the aggregate is bit-identical to
/// EnsembleEstimator::Evaluate at every thread count.
class EnsembleScorer : public FastScorer {
 public:
  EnsembleScorer(EnsembleObjective objective, std::vector<double> weights,
                 std::vector<std::unique_ptr<FastScorer>> children)
      : objective_(objective),
        weights_(std::move(weights)),
        children_(std::move(children)) {}

  QuickPerf Score(const std::vector<int>& placement) const override {
    std::array<ScenarioScore, kMaxScenarios> scores;
    QuickPerf nominal;
    for (size_t i = 0; i < children_.size(); ++i) {
      const QuickPerf qp = children_[i]->Score(placement);
      if (i == 0) nominal = qp;
      scores[i] = {qp.tasks_per_hour, qp.sla_ok};
    }
    return Finish(nominal, scores.data());
  }

  /// K child bound cursors. Admissibility composes through the monotone
  /// aggregation (see AggregateEnsemble); the few-ULP drift the unequal
  /// summation orders can introduce is absorbed by inflating interior-node
  /// bounds by kBoundSafety — exactly the margin the search's comparisons
  /// already budget for. At a leaf (every object assigned) the children are
  /// exact, no inflation is applied, and the aggregate is bit-identical to
  /// Score — the contract the branch-and-bound leaf path requires.
  class BoundCursor : public FastScorer::BoundCursor {
   public:
    BoundCursor(const EnsembleScorer* owner,
                std::vector<std::unique_ptr<FastScorer::BoundCursor>> children)
        : owner_(owner), children_(std::move(children)) {}

    void Reset() override {
      assigned_ = 0;
      for (auto& c : children_) c->Reset();
    }
    void Assign(int object_id, const std::vector<int>& placement) override {
      ++assigned_;
      for (auto& c : children_) c->Assign(object_id, placement);
    }
    void Unassign(int object_id) override {
      --assigned_;
      for (auto& c : children_) c->Unassign(object_id);
    }
    /// Every child tightens (the aggregation is monotone in each child's
    /// bound, so any one rising can move the aggregate).
    bool Tighten(const std::vector<int>& placement) override {
      bool raised = false;
      for (auto& c : children_) raised = c->Tighten(placement) || raised;
      return raised;
    }
    QuickPerf Optimistic(const std::vector<int>& placement) const override {
      std::array<ScenarioScore, kMaxScenarios> scores;
      QuickPerf nominal;
      for (size_t i = 0; i < children_.size(); ++i) {
        const QuickPerf qp = children_[i]->Optimistic(placement);
        if (i == 0) nominal = qp;
        scores[i] = {qp.tasks_per_hour, qp.sla_ok};
      }
      QuickPerf out = owner_->Finish(nominal, scores.data());
      const bool leaf = assigned_ == static_cast<int>(placement.size());
      if (!leaf && out.tasks_per_hour > 0.0) {
        out.tasks_per_hour *= 1.0 + kBoundSafety;
      }
      return out;
    }

   private:
    const EnsembleScorer* owner_;
    std::vector<std::unique_ptr<FastScorer::BoundCursor>> children_;
    int assigned_ = 0;
  };

  std::unique_ptr<FastScorer::BoundCursor> MakeBoundCursor() const override {
    std::vector<std::unique_ptr<FastScorer::BoundCursor>> cursors;
    cursors.reserve(children_.size());
    for (const auto& child : children_) {
      cursors.push_back(child->MakeBoundCursor());
    }
    return std::make_unique<BoundCursor>(this, std::move(cursors));
  }

  double ObjectTimeSpreadMs(int object) const override {
    // Ordering hint only (never a bound): the largest spread any scenario
    // sees is the natural "this object matters most" signal.
    double spread = 0.0;
    for (const auto& child : children_) {
      spread = std::max(spread, child->ObjectTimeSpreadMs(object));
    }
    return spread;
  }

  long long cache_hits() const override {
    long long total = 0;
    for (const auto& child : children_) total += child->cache_hits();
    return total;
  }
  long long cache_misses() const override {
    long long total = 0;
    for (const auto& child : children_) total += child->cache_misses();
    return total;
  }

 private:
  /// Aggregates per-scenario scores into the outward QuickPerf: effective
  /// throughput + chance verdict, with scenario 0's elapsed/tpmc carried
  /// through for reporting (the search consumes only thr and sla_ok).
  QuickPerf Finish(const QuickPerf& nominal,
                   const ScenarioScore* scores) const {
    const EnsembleVerdict v = AggregateEnsemble(
        objective_, weights_, scores, static_cast<int>(children_.size()));
    QuickPerf out = nominal;
    out.tasks_per_hour = v.tasks_per_hour;
    out.sla_ok = v.sla_ok;
    return out;
  }

  EnsembleObjective objective_;
  std::vector<double> weights_;
  std::vector<std::unique_ptr<FastScorer>> children_;
};

}  // namespace

std::unique_ptr<FastScorer> MakeEnsembleScorer(
    const WorkloadModel& nominal, const ScenarioEnsemble& ensemble,
    const EnsembleObjective& objective,
    const std::vector<double>& io_scale_hint, const PerfTargets& targets) {
  const int k = ensemble.size();
  std::vector<std::unique_ptr<FastScorer>> children;
  children.reserve(static_cast<size_t>(k));
  for (const Scenario& sc : ensemble.scenarios) {
    const WorkloadModel* model = sc.model != nullptr ? sc.model : &nominal;
    if (model->sla_kind() != targets.kind) return nullptr;
    children.push_back(model->MakeFastScorer(
        ComposeIoScale(io_scale_hint, sc.io_scale), targets.query_caps_ms,
        targets.min_tpmc, kDefaultSlaTolerance));
  }
  // One scenario aggregates to its own throughput (AggregateEnsemble
  // passes it through), so its scorer is the lone child: the point
  // forecast scores through the model's own scorer.
  if (k == 1) return std::move(children.front());
  return std::make_unique<EnsembleScorer>(
      objective, ensemble.NormalizedWeights(), std::move(children));
}

EnsembleEstimator::EnsembleEstimator(const WorkloadModel& nominal,
                                     const ScenarioEnsemble& ensemble,
                                     const EnsembleObjective& objective,
                                     const std::vector<double>& io_scale_hint,
                                     PerfTargets targets)
    : weights_(ensemble.NormalizedWeights()),
      objective_(objective),
      targets_(std::move(targets)) {
  slots_.reserve(static_cast<size_t>(ensemble.size()));
  for (const Scenario& sc : ensemble.scenarios) {
    Slot slot;
    slot.model = sc.model != nullptr ? sc.model : &nominal;
    slot.io_scale = ComposeIoScale(io_scale_hint, sc.io_scale);
    slots_.push_back(std::move(slot));
  }
}

EnsembleVerdict EnsembleEstimator::Evaluate(const std::vector<int>& placement,
                                            PerfEstimate* nominal_out) const {
  const int k = static_cast<int>(slots_.size());
  std::array<ScenarioScore, kMaxScenarios> scores;
  for (int i = 0; i < k; ++i) {
    const Slot& slot = slots_[static_cast<size_t>(i)];
    PerfEstimate est = slot.model->EstimateWithIoScale(
        placement, slot.io_scale,
        /*need_io_by_object=*/i == 0 && nominal_out != nullptr);
    scores[static_cast<size_t>(i)] = {est.tasks_per_hour,
                                      MeetsTargets(est, targets_)};
    if (i == 0 && nominal_out != nullptr) *nominal_out = std::move(est);
  }
  return AggregateEnsemble(objective_, weights_, scores.data(), k);
}

}  // namespace dot
