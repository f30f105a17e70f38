#ifndef DOTPROV_DOT_ENSEMBLE_H_
#define DOTPROV_DOT_ENSEMBLE_H_

#include <memory>
#include <vector>

#include "dot/sla.h"
#include "workload/scenario.h"
#include "workload/workload.h"

namespace dot {

/// What "best layout" means over a scenario ensemble (DESIGN.md §10).
struct EnsembleObjective {
  enum class Kind {
    /// Minimize E[TOC] = Σ_k w_k · cost / thr_k — the risk-neutral choice.
    kExpectedToc,
    /// Minimize CVaR_α: the probability-weighted mean TOC of the worst
    /// α-mass of scenarios — the tail-averse choice. α = alpha; α ≥ 1
    /// degenerates to (and is computed exactly as) kExpectedToc.
    kCVaR,
  };
  Kind kind = Kind::kExpectedToc;

  /// Tail mass of kCVaR, in (0, 1].
  double alpha = 0.2;

  /// Chance constraint: a layout is SLA-feasible iff the probability mass
  /// of scenarios meeting the targets is at least this. 1.0 (default) =
  /// every scenario must meet the SLA; 0.8 tolerates a 20% miss mass.
  double min_feasible_fraction = 1.0;
};

/// Absolute slack of the chance-constraint comparison, absorbing the
/// floating-point drift of the weight normalization (w_k = 1/K sums to
/// 1 ± few ULP, which must not fail min_feasible_fraction = 1.0).
inline constexpr double kChanceTolerance = 1e-12;

/// InvalidArgument unless kCVaR's `alpha` is in (0, 1] and
/// `min_feasible_fraction` is in (kChanceTolerance, 1] (NaN fails either):
/// a fraction at or below the tolerance would call every layout feasible
/// on the full path while a lone K = 1 child scorer still reports its own
/// SLA verdict. The one check of an ensemble objective: ValidateProblem
/// runs it when DotProblem::ensemble is set (a point problem's objective
/// is ignored, so it is not checked), and everything below takes it as
/// given.
Status ValidateEnsembleObjective(const EnsembleObjective& objective);

/// One scenario's contribution to an ensemble verdict: the throughput its
/// model predicts (or optimistically bounds) and its SLA verdict.
struct ScenarioScore {
  double tasks_per_hour = 0.0;  ///< 0 = unbounded (bound-cursor convention)
  bool sla_ok = false;
};

/// The aggregated verdict: an *effective* throughput chosen so that
/// cost / tasks_per_hour equals the ensemble objective (E[TOC] or CVaR),
/// plus the chance-constraint feasibility. tasks_per_hour = 0 means the
/// objective is unbounded from below (only possible when every scenario
/// reported an unbounded optimistic score).
struct EnsembleVerdict {
  double tasks_per_hour = 0.0;
  bool sla_ok = false;
};

/// The one aggregation rule every path shares — the fast scorer, the full
/// estimator, and the branch-and-bound bound cursor all call this exact
/// function, which is what makes fast == full == leaf bit for bit under an
/// ensemble.
///
///   * kExpectedToc: effective thr = 1 / Σ_k (w_k / thr_k), summed in
///     scenario order (weights must be normalized).
///   * kCVaR: scenarios sorted by ascending throughput (slowest = worst
///     TOC first; 0 = unbounded sorts last; exact ties break by scenario
///     index), weight accumulated up to α with a fractional boundary
///     scenario; effective thr = α / Σ_tail (w'_k / thr_k).
///   * K = 1 (and a CVaR tail contained in a single scenario) return that
///     scenario's throughput *directly* — 1/(1/x) is not x bit for bit,
///     and the K=1-reproduces-the-point-forecast contract depends on the
///     short-circuit.
///   * sla_ok: Σ w_k over SLA-meeting scenarios + kChanceTolerance ≥
///     min_feasible_fraction.
///
/// Monotone in every thr_k (IEEE division and addition are monotone, and
/// raising one scenario's throughput never moves it *into* the CVaR tail),
/// so aggregating per-scenario admissible upper bounds yields an
/// admissible upper bound on the aggregate — the property the
/// branch-and-bound bound cursor rests on. This bound dominates the naive
/// min-over-scenarios bound (it weights every scenario instead of charging
/// all mass to the worst) and coincides with it at K = 1.
EnsembleVerdict AggregateEnsemble(const EnsembleObjective& objective,
                                  const std::vector<double>& weights,
                                  const ScenarioScore* scores, int k);

/// Builds the forecast's fast scorer — the one scorer DotOptimizer builds
/// lazily: one child FastScorer per scenario (scenario io_scale composed onto
/// `io_scale_hint`, the problem's caps and tolerance), aggregated through
/// AggregateEnsemble. The BoundCursor fans out to K child cursors, inflates
/// interior-node bounds by kBoundSafety (absorbing aggregation-order drift)
/// and returns the exact aggregate at leaves. At K = 1 (the point forecast
/// among others) it returns the lone child itself, with its own cursor,
/// probes and move walk. Returns nullptr when any scenario model's SLA
/// kind mismatches `targets` — callers then take the full path.
std::unique_ptr<FastScorer> MakeEnsembleScorer(
    const WorkloadModel& nominal, const ScenarioEnsemble& ensemble,
    const EnsembleObjective& objective,
    const std::vector<double>& io_scale_hint, const PerfTargets& targets);

/// The full evaluation path: per-scenario EstimateWithIoScale +
/// MeetsTargets, aggregated through the same AggregateEnsemble the fast
/// scorer uses. DotOptimizer owns one on every problem — over
/// DotProblem::ensemble, or else over the one-scenario nominal ensemble
/// that is the point forecast (bit-identical to a bare EstimateWithIoScale
/// under the hint: the weight is exactly 1.0, the composed io_scale is the
/// hint, and AggregateEnsemble passes a lone throughput through).
class EnsembleEstimator {
 public:
  /// Pointees of `ensemble` must outlive the estimator; `targets` is
  /// copied (the caps every scenario is judged against — scenario
  /// uncertainty perturbs the workload, never the contract).
  EnsembleEstimator(const WorkloadModel& nominal,
                    const ScenarioEnsemble& ensemble,
                    const EnsembleObjective& objective,
                    const std::vector<double>& io_scale_hint,
                    PerfTargets targets);

  /// Scores one full placement. `nominal_out` (if non-null) receives
  /// scenario 0's full estimate — the reporting estimate, bit-identical to
  /// the point forecast's when scenario 0 is nominal.
  EnsembleVerdict Evaluate(const std::vector<int>& placement,
                           PerfEstimate* nominal_out) const;

  int num_scenarios() const { return static_cast<int>(slots_.size()); }

 private:
  struct Slot {
    const WorkloadModel* model = nullptr;
    std::vector<double> io_scale;  ///< hint ∘ scenario, precomposed
  };
  std::vector<Slot> slots_;
  std::vector<double> weights_;
  EnsembleObjective objective_;
  PerfTargets targets_;
};

}  // namespace dot

#endif  // DOTPROV_DOT_ENSEMBLE_H_
