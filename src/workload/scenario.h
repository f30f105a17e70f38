#ifndef DOTPROV_WORKLOAD_SCENARIO_H_
#define DOTPROV_WORKLOAD_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "workload/workload.h"

namespace dot {

/// One plausible realization of next epoch's workload: which model runs
/// (null = the problem's nominal model), at which per-object I/O intensity,
/// with which probability weight. A scenario perturbs *what the optimizer
/// believes the workload will do* — the search machinery itself is
/// untouched; every scenario is scored through the same estimators as a
/// point forecast.
struct Scenario {
  /// The workload model of this scenario; nullptr means "the DotProblem's
  /// nominal model". Non-null entries (e.g. HTAP mixes at wobbled ratios)
  /// must be built over the problem's schema/box and outlive the run.
  const WorkloadModel* model = nullptr;

  /// Per-object multiplier on the model's I/O counts, composed on top of
  /// the problem's refinement io_scale_hint; empty = no extra scaling.
  std::vector<double> io_scale;

  /// Relative probability mass (normalized by consumers); must be > 0.
  double weight = 1.0;

  std::string label;
};

/// Hard cap on ensemble width: the scoring hot paths keep per-scenario
/// state in stack arrays, and K beyond a few dozen buys no forecasting
/// fidelity the sampler can deliver anyway.
inline constexpr int kMaxScenarios = 64;

/// The scenario set one robust optimization runs over. Scenario order is
/// significant: every weighted sum over scenarios is accumulated in this
/// order (the determinism contract), and consumers treat scenario 0 as the
/// nominal/reporting scenario.
struct ScenarioEnsemble {
  std::vector<Scenario> scenarios;

  int size() const { return static_cast<int>(scenarios.size()); }

  /// Weights scaled to sum to 1, in scenario order. Aborts via DOT_CHECK
  /// on a non-positive weight or an empty ensemble. A single scenario
  /// normalizes to exactly 1.0 (no division drift), which is what lets a
  /// K=1 ensemble reproduce the point forecast bit for bit.
  std::vector<double> NormalizedWeights() const;
};

/// Checks one per-object I/O multiplier vector (a scenario's io_scale or a
/// problem's io_scale_hint): empty, or one finite, non-negative entry per
/// object. `what` names the vector in the error message.
Status ValidateIoScale(const std::vector<double>& io_scale, int num_objects,
                       const std::string& what);

/// Checks `ensemble` against a problem of `num_objects` objects: 1 to
/// kMaxScenarios scenarios, every weight finite and > 0, every scenario
/// model built over `num_objects` objects, every io_scale valid per
/// ValidateIoScale. ValidateProblem calls it, so a malformed
/// ensemble comes back as InvalidArgument instead of aborting in the
/// scorers.
Status ValidateEnsemble(const ScenarioEnsemble& ensemble, int num_objects);

/// Knobs of SampleScenarioEnsemble. All noise is multiplicative lognormal
/// with unit mean, matching the Executor's jitter and the trace recorder's
/// observation noise — the repo's one language for workload uncertainty.
struct ScenarioNoise {
  /// Ensemble width K, *including* the nominal scenario 0. 1 = the point
  /// forecast itself.
  int num_scenarios = 8;

  /// Coefficient of variation of the per-object io_scale jitter: each
  /// sampled scenario scales every object's I/O independently.
  double io_scale_cv = 0.15;

  /// Coefficient of variation of a common per-scenario intensity factor
  /// (count noise): the whole workload runs hotter or colder, on top of
  /// the per-object jitter. 0 = no common factor.
  double count_cv = 0.0;

  uint64_t seed = 17;
};

/// Samples a K-scenario ensemble around the nominal forecast. Scenario 0
/// is always the exact nominal (null model, no scaling, weight 1);
/// scenarios 1..K-1 draw, in order: the common intensity factor, then one
/// io_scale factor per object in object order, then — when `mix_pool` is
/// non-empty — a model pick uniform over {nominal} ∪ mix_pool (the HTAP
/// mix-ratio wobble: pool entries are the same workload at alternate mix
/// ratios). All weights are equal. Deterministic in (noise, mix_pool).
ScenarioEnsemble SampleScenarioEnsemble(
    int num_objects, const ScenarioNoise& noise,
    const std::vector<const WorkloadModel*>& mix_pool = {});

/// Element-wise product of two per-object scale vectors, treating an empty
/// vector as all-ones: the composition of the refinement hint and a
/// scenario's perturbation. Returns the non-empty side *unchanged* when the
/// other is empty — the identity composition introduces no copy-and-round
/// step, so a nominal scenario scores through exactly the hint vector the
/// point forecast uses (bit-identity hinges on this).
std::vector<double> ComposeIoScale(const std::vector<double>& a,
                                   const std::vector<double>& b);

}  // namespace dot

#endif  // DOTPROV_WORKLOAD_SCENARIO_H_
