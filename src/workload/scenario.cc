#include "workload/scenario.h"

#include <cmath>
#include <string>

#include "catalog/schema.h"
#include "common/check.h"
#include "common/rng.h"

namespace dot {

namespace {

/// Parameters of a unit-mean lognormal at coefficient of variation `cv`.
struct Lognormal {
  double mu = 0.0;
  double sigma = 0.0;
};

Lognormal UnitMeanLognormal(double cv) {
  Lognormal ln;
  const double sigma2 = std::log(1.0 + cv * cv);
  ln.mu = -0.5 * sigma2;
  ln.sigma = std::sqrt(sigma2);
  return ln;
}

}  // namespace

std::vector<double> ScenarioEnsemble::NormalizedWeights() const {
  DOT_CHECK(!scenarios.empty()) << "ensemble has no scenarios";
  if (scenarios.size() == 1) {
    DOT_CHECK(scenarios[0].weight > 0.0);
    return {1.0};
  }
  double total = 0.0;
  for (const Scenario& sc : scenarios) {
    DOT_CHECK(sc.weight > 0.0) << "scenario weight must be > 0";
    total += sc.weight;
  }
  std::vector<double> weights;
  weights.reserve(scenarios.size());
  for (const Scenario& sc : scenarios) weights.push_back(sc.weight / total);
  return weights;
}

Status ValidateIoScale(const std::vector<double>& io_scale, int num_objects,
                       const std::string& what) {
  if (!io_scale.empty() && static_cast<int>(io_scale.size()) != num_objects) {
    return Status::InvalidArgument(
        what + " has " + std::to_string(io_scale.size()) +
        " entries, expected 0 or " + std::to_string(num_objects));
  }
  for (double scale : io_scale) {
    if (!(std::isfinite(scale) && scale >= 0.0)) {
      return Status::InvalidArgument(what +
                                     " entries must be finite and >= 0");
    }
  }
  return Status::OK();
}

Status ValidateEnsemble(const ScenarioEnsemble& ensemble, int num_objects) {
  if (ensemble.size() < 1 || ensemble.size() > kMaxScenarios) {
    return Status::InvalidArgument(
        "ensemble size must be in [1, " + std::to_string(kMaxScenarios) +
        "], got " + std::to_string(ensemble.size()));
  }
  for (int k = 0; k < ensemble.size(); ++k) {
    const Scenario& sc = ensemble.scenarios[static_cast<size_t>(k)];
    if (!(std::isfinite(sc.weight) && sc.weight > 0.0)) {
      return Status::InvalidArgument("scenario " + std::to_string(k) +
                                     " weight must be finite and > 0");
    }
    if (sc.model != nullptr &&
        (sc.model->schema() == nullptr ||
         sc.model->schema()->NumObjects() != num_objects)) {
      return Status::InvalidArgument("scenario " + std::to_string(k) +
                                     "'s model schema differs in size");
    }
    Status st = ValidateIoScale(sc.io_scale, num_objects,
                                "scenario " + std::to_string(k) + " io_scale");
    if (!st.ok()) return st;
  }
  return Status::OK();
}

ScenarioEnsemble SampleScenarioEnsemble(
    int num_objects, const ScenarioNoise& noise,
    const std::vector<const WorkloadModel*>& mix_pool) {
  DOT_CHECK(num_objects >= 1);
  DOT_CHECK(noise.num_scenarios >= 1 &&
            noise.num_scenarios <= kMaxScenarios)
      << "num_scenarios must be in [1, " << kMaxScenarios << "]";
  DOT_CHECK(noise.io_scale_cv >= 0.0 && noise.count_cv >= 0.0);
  for (const WorkloadModel* model : mix_pool) DOT_CHECK(model != nullptr);

  ScenarioEnsemble ensemble;
  ensemble.scenarios.reserve(static_cast<size_t>(noise.num_scenarios));

  Scenario nominal;
  nominal.label = "nominal";
  ensemble.scenarios.push_back(std::move(nominal));

  // One stream for the whole ensemble, consumed in a fixed documented
  // order (scenario -> intensity -> objects -> model pick), so the
  // ensemble is a pure function of (num_objects, noise, mix_pool).
  Rng rng(noise.seed);
  const Lognormal intensity = UnitMeanLognormal(noise.count_cv);
  const Lognormal per_object = UnitMeanLognormal(noise.io_scale_cv);
  const bool any_noise = noise.io_scale_cv > 0.0 || noise.count_cv > 0.0;
  for (int k = 1; k < noise.num_scenarios; ++k) {
    Scenario sc;
    sc.label = "scenario " + std::to_string(k);
    if (any_noise) {
      const double common =
          noise.count_cv > 0.0
              ? std::exp(intensity.mu + intensity.sigma * rng.NextGaussian())
              : 1.0;
      sc.io_scale.reserve(static_cast<size_t>(num_objects));
      for (int o = 0; o < num_objects; ++o) {
        const double factor =
            noise.io_scale_cv > 0.0
                ? std::exp(per_object.mu +
                           per_object.sigma * rng.NextGaussian())
                : 1.0;
        sc.io_scale.push_back(common * factor);
      }
    }
    if (!mix_pool.empty()) {
      // Uniform over {nominal} ∪ mix_pool; pick 0 keeps the nominal model.
      const uint64_t pick = rng.NextBounded(mix_pool.size() + 1);
      if (pick > 0) sc.model = mix_pool[static_cast<size_t>(pick - 1)];
    }
    ensemble.scenarios.push_back(std::move(sc));
  }
  return ensemble;
}

std::vector<double> ComposeIoScale(const std::vector<double>& a,
                                   const std::vector<double>& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  DOT_CHECK(a.size() == b.size()) << "io_scale arity mismatch";
  std::vector<double> composed(a.size());
  for (size_t o = 0; o < a.size(); ++o) composed[o] = a[o] * b[o];
  return composed;
}

}  // namespace dot
