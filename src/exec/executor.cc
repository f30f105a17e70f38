#include "exec/executor.h"

#include <cmath>

#include "common/check.h"
#include "workload/scenario.h"

namespace dot {

Status ValidateExecutorConfig(const ExecutorConfig& config, int num_objects,
                              const std::string& what) {
  if (!(std::isfinite(config.noise_cv) && config.noise_cv >= 0.0)) {
    return Status::InvalidArgument(what +
                                   " noise_cv must be finite and >= 0");
  }
  return ValidateIoScale(config.io_scale, num_objects, what + " io_scale");
}

Executor::Executor(const WorkloadModel* model, ExecutorConfig config)
    : model_(model), config_(std::move(config)), rng_(config_.seed) {
  DOT_CHECK(model_ != nullptr);
  DOT_CHECK_OK(ValidateExecutorConfig(
      config_, static_cast<int>(config_.io_scale.size())));
}

PerfEstimate Executor::Run(const std::vector<int>& placement) {
  PerfEstimate measured =
      model_->EstimateWithIoScale(placement, config_.io_scale);

  if (config_.noise_cv > 0.0) {
    // Lognormal jitter with unit mean, applied per unit of work.
    const double sigma2 = std::log(1.0 + config_.noise_cv * config_.noise_cv);
    const double mu = -0.5 * sigma2;
    const double sigma = std::sqrt(sigma2);
    for (double& t : measured.unit_times_ms) {
      t *= std::exp(mu + sigma * rng_.NextGaussian());
    }
    if (model_->sla_kind() == SlaKind::kPerQueryResponseTime) {
      // The model owns the meaning of its unit-time entries (run-sequence
      // queries for DSS, the two folded per-side times for HTAP): let it
      // recompute the derived scalars from the jittered vector.
      model_->RederiveFromUnitTimes(&measured);
    } else {
      // Throughput workloads: jitter the rate directly.
      const double jitter = std::exp(mu + sigma * rng_.NextGaussian());
      measured.tpmc *= jitter;
      measured.tasks_per_hour *= jitter;
    }
  }
  return measured;
}

}  // namespace dot
