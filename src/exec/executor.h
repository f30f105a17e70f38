#ifndef DOTPROV_EXEC_EXECUTOR_H_
#define DOTPROV_EXEC_EXECUTOR_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "workload/workload.h"

namespace dot {

/// Knobs for a simulated test run.
struct ExecutorConfig {
  /// Run-to-run multiplicative jitter (lognormal, unit mean) applied to
  /// each unit time. 0 = perfectly repeatable runs.
  double noise_cv = 0.02;

  /// Per-object multiplicative error between the optimizer's predicted I/O
  /// counts and what the workload actually issues (e.g. a stale statistic
  /// making the optimizer under-count an object's traffic by 3x would be
  /// io_scale[o] = 3). Empty = the optimizer's estimates are exact. This is
  /// the disturbance the validation/refinement loop (Figure 2) corrects.
  std::vector<double> io_scale;

  uint64_t seed = 7;
};

/// InvalidArgument unless `noise_cv` is finite and >= 0 and `io_scale` is
/// valid for `num_objects` objects (ValidateIoScale); `what` prefixes the
/// field names in the message.
Status ValidateExecutorConfig(const ExecutorConfig& config, int num_objects,
                              const std::string& what = "ExecutorConfig");

/// Simulated execution of a workload on a concrete layout — the "test run"
/// of the validation phase (§3, Figure 2) and of test-run-based profiling
/// (§3.4 option (b), §4.5.1).
///
/// The executor is the ground truth of this reproduction: it prices the
/// workload's *actual* I/O (optionally diverging from the optimizer's
/// estimates via io_scale) and adds measurement noise, returning both the
/// measured times and the real runtime I/O statistics that the refinement
/// phase feeds back into optimization.
class Executor {
 public:
  /// `model` must outlive the executor. Asserts ValidateExecutorConfig
  /// (the io_scale arity is left to callers, who know the schema).
  Executor(const WorkloadModel* model, ExecutorConfig config);

  /// Runs the workload once on `placement` and returns the measurement.
  PerfEstimate Run(const std::vector<int>& placement);

 private:
  const WorkloadModel* model_;
  ExecutorConfig config_;
  Rng rng_;
};

}  // namespace dot

#endif  // DOTPROV_EXEC_EXECUTOR_H_
