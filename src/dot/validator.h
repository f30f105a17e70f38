#ifndef DOTPROV_DOT_VALIDATOR_H_
#define DOTPROV_DOT_VALIDATOR_H_

#include <vector>

#include "dot/optimizer.h"
#include "dot/problem.h"
#include "exec/executor.h"

namespace dot {

/// Configuration of the full DOT pipeline (Figure 2): profiling has already
/// happened (problem.profiles); this drives optimization → validation →
/// refinement.
struct PipelineConfig {
  /// Test-run behaviour for the validation phase, including any injected
  /// divergence between the optimizer's estimates and reality (io_scale).
  ExecutorConfig exec;

  /// Maximum optimization/validation rounds (1 = no refinement).
  int max_rounds = 3;

  /// Headroom applied to measured times when judging the test run, so that
  /// benign measurement noise does not trigger refinement.
  double validation_tolerance = 0.05;
};

/// Outcome of one validation round.
struct ValidationRound {
  DotResult recommendation;
  PerfEstimate measured;
  bool passed = false;
  double measured_psr = 0.0;
};

/// Outcome of the whole pipeline.
struct PipelineResult {
  /// The last recommendation (validated, or best effort after max_rounds).
  DotResult final;
  bool validated = false;
  std::vector<ValidationRound> rounds;
};

/// Runs optimization, then validates the recommendation with a test run of
/// the workload on the recommended layout (§3: "checks if the recommended
/// layout really conforms to the performance constraints through a test
/// run"). On failure the refinement phase derives per-object correction
/// factors from the run's *actual* I/O statistics and redoes the
/// optimization phase with them (§3: "uses real runtime statistics ... to
/// redo the optimization phase").
///
/// A malformed problem or config — max_rounds < 1, a problem
/// ValidateProblem rejects or one without profiles, or an executor config
/// ValidateExecutorConfig rejects (a mis-sized, NaN or negative
/// exec.io_scale; a NaN, infinite or negative exec.noise_cv) — comes back
/// as InvalidArgument in final.status, with no rounds, instead of
/// aborting.
PipelineResult RunDotPipeline(const DotProblem& problem,
                              const PipelineConfig& config);

}  // namespace dot

#endif  // DOTPROV_DOT_VALIDATOR_H_
