#include "dot/validator.h"

#include <algorithm>

#include "dot/sla.h"
#include "query/object_io.h"

namespace dot {

namespace {

/// The problem and config checks RunDotPipeline reports instead of
/// aborting: the round count, the problem (ValidateProblem) and the test
/// run's executor config (ValidateExecutorConfig). Missing profiles come
/// back from the first Optimize.
Status ValidatePipeline(const DotProblem& problem,
                        const PipelineConfig& config) {
  if (config.max_rounds < 1) {
    return Status::InvalidArgument("PipelineConfig::max_rounds must be >= 1");
  }
  Status st = ValidateProblem(problem);
  if (!st.ok()) return st;
  return ValidateExecutorConfig(config.exec, problem.schema->NumObjects(),
                                "PipelineConfig::exec");
}

/// Per-object ratio of measured to estimated total I/O — the refinement
/// phase's correction signal.
std::vector<double> DeriveIoScale(const PerfEstimate& measured,
                                  const PerfEstimate& estimated) {
  const size_t n =
      std::max(measured.io_by_object.size(), estimated.io_by_object.size());
  std::vector<double> scale(n, 1.0);
  for (size_t o = 0; o < n; ++o) {
    const double est = o < estimated.io_by_object.size()
                           ? estimated.io_by_object[o].Total()
                           : 0.0;
    const double meas =
        o < measured.io_by_object.size() ? measured.io_by_object[o].Total()
                                         : 0.0;
    if (est > 0.0 && meas > 0.0) scale[o] = meas / est;
  }
  return scale;
}

}  // namespace

PipelineResult RunDotPipeline(const DotProblem& problem,
                              const PipelineConfig& config) {
  PipelineResult out;
  out.final.status = ValidatePipeline(problem, config);
  if (!out.final.status.ok()) return out;

  DotProblem working = problem;
  Executor executor(problem.workload, config.exec);

  for (int round = 0; round < config.max_rounds; ++round) {
    DotOptimizer optimizer(working);
    ValidationRound vr;
    vr.recommendation = optimizer.Optimize();
    if (!vr.recommendation.status.ok()) {
      // Infeasible: surface it; the caller decides whether to relax the
      // SLA (Figure 2's "Relax the performance constraints" edge). A
      // problem without profiles is refused before the walk: no round.
      const bool refused =
          vr.recommendation.status.code() == StatusCode::kInvalidArgument;
      out.final = std::move(vr.recommendation);
      if (!refused) out.rounds.push_back(std::move(vr));
      return out;
    }

    // Validation phase: test run on the recommended layout.
    vr.measured = executor.Run(vr.recommendation.placement);
    vr.passed = MeetsTargets(vr.measured, optimizer.targets(),
                             config.validation_tolerance);
    vr.measured_psr = Psr(vr.measured, optimizer.targets());

    if (vr.passed) {
      out.final = vr.recommendation;
      out.validated = true;
      out.rounds.push_back(std::move(vr));
      return out;
    }

    // Refinement phase: feed the run's actual I/O statistics back into the
    // optimization phase as per-object correction factors.
    working.io_scale_hint =
        DeriveIoScale(vr.measured, vr.recommendation.estimate);
    out.final = vr.recommendation;
    out.rounds.push_back(std::move(vr));
  }
  return out;
}

}  // namespace dot
