#include "dot/provisioner.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "common/thread_pool.h"
#include "dot/solve.h"

namespace dot {

namespace {

/// Solve(kDotHeuristic)'s single-shot payload, carrying the facade's
/// status (a spec/problem mismatch leaves the payload default-built).
DotResult SolveDot(const DotProblem& problem) {
  SolveSpec spec;
  spec.method = SolveMethod::kDotHeuristic;
  SolveResult solved = Solve(problem, spec);
  solved.dot.status = std::move(solved.status);
  return std::move(solved.dot);
}

}  // namespace

DotResult OptimizeWithRelaxation(DotProblem& problem, double relax_factor,
                                 double min_sla) {
  if (!(relax_factor > 0.0 && relax_factor < 1.0 && min_sla > 0.0)) {
    DotResult result;
    result.status = Status::InvalidArgument(
        "relax_factor must be in (0, 1) and min_sla > 0, got " +
        std::to_string(relax_factor) + " and " + std::to_string(min_sla));
    return result;
  }
  for (;;) {
    DotResult result = SolveDot(problem);
    if (result.status.code() != StatusCode::kInfeasible) return result;
    const double next_sla = problem.relative_sla * relax_factor;
    if (next_sla < min_sla) return result;  // give up: still infeasible
    problem.relative_sla = next_sla;
  }
}

ProvisioningResult ProvisionOverOptions(
    const std::vector<ProvisioningOption>& options, int num_threads) {
  ProvisioningResult out;
  // An empty menu has no winner. Return before the pool: a lane count of
  // min(threads, 0) = 0 would mean hardware concurrency.
  if (options.empty()) return out;
  out.per_option.resize(options.size());

  // The fan-out can never use more lanes than there are options; spare
  // lanes would just sit parked on the pool's condition variable.
  ThreadPool pool(std::min<int>(ThreadPool::ResolveThreadCount(num_threads),
                                static_cast<int>(options.size())));
  pool.ParallelFor(0, static_cast<int64_t>(options.size()), [&](int64_t i) {
    out.per_option[static_cast<size_t>(i)] =
        SolveDot(options[static_cast<size_t>(i)].make_problem());
  });

  // Select the winner sequentially in option order (first strictly-lower
  // TOC wins) — the same scan the serial loop performed, independent of
  // which thread finished which option first.
  double best_toc = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < options.size(); ++i) {
    const DotResult& result = out.per_option[i];
    if (result.status.ok() && result.toc_cents_per_task < best_toc) {
      best_toc = result.toc_cents_per_task;
      out.best_option = static_cast<int>(i);
      out.best_name = options[i].name;
      out.best = result;
    }
  }
  return out;
}

}  // namespace dot
