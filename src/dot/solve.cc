#include "dot/solve.h"

#include <utility>

#include "common/check.h"

namespace dot {

namespace {

/// Folds a single-shot DotResult into the common shape.
SolveResult FromDot(DotResult result, SolveMethod method,
                    const char* engine) {
  SolveResult out;
  out.status = result.status;
  out.placement = result.placement;
  out.toc_cents_per_task = result.toc_cents_per_task;
  out.provenance.method = method;
  out.provenance.engine = engine;
  static_cast<SearchStats&>(out.provenance) = result;
  out.provenance.solve_ms = result.optimize_ms;
  out.dot = std::move(result);
  return out;
}

}  // namespace

SolveResult Solve(const DotProblem& problem, const SolveSpec& spec) {
  switch (spec.method) {
    case SolveMethod::kDotHeuristic: {
      // The optimizer asserts ValidateProblem; return it instead. Optimize
      // returns the missing-profiles status itself.
      DotResult result;
      result.status = ValidateProblem(problem);
      if (result.status.ok()) result = DotOptimizer(problem).Optimize();
      return FromDot(std::move(result), spec.method, "dot-heuristic");
    }
    case SolveMethod::kExact:
      return FromDot(ExactSearch(problem, ExactStrategy::kBranchAndBound,
                                 spec.max_layouts, spec.warm_starts),
                     spec.method, "branch-and-bound");
    case SolveMethod::kEnumerate:
      return FromDot(
          ExactSearch(problem, ExactStrategy::kEnumerate, spec.max_layouts),
          spec.method, "enumerate");
    case SolveMethod::kEpochPlan: {
      ReprovisionPlanner planner(problem, spec.epoch);

      // No schedule = the single-shot special case: one epoch of the
      // problem's own workload. Duration 1 h — multiplying TOC by a
      // positive constant is monotone, so the chosen layout matches the
      // single-shot searches (and with a zero migration model the TOC
      // matches bit for bit; dot_solve_test pins it).
      WorkloadTraceSpec one_epoch;
      const WorkloadTraceSpec* schedule = spec.schedule;
      if (schedule == nullptr) {
        one_epoch.Add(problem.workload, /*duration_hours=*/1.0,
                      /*label=*/"now", problem.profiles);
        schedule = &one_epoch;
      }

      SolveResult out;
      out.has_plan = true;
      out.plan = planner.Plan(*schedule, spec.current_layout);
      out.status = out.plan.status;
      out.provenance.method = spec.method;
      out.provenance.engine = "epoch-dp";
      static_cast<SearchStats&>(out.provenance) = out.plan;
      out.provenance.solve_ms = out.plan.plan_ms;
      if (out.status.ok() && !out.plan.steps.empty()) {
        out.placement = out.plan.steps.front().placement;
        out.toc_cents_per_task = out.plan.steps.front().toc_cents_per_task;
      }
      return out;
    }
    case SolveMethod::kFleet: {
      if (spec.fleet == nullptr || spec.fleet->tenants == nullptr) {
        SolveResult out;
        out.status = Status::InvalidArgument(
            "kFleet needs SolveSpec::fleet with a tenants vector");
        out.provenance.method = spec.method;
        return out;
      }
      FleetPlanner planner(problem, spec.fleet->config);

      SolveResult out;
      out.has_fleet = true;
      out.fleet = planner.Plan(*spec.fleet->tenants);
      out.status = out.fleet.status;
      out.toc_cents_per_task = out.fleet.total_toc_cents_per_task;
      out.provenance.method = spec.method;
      out.provenance.engine = "fleet-lagrangian";
      static_cast<SearchStats&>(out.provenance) = out.fleet;
      out.provenance.solve_ms = out.fleet.plan_ms;
      return out;
    }
  }
  DOT_CHECK(false) << "unknown SolveMethod";
  return SolveResult{};
}

}  // namespace dot
