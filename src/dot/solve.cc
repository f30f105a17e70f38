#include "dot/solve.h"

#include <utility>

#include "common/check.h"
#include "common/clock.h"

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

/// The engine label of a single-shot method; null for the others.
const char* SingleShotEngine(SolveMethod method) {
  switch (method) {
    case SolveMethod::kDotHeuristic:
      return "dot-heuristic";
    case SolveMethod::kExact:
      return "branch-and-bound";
    case SolveMethod::kEnumerate:
      return "enumerate";
    case SolveMethod::kEpochPlan:
    case SolveMethod::kFleet:
      break;
  }
  return nullptr;
}

}  // namespace

SolveResult Solve(const DotOptimizer& optimizer, const SolveSpec& spec) {
  const char* engine = SingleShotEngine(spec.method);
  if (engine == nullptr) {
    SolveResult out;
    out.status = Status::InvalidArgument(
        "Solve on a caller-held optimizer runs kDotHeuristic, kExact or "
        "kEnumerate only");
    out.provenance.method = spec.method;
    return out;
  }
  // Optimize returns the missing-profiles status itself; the enumerating
  // search ignores warm starts.
  DotResult result =
      spec.method == SolveMethod::kDotHeuristic
          ? optimizer.Optimize()
          : ExactSearch(optimizer,
                        spec.method == SolveMethod::kExact
                            ? ExactStrategy::kBranchAndBound
                            : ExactStrategy::kEnumerate,
                        spec.max_layouts, spec.warm_starts);
  return FromDot(std::move(result), spec.method, engine);
}

SolveResult Solve(const DotProblem& problem, const SolveSpec& spec) {
  switch (spec.method) {
    case SolveMethod::kDotHeuristic:
    case SolveMethod::kExact:
    case SolveMethod::kEnumerate: {
      // The optimizer asserts ValidateProblem; return it instead. The
      // enumeration guard runs before the optimizer derives anything.
      const double start_ms = NowMs();
      Status st = ValidateProblem(problem);
      if (st.ok() && spec.method == SolveMethod::kEnumerate) {
        st = CheckEnumerationGuard(problem, spec.max_layouts);
      }
      SolveResult out;
      if (st.ok()) {
        out = Solve(DotOptimizer(problem), spec);
      } else {
        DotResult rejected;
        rejected.status = std::move(st);
        out = FromDot(std::move(rejected), spec.method,
                      SingleShotEngine(spec.method));
      }
      // Target derivation included.
      out.dot.optimize_ms = out.provenance.solve_ms = NowMs() - start_ms;
      return out;
    }
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
