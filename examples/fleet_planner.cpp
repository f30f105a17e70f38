// Fleet quickstart: provision a multi-tenant fleet under one budget.
//
// Builds a small synthetic fleet (the same OLTP/DSS/HTAP tenant classes
// bench_fleet sweeps at N=1e4), finds its unconstrained cost, then
// squeezes the fleet-wide budget and solves through the unified
// dot::Solve facade in kFleet mode. The planner couples the tenants with
// Lagrangian shadow prices and prints each tenant's chosen layout next
// to the per-tenant-independent fair-share baseline it provably never
// loses to.

#include <cstdio>

#include <string>

#include "dot/dot.h"
#include "fixtures/synthetic_fleet.h"

int main() {
  // 1. A fleet: 12 tenants drawn from 8 classes over one shared Box 2
  //    catalog. SyntheticFleet owns every schema/workload the tenants'
  //    problems point into.
  dot::SyntheticFleet fleet = dot::MakeSyntheticFleet(/*num_tenants=*/12,
                                                      /*seed=*/3);
  std::printf("Fleet: %zu tenants, %d tenant classes, box %s\n",
              fleet.tenants.size(), fleet.num_classes,
              fleet.box->name.c_str());

  // 2. The shared problem carries the box and engine knobs; in kFleet
  //    mode schema/workload live per tenant, not here.
  dot::DotProblem problem;
  problem.box = fleet.box.get();

  // 3. First solve unconstrained to learn what the fleet costs when every
  //    tenant gets its solo optimum.
  dot::FleetSpec fleet_spec;
  fleet_spec.tenants = &fleet.tenants;
  dot::SolveSpec spec;
  spec.method = dot::SolveMethod::kFleet;
  spec.fleet = &fleet_spec;
  const dot::SolveResult free_run = dot::Solve(problem, spec);
  if (!free_run.status.ok()) {
    std::printf("fleet solve: %s\n", free_run.status.ToString().c_str());
    return 1;
  }
  const double free_cost = free_run.fleet.total_cost_cents_per_hour;
  std::printf("unconstrained: %.2f cents/h, TOC %.3e cents/task, "
              "%lld pools built for %zu tenants\n",
              free_cost, free_run.toc_cents_per_task,
              free_run.fleet.pool_builds, fleet.tenants.size());

  // 4. Now cap the fleet at 85%% of that and re-solve. Validate() runs
  //    inside Solve, so a malformed spec comes back as a status, never an
  //    abort.
  fleet_spec.config.constraints.budget_cents_per_hour = free_cost * 0.85;
  const dot::SolveResult solved = dot::Solve(problem, spec);
  if (!solved.status.ok()) {
    std::printf("budgeted solve: %s\n", solved.status.ToString().c_str());
    return 1;
  }
  const dot::FleetPlan& plan = solved.fleet;

  std::printf("\nbudget %.2f cents/h -> fleet cost %.2f, TOC %.3e "
              "(engine %s, %.1f ms)\n",
              fleet_spec.config.constraints.budget_cents_per_hour,
              plan.total_cost_cents_per_hour, plan.total_toc_cents_per_task,
              solved.provenance.engine, solved.provenance.solve_ms);
  std::printf("%-16s %-10s %12s %14s\n", "tenant", "layout", "TOC c/task",
              "cents/hour");
  for (size_t i = 0; i < plan.tenants.size(); ++i) {
    const dot::FleetTenantChoice& choice = plan.tenants[i];
    std::string digits;
    for (int c : choice.placement) {
      digits += static_cast<char>('0' + c);
    }
    std::printf("%-16s %-10s %12.3e %14.4f\n",
                fleet.tenants[i].name.c_str(), digits.c_str(),
                choice.toc_cents_per_task, choice.cost_cents_per_hour);
  }

  // 5. The baseline a coordination-free operator would sell: each tenant
  //    provisions alone on a size-proportional share of the budget.
  if (plan.independent_feasible) {
    std::printf("\nindependent fair-share baseline: TOC %.3e cents/task "
                "(fleet saves %.2f%%)\n",
                plan.independent_toc_cents_per_task,
                100.0 *
                    (plan.independent_toc_cents_per_task -
                     plan.total_toc_cents_per_task) /
                    plan.independent_toc_cents_per_task);
  } else {
    std::printf("\nindependent fair-share baseline infeasible at this "
                "budget — coordination is mandatory, not just cheaper\n");
  }
  return 0;
}
