// Fleet-scale provisioning: N tenants under one budget vs. going it alone.
//
// Synthetic fleets of N = 1e2..1e4 tenants drawn from the fixed
// OLTP/DSS/HTAP class roster (fixtures/synthetic_fleet.h) share one Box 2
// catalog and one fleet-wide budget. For each N the budget sweeps down
// from the unconstrained fleet cost; at every point the coupled
// FleetPlanner (Lagrangian price decomposition + exchange repair, behind
// dot::Solve's kFleet method) competes against the per-tenant-independent
// baseline, where each tenant provisions alone on a size-proportional
// fair share of the budget — the allocation a fleet operator without
// cross-tenant coordination would sell.
//
// The coupled planner can never lose (the baseline is itself a candidate
// selection it considers) and should win strictly once the budget binds:
// fair shares strand budget on tenants that cannot use it while starving
// tenants whose next-cheaper candidate is a TOC cliff, and prices move
// exactly that slack. Pools are shared per schema fingerprint, so the
// planner builds `num_classes` pools however large the fleet is — the
// O(distinct schemas) memory claim, checked here via the pool_builds
// counter staying flat across N.
//
// Exit status: 0 when
//   * every feasible sweep point has fleet TOC <= independent baseline
//     (when the baseline is feasible at all),
//   * some binding-budget point strictly beats the baseline,
//   * pool_builds == num_classes at every N (flat across N),
//   * placements, totals and counters are bit-identical at 1, 4 and
//     hardware threads on a binding point,
// 1 otherwise.
//
// `--full` extends the sweep to N=1e4 (the `slow`-labeled ctest entry and
// the nightly-bench job run this). `--json[=path]` merges one entry per
// sweep point (named Fleet/...) into the google-benchmark-format JSON
// file (default BENCH_optimizer.json), alongside the other suites.

#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/str_util.h"
#include "common/table_printer.h"
#include "dot/dot.h"
#include "fixtures/synthetic_fleet.h"

namespace {

using namespace dot;

/// One fleet solve through the facade. The fleet outlives the call.
SolveResult RunFleet(const SyntheticFleet& fleet, double budget,
                     int num_threads) {
  FleetSpec fleet_spec;
  fleet_spec.tenants = &fleet.tenants;
  fleet_spec.config.constraints.budget_cents_per_hour = budget;
  DotProblem problem;
  problem.box = fleet.box.get();
  problem.options.num_threads = num_threads;
  SolveSpec spec;
  spec.method = SolveMethod::kFleet;
  spec.fleet = &fleet_spec;
  return Solve(problem, spec);
}

bool SamePlan(const FleetPlan& a, const FleetPlan& b) {
  if (a.tenants.size() != b.tenants.size()) return false;
  for (size_t i = 0; i < a.tenants.size(); ++i) {
    if (a.tenants[i].placement != b.tenants[i].placement) return false;
    if (a.tenants[i].toc_cents_per_task != b.tenants[i].toc_cents_per_task) {
      return false;
    }
  }
  return a.total_toc_cents_per_task == b.total_toc_cents_per_task &&
         a.total_cost_cents_per_hour == b.total_cost_cents_per_hour &&
         a.min_cost_cents_per_hour == b.min_cost_cents_per_hour &&
         a.used_gb == b.used_gb &&
         a.independent_toc_cents_per_task ==
             b.independent_toc_cents_per_task &&
         a.pool_builds == b.pool_builds &&
         a.pool_cache_hits == b.pool_cache_hits &&
         a.price_iterations_run == b.price_iterations_run &&
         a.exchange_moves == b.exchange_moves &&
         a.improve_moves == b.improve_moves &&
         a.layouts_evaluated == b.layouts_evaluated;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool full = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json_path = "BENCH_optimizer.json";
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--full") == 0) {
      full = true;
    } else {
      std::cerr << "unknown flag " << argv[i]
                << " (flags: --full --json[=path])\n";
      return 1;
    }
  }

  const uint64_t seed = 17;
  std::vector<int> fleet_sizes = {100, 1000};
  if (full) fleet_sizes.push_back(10000);
  // Budget interpolated between the fleet's cost floor (every tenant on
  // its cheapest candidate — FleetPlan::min_cost_cents_per_hour; nothing
  // is feasible below it) and the unconstrained solo-optima cost. 1.0 is
  // the slack sanity point, everything below binds.
  const std::vector<double> fractions = {1.0, 0.75, 0.5, 0.25, 0.1, 0.0};

  bool never_lost = true;
  bool strict_win = false;
  bool pools_flat = true;
  int pool_builds_expected = -1;
  std::vector<std::string> json_entries;

  std::cout << "=== Fleet provisioning: coupled planner vs per-tenant "
               "fair-share baseline (Box 2, seed "
            << seed << ") ===\n";

  for (int n : fleet_sizes) {
    SyntheticFleet fleet = MakeSyntheticFleet(n, seed);
    const SolveResult free_run = RunFleet(fleet, /*budget=*/0.0, 0);
    if (!free_run.status.ok()) {
      std::cerr << "unconstrained fleet solve failed at N=" << n << ": "
                << free_run.status.ToString() << "\n";
      return 1;
    }
    const double cost0 = free_run.fleet.total_cost_cents_per_hour;
    const double floor = free_run.fleet.min_cost_cents_per_hour;

    if (pool_builds_expected < 0) {
      pool_builds_expected = free_run.fleet.pool_builds;
    }
    // The O(distinct schemas) claim: pools built == tenant classes, at
    // every fleet size.
    if (free_run.fleet.pool_builds != fleet.num_classes ||
        free_run.fleet.pool_builds != pool_builds_expected) {
      pools_flat = false;
    }

    std::cout << "\nN=" << n << " tenants, " << fleet.num_classes
              << " tenant classes, unconstrained cost "
              << StrPrintf("%.1f", cost0) << " cents/h, cost floor "
              << StrPrintf("%.1f", floor) << ", "
              << free_run.fleet.pool_builds << " pools built, "
              << free_run.fleet.pool_cache_hits << " cache hits\n";
    TablePrinter t({"budget slack", "feasible", "fleet TOC (c/task)",
                    "independent TOC", "saved", "exch moves",
                    "impr moves", "price iters", "plan (ms)"});

    for (double f : fractions) {
      const double budget = floor + f * (cost0 - floor);
      const SolveResult r = RunFleet(fleet, budget, 0);
      if (!r.status.ok()) {
        t.AddRow({StrPrintf("%.2f", f), "no (" +
                  std::string(StatusCodeName(r.status.code())) + ")", "-",
                  "-", "-", "-", "-", "-", "-"});
        continue;
      }
      const FleetPlan& plan = r.fleet;
      const bool binding = f < 1.0;
      if (plan.independent_feasible) {
        if (plan.total_toc_cents_per_task >
            plan.independent_toc_cents_per_task) {
          never_lost = false;
        }
        if (binding &&
            plan.total_toc_cents_per_task <
                plan.independent_toc_cents_per_task * (1.0 - 1e-12)) {
          strict_win = true;
        }
      }
      const double saved =
          plan.independent_toc_cents_per_task > 0.0
              ? 100.0 *
                    (plan.independent_toc_cents_per_task -
                     plan.total_toc_cents_per_task) /
                    plan.independent_toc_cents_per_task
              : 0.0;
      t.AddRow({StrPrintf("%.2f", f),
                plan.independent_feasible ? "yes" : "yes (baseline not)",
                bench::Sci(plan.total_toc_cents_per_task),
                bench::Sci(plan.independent_toc_cents_per_task),
                StrPrintf("%.2f%%", saved),
                StrPrintf("%d", plan.exchange_moves),
                StrPrintf("%d", plan.improve_moves),
                StrPrintf("%d", plan.price_iterations_run),
                StrPrintf("%.1f", plan.plan_ms)});
      if (!json_path.empty()) {
        json_entries.push_back(bench::MakeBenchmarkJsonEntry(
            StrPrintf("Fleet/N=%d/slack=%.2f", n, f), plan.plan_ms,
            {{"tenants", static_cast<double>(n)},
             {"fleet_toc_cents_per_task", plan.total_toc_cents_per_task},
             {"independent_toc_cents_per_task",
              plan.independent_toc_cents_per_task},
             {"saved_pct", saved},
             {"pool_builds", static_cast<double>(plan.pool_builds)},
             {"pool_cache_hits",
              static_cast<double>(plan.pool_cache_hits)},
             {"exchange_moves", static_cast<double>(plan.exchange_moves)},
             {"improve_moves", static_cast<double>(plan.improve_moves)},
             {"layouts_evaluated",
              static_cast<double>(plan.layouts_evaluated)}}));
      }
    }
    t.Print(std::cout);
  }

  // Thread-count determinism on a binding point of the mid-size fleet:
  // placements, totals and every counter must match bit for bit.
  bool deterministic = true;
  {
    SyntheticFleet fleet = MakeSyntheticFleet(1000, seed);
    const SolveResult free_run = RunFleet(fleet, 0.0, 1);
    if (!free_run.status.ok()) {
      std::cerr << "determinism probe failed: "
                << free_run.status.ToString() << "\n";
      return 1;
    }
    // Halfway between the cost floor and the unconstrained cost: always
    // feasible, always binding.
    const double budget =
        0.5 * (free_run.fleet.min_cost_cents_per_hour +
               free_run.fleet.total_cost_cents_per_hour);
    const SolveResult one = RunFleet(fleet, budget, 1);
    const int hw =
        static_cast<int>(std::thread::hardware_concurrency());
    for (int threads : {4, hw}) {
      const SolveResult r = RunFleet(fleet, budget, threads);
      if (!r.status.ok() || !one.status.ok() ||
          !SamePlan(one.fleet, r.fleet)) {
        deterministic = false;
        std::cerr << "NONDETERMINISM at " << threads << " threads\n";
      }
    }
    std::cout << "\nthread determinism (N=1000, binding budget): "
              << (deterministic ? "bit-identical at 1/4/" : "FAILED at ")
              << hw << " threads\n";
  }

  if (!json_path.empty()) {
    if (bench::MergeBenchmarkJson(json_path, "Fleet/", json_entries)) {
      std::cout << "merged " << json_entries.size()
                << " Fleet entries into " << json_path << "\n";
    } else {
      return 1;
    }
  }

  if (!never_lost) {
    std::cout << "\nFAIL: the coupled fleet lost to the independent "
                 "fair-share baseline at some sweep point.\n";
    return 1;
  }
  if (!strict_win) {
    std::cout << "\nFAIL: no binding-budget point strictly beat the "
                 "baseline — fleet coordination bought nothing.\n";
    return 1;
  }
  if (!pools_flat) {
    std::cout << "\nFAIL: pool_builds deviated from the class count, so "
                 "pool memory is not O(distinct schemas).\n";
    return 1;
  }
  if (!deterministic) return 1;
  std::cout << "\nThe coupled fleet never loses to per-tenant fair-share "
               "provisioning, wins strictly once the budget binds, and "
               "builds one candidate pool per tenant class regardless of "
               "fleet size.\n";
  return 0;
}
