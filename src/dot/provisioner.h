#ifndef DOTPROV_DOT_PROVISIONER_H_
#define DOTPROV_DOT_PROVISIONER_H_

#include <functional>
#include <string>
#include <vector>

#include "dot/optimizer.h"
#include "dot/problem.h"

namespace dot {

/// Repeatedly relaxes the relative SLA by `relax_factor` until
/// Solve(kDotHeuristic) at that SLA finds a feasible layout — the loop the
/// paper applies when capacity and performance constraints conflict
/// (§4.5.3, Figure 9: "we slightly relax the relative SLA and repeat the
/// optimization"). Only an Infeasible verdict relaxes; any other error is
/// returned at once. Returns the final result; `problem.relative_sla` is
/// updated in place to the achieved SLA. A `relax_factor` outside (0, 1),
/// a `min_sla` <= 0 or a problem Solve(kDotHeuristic) rejects
/// (ValidateProblem, missing profiles) comes back as InvalidArgument in the
/// result status.
DotResult OptimizeWithRelaxation(DotProblem& problem, double relax_factor,
                                 double min_sla);

/// One candidate storage configuration f_i of the generalized provisioning
/// problem (§5.1), with everything DOT needs to evaluate a workload on it.
/// The box/workload/profiles must outlive the provisioning run; the
/// `make_problem` indirection lets callers rebuild per-box workload models
/// (a DSS model binds to a box through its planner).
struct ProvisioningOption {
  std::string name;
  std::function<DotProblem()> make_problem;
};

/// Result of provisioning over a configuration menu.
struct ProvisioningResult {
  /// Index into the options of the winner, or -1 if none was feasible.
  int best_option = -1;
  std::string best_name;
  DotResult best;
  /// Per-option DOT results, aligned with the input options.
  std::vector<DotResult> per_option;
};

/// Solves the §5.1 generalized provisioning problem by running DOT
/// (Solve(kDotHeuristic)) on every storage-configuration option and
/// returning the feasible configuration (plus layout) with the lowest TOC
/// — the paper's suggested use of DOT for purchasing and capacity-planning
/// decisions (§7). A malformed option problem comes back as
/// InvalidArgument in its per_option status and never wins; an empty menu
/// returns best_option == -1 with no per-option results.
///
/// The per-option DOT runs are independent, so `num_threads > 1` evaluates
/// the configuration menu concurrently (1 = serial, 0 = hardware
/// concurrency); each option's `make_problem` must then be safe to call
/// from any thread. The winner is selected by a deterministic scan in
/// option order after all runs complete, so the result does not depend on
/// the thread count. The DOT walk itself is serial, so a single option runs
/// on one lane whatever `num_threads` says.
ProvisioningResult ProvisionOverOptions(
    const std::vector<ProvisioningOption>& options, int num_threads = 1);

}  // namespace dot

#endif  // DOTPROV_DOT_PROVISIONER_H_
