#ifndef DOTPROV_FLEET_FLEET_PLANNER_H_
#define DOTPROV_FLEET_FLEET_PLANNER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "dot/problem.h"
#include "dot/reprovision.h"
#include "dot/search_stats.h"
#include "storage/storage_class.h"

namespace dot {

/// One tenant database of the fleet: its own §2.5 instance. Every tenant
/// must reference the *same* BoxConfig (the shared storage catalog the
/// fleet provisions against); schemas and workloads are per-tenant.
/// `problem.options` is ignored — the options of the fleet's own problem
/// (the one FleetPlanner is built on) drive every evaluation, so one fleet
/// solve has one engine setup.
struct FleetTenant {
  std::string name;
  DotProblem problem;
};

/// Global coupling across tenants. Per-tenant constraints (each tenant's
/// own SLA, and the box's per-class capacities as the per-tenant fit rule)
/// stay inside the per-tenant problems; these are the *fleet-wide* ones.
struct FleetConstraints {
  /// Σ over tenants of C_i(L_i) must stay within this, cents/hour.
  /// <= 0 = unconstrained.
  double budget_cents_per_hour = 0.0;

  /// Fleet-wide capacity per storage class, GB (the operator's pooled
  /// device fleet — it may exceed or undercut one box's class capacity).
  /// Empty = unconstrained; otherwise exactly NumClasses() entries.
  std::vector<double> capacity_gb;
};

/// How each tenant's candidate pool is seeded.
enum class FleetPoolMode {
  /// Enumerate the tenant's whole M^N layout space (guarded by
  /// FleetConfig::max_pool_layouts) and keep the feasible Pareto frontier
  /// over (TOC, cost, per-class space). Exact: the fleet optimizes over
  /// every feasible trade-off the tenant has. For small tenant schemas.
  kEnumerate,
  /// Seed with the tenant's solo optimum from the ReprovisionPlanner
  /// candidate search (warm-started branch-and-bound, or DOT's Procedure 1
  /// — AppendSoloCandidate in dot/reprovision.h) plus the M uniform
  /// layouts as downgrade/upgrade anchors. Scales to large schemas; the
  /// pool is a subset of kEnumerate's, so fleet quality degrades
  /// gracefully, never the guarantees below.
  kSearch,
};

/// Knobs of a FleetPlanner run.
struct FleetConfig {
  FleetConstraints constraints;

  FleetPoolMode pool_mode = FleetPoolMode::kEnumerate;

  /// kEnumerate guard: a tenant whose M^N exceeds this fails the plan with
  /// OutOfRange (switch that fleet to kSearch) rather than silently
  /// truncating its pool.
  long long max_pool_layouts = 20'000;

  /// Candidate search for kSearch pools (dot/reprovision.h).
  EpochSearch search = EpochSearch::kExact;

  /// Outer subgradient iterations of the price decomposition.
  int price_iterations = 48;

  /// Share candidate pools (and the eval tables / plan caches inside the
  /// pool build) across tenants whose cache key matches: same
  /// Schema::Fingerprint(), same workload *name*, same SLA / cost-model /
  /// scoring inputs. Contract: two tenants whose workloads share a name
  /// over fingerprint-identical schemas must be identical workloads —
  /// the fleet generators guarantee it, and it is what makes memory
  /// O(distinct schemas) instead of O(tenants). Turn off for fleets that
  /// violate the contract.
  bool share_pools = true;
};

/// Checks the FleetConfig against the box the fleet provisions on:
/// price_iterations and max_pool_layouts >= 1, a non-NaN budget, and
/// capacity_gb empty or one non-negative, non-NaN entry per storage class.
/// FleetPlanner::Plan runs it, once per plan.
Status ValidateFleetConfig(const FleetConfig& config, const BoxConfig& box);

/// Checks each tenant of the roster: the fleet's `box` (by pointer), no
/// scenario ensemble, a problem ValidateProblem accepts (dot/optimizer.h),
/// and profiles when the pool build runs DOT's Procedure 1
/// (FleetPoolMode::kSearch with EpochSearch::kDot). Tenants whose problems
/// share an identity — the same pointers and bit patterns these checks and
/// the pool key read — share a verdict, so each distinct tenant problem is
/// checked once, on its first tenant; a failure names the first failing
/// tenant in roster order. FleetPlanner::Plan runs the same pass, so a
/// roster is walked once per solve.
Status ValidateFleetRoster(const std::vector<FleetTenant>& tenants,
                           const BoxConfig* box, const FleetConfig& config);

/// The layout chosen for one tenant, with its bill.
struct FleetTenantChoice {
  std::vector<int> placement;
  double toc_cents_per_task = 0.0;
  double cost_cents_per_hour = 0.0;
  /// Which shared pool scored this tenant, and which candidate won.
  int pool_id = -1;
  int candidate = -1;
};

/// A fleet provisioning plan.
///
/// Accounting contract (the ReprovisionPlan rule, lifted to fleets): every
/// reported total below is accumulated over tenants in index order —
/// total_toc += toc_i, total_cost += cost_i, used_gb[j] += space_ij — so
/// independently recomputed totals of the same plan are bit-identical at
/// any thread count (floating-point addition is not associative). The
/// planner decides on exact integer totals of pool counts (FleetPlanner,
/// Mechanics 2) and sums these once, over the emitted tenants.
///
/// Guarantees, when the plan status is OK:
///   * feasibility — total_cost and used_gb satisfy FleetConstraints
///     within a 1e-9 relative tolerance, and every tenant's layout is
///     feasible for its own problem (capacity fit + SLA);
///   * never-lose — total_toc_cents_per_task <=
///     independent_toc_cents_per_task whenever the independent baseline is
///     feasible, because that baseline is itself a candidate selection the
///     planner considers (the same argument ReprovisionPlanner makes
///     against its pool-sequence baselines).
///
/// Counters (the SearchStats base): pool_builds, the pools actually built
/// (== distinct cache keys), and pool_cache_hits, the tenants served from
/// an already-built pool — pool_builds + pool_cache_hits == number of
/// tenants, and the O(distinct schemas) memory claim is pool_builds staying
/// flat as tenants grow; layouts_evaluated across all pool builds (each
/// shared pool counted once); under FleetPoolMode::kSearch, the node,
/// plan-cache and arena counters of the pool builds' solo searches.
struct FleetPlan : SearchStats {
  Status status = Status::OK();

  std::vector<FleetTenantChoice> tenants;

  double total_toc_cents_per_task = 0.0;
  double total_cost_cents_per_hour = 0.0;
  /// Fleet-wide space per storage class, GB.
  std::vector<double> used_gb;

  /// The fleet's cost floor: Σ over tenants of the cheapest candidate's
  /// cost. No selection exists below this, so budget sweeps between
  /// min_cost and the unconstrained (solo-optima) cost cover the whole
  /// binding range.
  double min_cost_cents_per_hour = 0.0;

  /// The per-tenant-independent baseline: each tenant provisions alone on
  /// a static fair share of the fleet constraints, proportional to its
  /// minimum spend (its cheapest candidate's cost) — the share a
  /// per-tenant operator without fleet-level coordination would have to
  /// sell it, and a weighting that keeps the baseline budget-feasible
  /// whenever any selection is. With no active constraints this is simply
  /// each tenant's solo optimum.
  double independent_toc_cents_per_task = 0.0;
  double independent_cost_cents_per_hour = 0.0;
  /// False when some tenant has no candidate within its fair share (the
  /// baseline totals then price each such tenant's cheapest candidate
  /// instead, and the never-lose guarantee is vacuous).
  bool independent_feasible = false;
  /// True when the final selection IS the independent baseline (the
  /// coupled search found nothing strictly better).
  bool fell_back_to_baseline = false;

  /// Shadow prices after the last subgradient iteration: cents-per-task
  /// charged per cent/hour of budget, and per GB of each class.
  double budget_price = 0.0;
  std::vector<double> capacity_price;

  int price_iterations_run = 0;
  /// Exchange-repair moves applied to restore feasibility.
  int exchange_moves = 0;
  /// Greedy improvement moves applied after feasibility.
  int improve_moves = 0;
  double plan_ms = 0.0;
};

/// Fleet-scale provisioning: N per-tenant DotProblems coupled by a global
/// budget and per-class capacity, solved by Lagrangian price decomposition
/// over shared per-tenant candidate pools with a deterministic greedy-
/// exchange repair pass.
///
/// Mechanics (DESIGN.md §12):
///   1. Pools — one roster pass groups the tenants by problem identity and
///      keys each distinct problem once. Per distinct cache key, the
///      tenant's feasible candidate frontier is built once (FleetPoolMode)
///      and scored through the searches' own evaluation kernel (the TOC
///      fast path, bit-identical to the full estimate) into flat rows,
///      then sorted under the BetterCandidate order and dominance-pruned,
///      so pool[0] is exactly the tenant's solo optimum; only the kept
///      rows get a placement vector.
///   2. Counts — a selection is a count matrix: how many tenants of each
///      pool sit on each of its candidates. Its totals are exact integer
///      sums over pool rows quantized once per plan, independent of
///      grouping and tenant order; caps keep room for the rounding of the
///      reported sums, and a cap no selection can reach stays inactive.
///   3. Prices — an outer subgradient loop adjusts a budget price λ and
///      per-class prices μ_j; each iteration computes
///      argmin(toc + λ·cost + Σ_j μ_j·space_j) once per shared pool,
///      fanned out on the ThreadPool into distinct per-pool slots, and
///      totals it in O(P·M) for P pools over M classes.
///   4. Repair — when the relaxation over-subscribes, a deterministic
///      greedy exchange moves tenants onto cheaper candidates in best
///      ΔTOC-per-violation-reduction order until the fleet fits; a greedy
///      improvement pass then reclaims slack. Both make group moves: a
///      round scores each occupied (pool, candidate) against every
///      candidate once, sorts by (key, pool, from, to), and moves as many
///      of the tenants that started the round there as pass the per-tenant
///      test one after another — O(P·K²·M) per round for K candidates. The
///      independent fair-share baseline competes as a candidate selection,
///      which is what proves never-lose.
///   5. Emit — within each pool, tenants in roster order take candidates
///      in ascending candidate order; the reported totals are summed over
///      them, and if rounding puts the reported TOC above a feasible
///      baseline's, the baseline goes out instead.
///
/// The fleet's own DotProblem supplies only the shared box and the engine
/// knobs. `options.num_threads` drives the pool-build and per-pool pricing
/// fan-outs; results are bit-identical at every thread count — pools and
/// per-pool argmins write distinct slots, decisions read exact totals, and
/// every reported total is accumulated serially in tenant-index order. A
/// permuted roster gets the same count matrix, counters and prices, and
/// totals that differ only by the order of their addends.
class FleetPlanner {
 public:
  /// `problem.box` must outlive the planner and be the box every tenant
  /// problem references.
  FleetPlanner(const DotProblem& problem, FleetConfig config);

  /// A null box, a problem ensemble (fleet tenants are point forecasts),
  /// a malformed config (ValidateFleetConfig) or roster
  /// (ValidateFleetRoster) comes back in FleetPlan::status instead of
  /// aborting; Solve(kFleet) forwards it. One pass over the roster
  /// validates and pool-keys each distinct tenant problem once. Plan keeps
  /// no state across calls: every call re-reads the roster and rebuilds
  /// its pools.
  FleetPlan Plan(const std::vector<FleetTenant>& tenants) const;

 private:
  const BoxConfig* box_;
  const ScenarioEnsemble* ensemble_;  ///< must be null (Plan refuses one)
  SearchOptions options_;
  FleetConfig config_;
};

}  // namespace dot

#endif  // DOTPROV_FLEET_FLEET_PLANNER_H_
