#ifndef DOTPROV_FIXTURES_SYNTHETIC_FLEET_H_
#define DOTPROV_FIXTURES_SYNTHETIC_FLEET_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "catalog/schema.h"
#include "fleet/fleet_planner.h"
#include "storage/storage_class.h"
#include "workload/htap_workload.h"
#include "workload/workload.h"

namespace dot {

/// A generated multi-tenant fleet with everything the tenants' DotProblems
/// point into owned alongside them (FleetTenant keeps raw pointers). Safe
/// to move — the pointed-to objects live behind unique_ptrs — but the
/// container must outlive any FleetPlanner run over `tenants`.
struct SyntheticFleet {
  std::unique_ptr<BoxConfig> box;  ///< the one shared box (Box 2)
  std::vector<std::unique_ptr<Schema>> schemas;
  std::vector<std::unique_ptr<WorkloadModel>> models;  ///< OLTP + DSS owners
  std::vector<HtapBundle> htap;                        ///< HTAP owners
  std::vector<FleetTenant> tenants;

  /// Distinct tenant classes generated (== the distinct pool count a
  /// share_pools fleet run should report, independent of tenant count).
  int num_classes = 0;
};

/// Builds `num_tenants` synthetic tenants drawn from a fixed roster of
/// tenant classes — three mini-OLTP mixes, three seeded DSS instances, and
/// two CH-benCH HTAP subsets — all over one shared Box 2 catalog.
///
/// Class assignment and the DSS instances are deterministic in `seed`:
/// the same (num_tenants, seed) produces bit-identical problems, and
/// tenants of the same class share one schema/workload instance, so a
/// share_pools fleet run builds exactly `num_classes` pools however large
/// the fleet is (the O(distinct schemas) memory claim, measured by
/// FleetPlan::pool_builds in bench/bench_fleet.cpp).
///
/// Every class keeps its layout space at or under 3^6 so the exact
/// kEnumerate pool mode applies, and uses a lenient-enough relative SLA
/// that several feasible candidates exist per tenant — the budget/capacity
/// coupling, not per-tenant feasibility, is what the fleet solves.
SyntheticFleet MakeSyntheticFleet(int num_tenants, uint64_t seed);

}  // namespace dot

#endif  // DOTPROV_FIXTURES_SYNTHETIC_FLEET_H_
