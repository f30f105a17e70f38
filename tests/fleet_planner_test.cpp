// Pins the fleet planner's contracts (fleet/fleet_planner.h): a fleet of
// one with no coupling reproduces dot::Solve bit for bit; plans are always
// feasible and never lose to the independent fair-share baseline; pools
// are shared per schema fingerprint (memory O(distinct schemas), measured
// by the cache-instance counters); and everything — placements, totals,
// counters — is bit-identical at 1, 4, and hardware threads.

#include "fleet/fleet_planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/schema.h"
#include "dot/optimizer.h"
#include "dot/sla.h"
#include "dot/solve.h"
#include "fixtures/synthetic_fleet.h"
#include "io/io_types.h"
#include "storage/standard_catalog.h"
#include "workload/oltp_workload.h"
#include "workload/profiler.h"

namespace dot {
namespace {

/// The fleet's own problem: the shared box and the engine knobs.
DotProblem FleetProblemOn(const BoxConfig* box, int num_threads = 1) {
  DotProblem p;
  p.box = box;
  p.options.num_threads = num_threads;
  return p;
}

/// A small fleet from the synthetic generator, with the spec pointing at
/// it. All tenant classes are enumerable (<= 3^6 layouts).
struct FleetFixture {
  SyntheticFleet fleet;
  FleetSpec spec;

  explicit FleetFixture(int num_tenants, uint64_t seed = 7)
      : fleet(MakeSyntheticFleet(num_tenants, seed)) {
    spec.tenants = &fleet.tenants;
  }

  DotProblem FleetProblem(int num_threads = 1) const {
    return FleetProblemOn(fleet.box.get(), num_threads);
  }

  SolveResult Run(int num_threads = 1) const {
    SolveSpec s;
    s.method = SolveMethod::kFleet;
    s.fleet = &spec;
    return Solve(FleetProblem(num_threads), s);
  }
};

/// Plans must agree bit for bit.
void ExpectSamePlan(const FleetPlan& a, const FleetPlan& b,
                    const std::string& what) {
  ASSERT_EQ(a.status.ok(), b.status.ok()) << what;
  ASSERT_EQ(a.tenants.size(), b.tenants.size()) << what;
  for (size_t i = 0; i < a.tenants.size(); ++i) {
    EXPECT_EQ(a.tenants[i].placement, b.tenants[i].placement)
        << what << " tenant " << i;
    EXPECT_EQ(a.tenants[i].toc_cents_per_task, b.tenants[i].toc_cents_per_task)
        << what << " tenant " << i;
    EXPECT_EQ(a.tenants[i].pool_id, b.tenants[i].pool_id)
        << what << " tenant " << i;
    EXPECT_EQ(a.tenants[i].candidate, b.tenants[i].candidate)
        << what << " tenant " << i;
  }
  EXPECT_EQ(a.total_toc_cents_per_task, b.total_toc_cents_per_task) << what;
  EXPECT_EQ(a.total_cost_cents_per_hour, b.total_cost_cents_per_hour) << what;
  EXPECT_EQ(a.min_cost_cents_per_hour, b.min_cost_cents_per_hour) << what;
  EXPECT_EQ(a.used_gb, b.used_gb) << what;
  EXPECT_EQ(a.independent_toc_cents_per_task,
            b.independent_toc_cents_per_task)
      << what;
  EXPECT_EQ(a.price_iterations_run, b.price_iterations_run) << what;
  EXPECT_EQ(a.exchange_moves, b.exchange_moves) << what;
  EXPECT_EQ(a.improve_moves, b.improve_moves) << what;
  EXPECT_EQ(a.budget_price, b.budget_price) << what;
  EXPECT_EQ(a.capacity_price, b.capacity_price) << what;
  EXPECT_EQ(a.pool_builds, b.pool_builds) << what;
  EXPECT_EQ(a.pool_cache_hits, b.pool_cache_hits) << what;
  EXPECT_EQ(a.layouts_evaluated, b.layouts_evaluated) << what;
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::vector<uint64_t> Bits(const std::vector<double>& v) {
  std::vector<uint64_t> out;
  for (double x : v) out.push_back(Bits(x));
  return out;
}

/// What a plan gives its tenants, whatever the pool grouping or the roster
/// order: the multiset of (placement, TOC bits) over its tenants.
std::vector<std::pair<std::vector<int>, uint64_t>> Bills(
    const FleetPlan& plan) {
  std::vector<std::pair<std::vector<int>, uint64_t>> bills;
  for (const FleetTenantChoice& t : plan.tenants) {
    bills.emplace_back(t.placement, Bits(t.toc_cents_per_task));
  }
  std::sort(bills.begin(), bills.end());
  return bills;
}

/// The reported totals of two plans of one selection, summed in different
/// tenant orders, agree to 1e-12 relative.
void ExpectNearTotals(const FleetPlan& a, const FleetPlan& b,
                      const std::string& what) {
  auto near = [&](double x, double y, const std::string& total) {
    EXPECT_NEAR(x, y, 1e-12 * std::max(std::fabs(x), std::fabs(y)))
        << what << " " << total;
  };
  near(a.total_toc_cents_per_task, b.total_toc_cents_per_task, "toc");
  near(a.total_cost_cents_per_hour, b.total_cost_cents_per_hour, "cost");
  ASSERT_EQ(a.used_gb.size(), b.used_gb.size()) << what;
  for (size_t j = 0; j < a.used_gb.size(); ++j) {
    near(a.used_gb[j], b.used_gb[j], "used_gb " + std::to_string(j));
  }
  near(a.min_cost_cents_per_hour, b.min_cost_cents_per_hour, "min_cost");
  near(a.independent_toc_cents_per_task, b.independent_toc_cents_per_task,
       "independent toc");
  near(a.independent_cost_cents_per_hour, b.independent_cost_cents_per_hour,
       "independent cost");
}

/// A placement's space per storage class, GB, summed in object-id order as
/// the pool rows sum it.
std::vector<double> SpaceByClass(const Schema& schema,
                                 const std::vector<int>& placement,
                                 size_t num_classes) {
  std::vector<double> space(num_classes, 0.0);
  for (size_t o = 0; o < placement.size(); ++o) {
    space[static_cast<size_t>(placement[o])] += schema.sizes_gb()[o];
  }
  return space;
}

/// The FleetPlan accounting contract: the reported totals are the emitted
/// choices summed in tenant order, bit for bit.
void ExpectTenantOrderTotals(const FleetPlan& plan,
                             const std::vector<FleetTenant>& roster,
                             const std::string& what) {
  ASSERT_EQ(plan.tenants.size(), roster.size()) << what;
  double toc = 0.0;
  double cost = 0.0;
  std::vector<double> used(plan.used_gb.size(), 0.0);
  for (size_t i = 0; i < roster.size(); ++i) {
    const FleetTenantChoice& t = plan.tenants[i];
    toc += t.toc_cents_per_task;
    cost += t.cost_cents_per_hour;
    const std::vector<double> space =
        SpaceByClass(*roster[i].problem.schema, t.placement, used.size());
    for (size_t j = 0; j < used.size(); ++j) used[j] += space[j];
  }
  EXPECT_EQ(Bits(toc), Bits(plan.total_toc_cents_per_task)) << what;
  EXPECT_EQ(Bits(cost), Bits(plan.total_cost_cents_per_hour)) << what;
  EXPECT_EQ(Bits(used), Bits(plan.used_gb)) << what;
}

/// Capacity that chokes a fleet: the heaviest class of its unconstrained
/// plan halved, the other classes roomy.
std::vector<double> CapacityChoke(const FleetPlan& free_plan) {
  std::vector<double> capacity;
  size_t heavy = 0;
  for (size_t j = 0; j < free_plan.used_gb.size(); ++j) {
    capacity.push_back(free_plan.used_gb[j] * 4.0 + 1.0);
    if (free_plan.used_gb[j] > free_plan.used_gb[heavy]) heavy = j;
  }
  capacity[heavy] = free_plan.used_gb[heavy] * 0.5;
  return capacity;
}

/// A fleet's coupled sweep: budgets 0.05, 0.10, ..., 0.95 of the way from
/// its cost floor to its unconstrained cost, and the capacity choke.
std::vector<std::pair<std::string, FleetConstraints>> CoupledSweep(
    const FleetPlan& free_plan) {
  std::vector<std::pair<std::string, FleetConstraints>> cases;
  const double floor = free_plan.min_cost_cents_per_hour;
  const double top = free_plan.total_cost_cents_per_hour;
  for (int k = 1; k <= 19; ++k) {
    FleetConstraints budget;
    budget.budget_cents_per_hour = floor + 0.05 * k * (top - floor);
    cases.emplace_back("budget fraction " + std::to_string(0.05 * k), budget);
  }
  FleetConstraints choke;
  choke.capacity_gb = CapacityChoke(free_plan);
  cases.emplace_back("capacity choke", choke);
  return cases;
}

void ExpectFeasible(const FleetPlan& plan, const FleetConstraints& cons) {
  double cost = 0.0;
  for (const FleetTenantChoice& t : plan.tenants) {
    cost += t.cost_cents_per_hour;
  }
  if (cons.budget_cents_per_hour > 0.0) {
    EXPECT_LE(plan.total_cost_cents_per_hour,
              cons.budget_cents_per_hour * (1.0 + 1e-9));
    EXPECT_LE(cost, cons.budget_cents_per_hour * (1.0 + 1e-9));
  }
  for (size_t j = 0; j < cons.capacity_gb.size(); ++j) {
    EXPECT_LE(plan.used_gb[j], cons.capacity_gb[j] * (1.0 + 1e-9));
  }
}

TEST(FleetPlannerTest, SingleTenantNoCouplingMatchesSoloSolveBitwise) {
  FleetFixture fx(1);
  for (FleetPoolMode mode :
       {FleetPoolMode::kEnumerate, FleetPoolMode::kSearch}) {
    fx.spec.config.pool_mode = mode;
    const SolveResult fleet = fx.Run();
    ASSERT_TRUE(fleet.status.ok()) << fleet.status.ToString();
    ASSERT_TRUE(fleet.has_fleet);
    ASSERT_EQ(fleet.fleet.tenants.size(), 1u);

    // The tenant's own solo optimum: kEnumerate and kSearch pools both
    // put the exact winner at pool[0], so with no constraints the fleet
    // must reproduce the direct solve bit for bit.
    const SolveResult solo = Solve(fx.fleet.tenants[0].problem);
    ASSERT_TRUE(solo.status.ok());
    EXPECT_EQ(fleet.fleet.tenants[0].placement, solo.placement);
    EXPECT_EQ(fleet.fleet.tenants[0].toc_cents_per_task,
              solo.toc_cents_per_task);
    EXPECT_EQ(fleet.toc_cents_per_task, solo.toc_cents_per_task);
    // Unconstrained: the independent baseline IS the solo optimum.
    EXPECT_TRUE(fleet.fleet.independent_feasible);
    EXPECT_EQ(fleet.fleet.independent_toc_cents_per_task,
              fleet.fleet.total_toc_cents_per_task);
  }
}

TEST(FleetPlannerTest, UnconstrainedFleetReproducesIndependentOptima) {
  // budget -> infinity (unconstrained): every tenant gets its solo
  // optimum, and the fleet total equals the independent total bitwise
  // (same accumulation order).
  FleetFixture fx(24);
  const SolveResult r = fx.Run();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.fleet.total_toc_cents_per_task,
            r.fleet.independent_toc_cents_per_task);
  EXPECT_EQ(r.fleet.total_cost_cents_per_hour,
            r.fleet.independent_cost_cents_per_hour);
  for (const FleetTenantChoice& t : r.fleet.tenants) {
    EXPECT_EQ(t.candidate, 0);  // pool[0] == the solo optimum
  }
  EXPECT_EQ(r.fleet.exchange_moves, 0);
  EXPECT_EQ(r.fleet.budget_price, 0.0);
}

TEST(FleetPlannerTest, PoolsAreSharedPerSchemaFingerprint) {
  // Memory is O(distinct schemas): 40 tenants drawn from the generator's
  // fixed class roster build at most num_classes pools, and every other
  // tenant is a cache hit. Growing the fleet must not grow pool_builds.
  FleetFixture small(10);
  FleetFixture large(40);
  const SolveResult rs = small.Run();
  const SolveResult rl = large.Run();
  ASSERT_TRUE(rs.status.ok());
  ASSERT_TRUE(rl.status.ok());
  EXPECT_LE(rl.fleet.pool_builds, large.fleet.num_classes);
  EXPECT_EQ(rl.fleet.pool_builds + rl.fleet.pool_cache_hits, 40);
  EXPECT_EQ(rs.fleet.pool_builds + rs.fleet.pool_cache_hits, 10);
  // Same classes present in both fleets => same pools built.
  EXPECT_GE(rl.fleet.pool_builds, rs.fleet.pool_builds);
  EXPECT_EQ(rl.provenance.pool_builds, rl.fleet.pool_builds);
  EXPECT_EQ(rl.provenance.pool_cache_hits, rl.fleet.pool_cache_hits);

  // Turning sharing off builds one pool per tenant — same plan, more work.
  FleetFixture unshared(10);
  unshared.spec.config.share_pools = false;
  const SolveResult ru = unshared.Run();
  ASSERT_TRUE(ru.status.ok());
  EXPECT_EQ(ru.fleet.pool_builds, 10);
  EXPECT_EQ(ru.fleet.pool_cache_hits, 0);
  EXPECT_EQ(ru.fleet.total_toc_cents_per_task,
            rs.fleet.total_toc_cents_per_task);
}

/// A four-object tenant (orders + pk, items + pk) whose two table groups
/// can be added in either order — the same objects, different ids — with a
/// same-named point-lookup workload over orders. The schema/model live in
/// `fleet`'s owner vectors.
FleetTenant MakeOrderVariantTenant(
    SyntheticFleet* fleet, const std::string& name, bool orders_first,
    const std::string& workload_name = "order-lookup") {
  auto schema = std::make_unique<Schema>();
  int orders, items;
  if (orders_first) {
    orders = schema->AddTable("orders", 1e6, 120.0);
    schema->AddIndex("orders_pk", orders, 8.0);
    items = schema->AddTable("items", 5e5, 80.0);
    schema->AddIndex("items_pk", items, 8.0);
  } else {
    items = schema->AddTable("items", 5e5, 80.0);
    schema->AddIndex("items_pk", items, 8.0);
    orders = schema->AddTable("orders", 1e6, 120.0);
    schema->AddIndex("orders_pk", orders, 8.0);
  }
  const int pk = schema->FindObject("orders_pk");
  TxnType lookup;
  lookup.name = "Lookup";
  lookup.weight = 1.0;
  lookup.io.assign(static_cast<size_t>(schema->NumObjects()), IoVector{});
  lookup.io[static_cast<size_t>(pk)][IoType::kRandRead] = 2.0;
  lookup.io[static_cast<size_t>(orders)][IoType::kRandRead] = 1.0;
  lookup.cpu_ms = 0.05;
  lookup.overhead_ms = 0.5;
  auto model = std::make_unique<OltpWorkloadModel>(
      workload_name, schema.get(), fleet->box.get(),
      std::vector<TxnType>{lookup}, 40.0, 3600.0 * 1000.0);

  FleetTenant tenant;
  tenant.name = name;
  tenant.problem.schema = schema.get();
  tenant.problem.box = fleet->box.get();
  tenant.problem.workload = model.get();
  tenant.problem.relative_sla = 0.4;
  fleet->schemas.push_back(std::move(schema));
  fleet->models.push_back(std::move(model));
  return tenant;
}

TEST(FleetPlannerTest, ObjectOrderVariantDoesNotShareAPool) {
  // Two tenants with the same objects in different id order and a
  // same-named workload must NOT share a pool: placements are id-indexed,
  // so Schema::Fingerprint is order-sensitive and the cache key differs.
  SyntheticFleet owner = MakeSyntheticFleet(1, 7);
  std::vector<FleetTenant> pair = {
      MakeOrderVariantTenant(&owner, "fwd", /*orders_first=*/true),
      MakeOrderVariantTenant(&owner, "rev", /*orders_first=*/false)};
  ASSERT_NE(pair[0].problem.schema->Fingerprint(),
            pair[1].problem.schema->Fingerprint());
  FleetConfig config;
  FleetPlanner planner(FleetProblemOn(owner.box.get()), config);
  const FleetPlan plan = planner.Plan(pair);
  ASSERT_TRUE(plan.status.ok()) << plan.status.ToString();
  EXPECT_EQ(plan.pool_builds, 2);
  EXPECT_EQ(plan.pool_cache_hits, 0);
  EXPECT_NE(plan.tenants[0].pool_id, plan.tenants[1].pool_id);
}

TEST(FleetPlannerTest, EveryPoolKeyFieldSplitsThePool) {
  // The pool cache key holds every input a pool's scores depend on: a
  // tenant that differs from the base in any single one of them must get
  // its own pool, and one that differs only in which Schema object it
  // points at (equal fingerprints, same-named workload) shares the base's.
  SyntheticFleet owner = MakeSyntheticFleet(1, 7);
  FleetTenant base = MakeOrderVariantTenant(&owner, "base", true);
  const int n = base.problem.schema->NumObjects();
  base.problem.io_scale_hint.assign(static_cast<size_t>(n), 1.0);
  const PerfTargets targets = MakePerfTargets(
      *base.problem.workload, *owner.box, n, base.problem.relative_sla);

  std::vector<std::pair<std::string, FleetTenant>> variants;
  auto variant = [&](const std::string& what) -> DotProblem& {
    variants.emplace_back(what, base);
    return variants.back().second.problem;
  };
  variant("relative_sla").relative_sla = 0.45;
  variant("cost_model.discrete").cost_model.discrete = true;
  variant("cost_model.alpha").cost_model.alpha = 0.25;
  variant("tail_sla.percentile").tail_sla.percentile = 0.95;
  variant("tail_sla.latency_cv").tail_sla.latency_cv = 0.2;
  variant("one hint entry").io_scale_hint[2] = 1.25;
  variant("hint length").io_scale_hint.clear();
  variant("targets_override").targets_override = &targets;
  // Tenants over their own schema and model, with the base's hint.
  auto own_tenant = [&](const std::string& name, bool orders_first,
                        const std::string& workload_name) {
    FleetTenant t =
        MakeOrderVariantTenant(&owner, name, orders_first, workload_name);
    t.problem.io_scale_hint = base.problem.io_scale_hint;
    return t;
  };
  variants.emplace_back("workload name",
                        own_tenant("renamed", true, "order-lookup-2"));
  variants.emplace_back("schema fingerprint",
                        own_tenant("rev", false, "order-lookup"));

  const FleetPlanner planner(FleetProblemOn(owner.box.get()), FleetConfig{});
  for (const auto& [what, tenant] : variants) {
    const FleetPlan plan = planner.Plan({base, tenant});
    ASSERT_TRUE(plan.status.ok()) << what << ": " << plan.status.ToString();
    EXPECT_EQ(plan.pool_builds, 2) << what;
    EXPECT_EQ(plan.pool_cache_hits, 0) << what;
    EXPECT_NE(plan.tenants[0].pool_id, plan.tenants[1].pool_id) << what;
  }

  const FleetTenant copy = own_tenant("copy", true, "order-lookup");
  ASSERT_NE(copy.problem.schema, base.problem.schema);
  ASSERT_NE(copy.problem.workload, base.problem.workload);
  ASSERT_EQ(copy.problem.schema->Fingerprint(),
            base.problem.schema->Fingerprint());
  const FleetPlan shared = planner.Plan({base, copy});
  ASSERT_TRUE(shared.status.ok()) << shared.status.ToString();
  EXPECT_EQ(shared.pool_builds, 1);
  EXPECT_EQ(shared.pool_cache_hits, 1);
  EXPECT_EQ(shared.tenants[0].pool_id, shared.tenants[1].pool_id);
}

TEST(FleetPlannerTest, ProfilesSplitThePoolOnlyWhenThePoolBuildRunsDot) {
  // Profiles drive only DOT's Procedure 1, so two equal-content profile
  // objects split the pool under kSearch + kDot and nowhere else.
  SyntheticFleet owner = MakeSyntheticFleet(1, 7);
  FleetTenant first = MakeOrderVariantTenant(&owner, "first", true);
  const Profiler profiler(first.problem.schema, owner.box.get());
  const WorkloadModel& model = *first.problem.workload;
  auto profile = [&] {
    return profiler.ProfileWorkload(
        model, [&](const std::vector<int>& p) { return model.Estimate(p); });
  };
  const WorkloadProfiles profiles_a = profile();
  const WorkloadProfiles profiles_b = profile();
  first.problem.profiles = &profiles_a;
  FleetTenant second = first;
  second.name = "second";
  second.problem.profiles = &profiles_b;

  struct Case {
    FleetPoolMode mode;
    EpochSearch search;
    long long pool_builds;
  };
  const std::vector<Case> cases = {
      {FleetPoolMode::kEnumerate, EpochSearch::kExact, 1},
      {FleetPoolMode::kEnumerate, EpochSearch::kDot, 1},
      {FleetPoolMode::kSearch, EpochSearch::kExact, 1},
      {FleetPoolMode::kSearch, EpochSearch::kDot, 2}};
  for (const Case& c : cases) {
    FleetConfig config;
    config.pool_mode = c.mode;
    config.search = c.search;
    const FleetPlan plan =
        FleetPlanner(FleetProblemOn(owner.box.get()), config)
            .Plan({first, second});
    const std::string what =
        std::string(c.mode == FleetPoolMode::kSearch ? "kSearch"
                                                     : "kEnumerate") +
        (c.search == EpochSearch::kDot ? " + kDot" : " + kExact");
    ASSERT_TRUE(plan.status.ok()) << what << ": " << plan.status.ToString();
    EXPECT_EQ(plan.pool_builds, c.pool_builds) << what;
    EXPECT_EQ(plan.pool_cache_hits, 2 - c.pool_builds) << what;
  }
}

TEST(FleetPlannerTest, IdenticalTenantsShareOnePool) {
  // Identical twins DO share: two tenants pointing at the same schema and
  // workload instance produce one pool build and one cache hit.
  SyntheticFleet twins = MakeSyntheticFleet(1, 7);
  std::vector<FleetTenant> pair = {twins.tenants[0], twins.tenants[0]};
  pair[1].name = "twin";
  FleetConfig config;
  FleetPlanner planner(FleetProblemOn(twins.box.get()), config);
  const FleetPlan plan = planner.Plan(pair);
  ASSERT_TRUE(plan.status.ok()) << plan.status.ToString();
  EXPECT_EQ(plan.pool_builds, 1);
  EXPECT_EQ(plan.pool_cache_hits, 1);
  EXPECT_EQ(plan.tenants[0].pool_id, plan.tenants[1].pool_id);
}

TEST(FleetPlannerTest, IdenticalTenantsBreakMoveTiesTowardTheLowestIndex) {
  // Twins share one pool, so the plan decides only how many of them take
  // each candidate; the emitted plan then hands candidates out in ascending
  // candidate order to the tenants in roster order. Under a budget a few
  // moves can meet, two of the six twins leave their solo optimum
  // (pool[0]), and they are the last two of the roster.
  SyntheticFleet owner = MakeSyntheticFleet(1, 7);
  const std::vector<FleetTenant> twins(6, owner.tenants[0]);
  const FleetPlan free_plan =
      FleetPlanner(FleetProblemOn(owner.box.get()), FleetConfig{}).Plan(twins);
  ASSERT_TRUE(free_plan.status.ok()) << free_plan.status.ToString();
  FleetConfig config;
  config.constraints.budget_cents_per_hour =
      free_plan.total_cost_cents_per_hour * 0.97;
  const FleetPlan plan =
      FleetPlanner(FleetProblemOn(owner.box.get()), config).Plan(twins);
  ASSERT_TRUE(plan.status.ok()) << plan.status.ToString();
  EXPECT_EQ(plan.exchange_moves, 2);
  ExpectFeasible(plan, config.constraints);
  size_t moved = 0;
  for (size_t i = 0; i < twins.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(plan.tenants[i].candidate, plan.tenants[i - 1].candidate)
          << "tenant " << i;
    }
    if (plan.tenants[i].candidate != 0) ++moved;
  }
  EXPECT_EQ(moved, 2u);
}

TEST(FleetPlannerTest, BindingBudgetStaysFeasibleAndNeverLoses) {
  FleetFixture fx(16);
  // First find the unconstrained cost, then squeeze.
  const SolveResult free_run = fx.Run();
  ASSERT_TRUE(free_run.status.ok());
  const double cost0 = free_run.fleet.total_cost_cents_per_hour;

  for (double fraction : {0.9, 0.7, 0.5, 0.3}) {
    FleetFixture squeezed(16);
    squeezed.spec.config.constraints.budget_cents_per_hour =
        cost0 * fraction;
    const SolveResult r = squeezed.Run();
    if (!r.status.ok()) continue;  // a too-tight budget may be infeasible
    ExpectFeasible(r.fleet, squeezed.spec.config.constraints);
    if (r.fleet.independent_feasible) {
      EXPECT_LE(r.fleet.total_toc_cents_per_task,
                r.fleet.independent_toc_cents_per_task)
          << "never-lose violated at fraction " << fraction;
    }
    // Totals follow the accounting contract: re-summing per-tenant bills
    // in index order reproduces them bitwise.
    double toc = 0.0, cost = 0.0;
    for (const FleetTenantChoice& tc : r.fleet.tenants) {
      toc += tc.toc_cents_per_task;
      cost += tc.cost_cents_per_hour;
    }
    EXPECT_EQ(toc, r.fleet.total_toc_cents_per_task);
    EXPECT_EQ(cost, r.fleet.total_cost_cents_per_hour);
  }
}

TEST(FleetPlannerTest, CapacityConstraintIsRespectedByRepair) {
  // Choke one storage class below what the solo optima use; the exchange
  // repair must land every class within capacity.
  FleetFixture fx(12);
  const SolveResult free_run = fx.Run();
  ASSERT_TRUE(free_run.status.ok());
  const std::vector<double>& used0 = free_run.fleet.used_gb;
  ASSERT_EQ(used0.size(), 3u);  // Box 2

  // Find the heaviest class and halve it; leave the others roomy.
  size_t heavy = 0;
  for (size_t j = 1; j < used0.size(); ++j) {
    if (used0[j] > used0[heavy]) heavy = j;
  }
  FleetFixture choked(12);
  std::vector<double> capacity(used0.size());
  for (size_t j = 0; j < used0.size(); ++j) {
    capacity[j] = used0[j] * 4.0 + 1.0;
  }
  capacity[heavy] = used0[heavy] * 0.5;
  choked.spec.config.constraints.capacity_gb = capacity;
  const SolveResult r = choked.Run();
  if (r.status.ok()) {
    ExpectFeasible(r.fleet, choked.spec.config.constraints);
    EXPECT_LT(r.fleet.used_gb[heavy], used0[heavy]);
  } else {
    EXPECT_EQ(r.status.code(), StatusCode::kInfeasible);
  }
}

TEST(FleetPlannerTest, DeterministicAcrossThreadCountsIncludingCounters) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  FleetFixture reference(20);
  // A binding budget exercises pricing + repair, the interesting path:
  // walk down from the unconstrained cost to the tightest feasible
  // fraction (the floor is the sum of per-tenant cheapest candidates, so
  // too-small fractions are legitimately infeasible).
  const SolveResult free_run = reference.Run();
  ASSERT_TRUE(free_run.status.ok());
  const double cost0 = free_run.fleet.total_cost_cents_per_hour;
  double budget = cost0;
  for (double fraction : {0.6, 0.7, 0.8, 0.9, 0.95}) {
    FleetFixture probe(20);
    probe.spec.config.constraints.budget_cents_per_hour = cost0 * fraction;
    if (probe.Run().status.ok()) {
      budget = cost0 * fraction;
      break;
    }
  }

  FleetPlan base;
  bool have_base = false;
  for (int threads : {1, 4, hw}) {
    FleetFixture fx(20);
    fx.spec.config.constraints.budget_cents_per_hour = budget;
    const SolveResult r = fx.Run(threads);
    ASSERT_TRUE(r.status.ok())
        << "threads=" << threads << ": " << r.status.ToString();
    if (!have_base) {
      base = r.fleet;
      have_base = true;
    } else {
      ExpectSamePlan(base, r.fleet, "threads=" + std::to_string(threads));
    }
  }
}

TEST(FleetPlannerTest, SharedPoolsPlanLikeUnsharedPoolsUnderCoupling) {
  // Sharing a pool must change only how often the per-candidate work is
  // done, never the decisions: with share_pools off every tenant is its
  // own pool, and a group move of k tenants is k one-tenant moves. Three
  // coupled cases, each pinned to the path it exercises by its move
  // counts, at 1, 4 and hardware threads. The tenants get the same bills
  // (which twin gets which follows each run's pools), the counters and
  // prices are equal bit for bit — prices follow exact totals — and the
  // reported totals are tenant-order sums that agree to 1e-12.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  constexpr int kTenants = 24;
  const FleetFixture free_fx(kTenants);
  const SolveResult free_run = free_fx.Run();
  ASSERT_TRUE(free_run.status.ok()) << free_run.status.ToString();
  const FleetPlan& free_plan = free_run.fleet;
  const double floor = free_plan.min_cost_cents_per_hour;
  const double top = free_plan.total_cost_cents_per_hour;

  struct Case {
    std::string name;
    FleetConstraints constraints;
    bool expect_exchange;
    bool expect_improve;
  };
  std::vector<Case> cases(3);
  cases[0] = {"budget-exchange", {}, true, false};
  cases[0].constraints.budget_cents_per_hour = floor + 0.4 * (top - floor);
  cases[1] = {"budget-improve", {}, false, true};
  cases[1].constraints.budget_cents_per_hour = floor + 0.9 * (top - floor);
  cases[2] = {"capacity-choke", {}, true, true};
  cases[2].constraints.capacity_gb = CapacityChoke(free_plan);

  for (const Case& c : cases) {
    FleetPlan reference;
    bool have_reference = false;
    for (int threads : {1, 4, hw}) {
      for (bool share : {true, false}) {
        FleetFixture fx(kTenants);
        fx.spec.config.constraints = c.constraints;
        fx.spec.config.share_pools = share;
        const SolveResult r = fx.Run(threads);
        const std::string what = c.name + " threads=" +
                                 std::to_string(threads) +
                                 (share ? " shared" : " unshared");
        ASSERT_TRUE(r.status.ok()) << what << ": " << r.status.ToString();
        if (share) {
          EXPECT_LT(r.fleet.pool_builds, kTenants) << what;
        } else {
          EXPECT_EQ(r.fleet.pool_builds, kTenants) << what;
        }
        ExpectTenantOrderTotals(r.fleet, fx.fleet.tenants, what);
        if (!have_reference) {
          reference = r.fleet;
          have_reference = true;
          EXPECT_EQ(reference.exchange_moves > 0, c.expect_exchange) << what;
          EXPECT_EQ(reference.improve_moves > 0, c.expect_improve) << what;
          ExpectFeasible(reference, c.constraints);
          continue;
        }
        EXPECT_EQ(Bills(reference), Bills(r.fleet)) << what;
        EXPECT_EQ(reference.exchange_moves, r.fleet.exchange_moves) << what;
        EXPECT_EQ(reference.improve_moves, r.fleet.improve_moves) << what;
        EXPECT_EQ(reference.price_iterations_run, r.fleet.price_iterations_run)
            << what;
        EXPECT_EQ(Bits(reference.budget_price), Bits(r.fleet.budget_price))
            << what;
        EXPECT_EQ(Bits(reference.capacity_price), Bits(r.fleet.capacity_price))
            << what;
        ExpectNearTotals(reference, r.fleet, what);
      }
    }
  }
}

TEST(FleetPlannerTest, ValidateRejectsMalformedFleets) {
  FleetFixture fx(2);

  // Empty tenant vector.
  std::vector<FleetTenant> empty;
  FleetSpec bad;
  bad.tenants = &empty;
  SolveSpec spec;
  spec.method = SolveMethod::kFleet;
  spec.fleet = &bad;
  EXPECT_EQ(Solve(fx.FleetProblem(), spec).status.code(),
            StatusCode::kInvalidArgument);

  // A tenant on a different box.
  BoxConfig other_box = MakeBox1();
  std::vector<FleetTenant> wrong_box = fx.fleet.tenants;
  wrong_box[0].problem.box = &other_box;
  FleetSpec mismatched;
  mismatched.tenants = &wrong_box;
  spec.fleet = &mismatched;
  EXPECT_EQ(Solve(fx.FleetProblem(), spec).status.code(),
            StatusCode::kInvalidArgument);

  // Malformed FleetConfigs, one rejection each. Solve rejects them up
  // front, and the planner itself reports them in plan.status instead of
  // aborting.
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::pair<std::string, FleetConfig>> configs;
  auto add = [&](const std::string& what) -> FleetConfig& {
    configs.emplace_back(what, FleetConfig{});
    return configs.back().second;
  };
  add("zero price iterations").price_iterations = 0;
  add("zero max_pool_layouts").max_pool_layouts = 0;
  add("NaN budget").constraints.budget_cents_per_hour = kNaN;
  // Box 2 has 3 classes.
  add("capacity arity").constraints.capacity_gb = {1.0};
  add("NaN capacity").constraints.capacity_gb = {1e6, kNaN, 1e6};
  add("negative capacity").constraints.capacity_gb = {1e6, -1.0, 1e6};
  for (const auto& [what, config] : configs) {
    FleetSpec malformed;
    malformed.tenants = &fx.fleet.tenants;
    malformed.config = config;
    spec.fleet = &malformed;
    EXPECT_EQ(Solve(fx.FleetProblem(), spec).status.code(),
              StatusCode::kInvalidArgument)
        << what;
    EXPECT_EQ(ValidateFleetConfig(config, *fx.fleet.box).code(),
              StatusCode::kInvalidArgument)
        << what;
    const FleetPlan plan =
        FleetPlanner(fx.FleetProblem(), config).Plan(fx.fleet.tenants);
    EXPECT_EQ(plan.status.code(), StatusCode::kInvalidArgument) << what;
  }
  EXPECT_TRUE(ValidateFleetConfig(FleetConfig{}, *fx.fleet.box).ok());

  // Heuristic (EpochSearch::kDot) pools over tenants without profiles:
  // the synthetic tenants carry none, so Optimize() would abort on them.
  FleetSpec dot_pools;
  dot_pools.tenants = &fx.fleet.tenants;
  dot_pools.config.pool_mode = FleetPoolMode::kSearch;
  dot_pools.config.search = EpochSearch::kDot;
  spec.fleet = &dot_pools;
  EXPECT_EQ(Solve(fx.FleetProblem(), spec).status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ValidateFleetRoster(fx.fleet.tenants, fx.fleet.box.get(),
                                dot_pools.config)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FleetPlanner(fx.FleetProblem(), dot_pools.config)
                .Plan(fx.fleet.tenants)
                .status.code(),
            StatusCode::kInvalidArgument);
  dot_pools.config.search = EpochSearch::kExact;
  EXPECT_TRUE(ValidateFleetRoster(fx.fleet.tenants, fx.fleet.box.get(),
                                  dot_pools.config)
                  .ok());

  // A tenant whose relative SLA lies outside (0, 1], or is NaN: its
  // targets would be derived from it (MakePerfTargets aborts on it). The
  // planner itself reports it too.
  for (double sla : {kNaN, 0.0, 1.5, -1.0}) {
    const std::string what = "relative_sla " + std::to_string(sla);
    std::vector<FleetTenant> bad_sla = fx.fleet.tenants;
    bad_sla[1].problem.relative_sla = sla;
    FleetSpec roster;
    roster.tenants = &bad_sla;
    spec.fleet = &roster;
    EXPECT_EQ(Solve(fx.FleetProblem(), spec).status.code(),
              StatusCode::kInvalidArgument)
        << what;
    EXPECT_EQ(
        ValidateFleetRoster(bad_sla, fx.fleet.box.get(), roster.config)
            .code(),
        StatusCode::kInvalidArgument)
        << what;
    EXPECT_EQ(FleetPlanner(fx.FleetProblem(), roster.config)
                  .Plan(bad_sla)
                  .status.code(),
              StatusCode::kInvalidArgument)
        << what;
  }
}

TEST(FleetPlannerTest, ImpossibleBudgetReportsInfeasible) {
  FleetFixture fx(4);
  fx.spec.config.constraints.budget_cents_per_hour = 1e-6;
  const SolveResult r = fx.Run();
  EXPECT_EQ(r.status.code(), StatusCode::kInfeasible);
  EXPECT_FALSE(r.fleet.independent_feasible);
}

TEST(FleetPlannerTest, EnumerateGuardRefusesOversizedTenants) {
  FleetFixture fx(1);
  fx.spec.config.max_pool_layouts = 2;
  const SolveResult r = fx.Run();
  EXPECT_EQ(r.status.code(), StatusCode::kOutOfRange);
}

TEST(FleetPlannerTest, EnumerateGuardAdmitsASpaceExactlyAtTheCap) {
  // The guard refuses only a space larger than max_pool_layouts: a tenant
  // whose M^N equals the cap plans, and one layout less refuses it.
  FleetFixture fx(1);
  const long long space =
      LayoutSpaceSize(fx.fleet.box->NumClasses(),
                      fx.fleet.tenants[0].problem.schema->NumObjects());
  fx.spec.config.max_pool_layouts = space;
  const SolveResult at_cap = fx.Run();
  ASSERT_TRUE(at_cap.status.ok()) << at_cap.status.ToString();
  EXPECT_EQ(at_cap.fleet.layouts_evaluated, space);
  fx.spec.config.max_pool_layouts = space - 1;
  EXPECT_EQ(fx.Run().status.code(), StatusCode::kOutOfRange);
}

TEST(FleetPlannerTest, MalformedTenantDeepInASharedRosterIsNamed) {
  // 10,000 tenants over the generator's 8 shared problems. Tenant 7,777
  // carries its own malformed copy of its class's problem; the roster
  // pass checks each distinct problem once, and the copy is a problem of
  // its own, so it is caught and named with the message a per-tenant
  // check gives — through Solve, ValidateFleetRoster and Plan alike.
  const SyntheticFleet fx = MakeSyntheticFleet(10000, 7);
  ASSERT_EQ(fx.num_classes, 8);
  const size_t bad = 7777;
  const FleetTenant& victim = fx.tenants[bad];
  const BoxConfig other_box = MakeBox1();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> nan_hint(
      static_cast<size_t>(victim.problem.schema->NumObjects()), 1.0);
  nan_hint[0] = kNaN;
  const std::string box_message =
      "tenant " + victim.name +
      " references a different box than the fleet problem";
  auto problem_message = [&](const DotProblem& p) {
    return "tenant " + victim.name + ": " + ValidateProblem(p).message();
  };

  std::vector<std::pair<std::string, DotProblem>> copies;
  auto copy = [&](const std::string& what) -> DotProblem& {
    copies.emplace_back(what, victim.problem);
    return copies.back().second;
  };
  copy("NaN relative_sla").relative_sla = kNaN;
  copy("another box").box = &other_box;
  copy("NaN hint entry").io_scale_hint = nan_hint;
  DotProblem& all = copy("all three");
  all.relative_sla = kNaN;
  all.box = &other_box;
  all.io_scale_hint = nan_hint;
  const std::vector<std::string> expected = {
      problem_message(copies[0].second), box_message,
      problem_message(copies[2].second), box_message};

  for (size_t c = 0; c < copies.size(); ++c) {
    const std::string& what = copies[c].first;
    std::vector<FleetTenant> roster = fx.tenants;
    roster[bad].problem = copies[c].second;
    FleetSpec fleet;
    fleet.tenants = &roster;
    SolveSpec spec;
    spec.method = SolveMethod::kFleet;
    spec.fleet = &fleet;
    const std::vector<std::pair<std::string, Status>> statuses = {
        {"Solve", Solve(FleetProblemOn(fx.box.get()), spec).status},
        {"ValidateFleetRoster",
         ValidateFleetRoster(roster, fx.box.get(), FleetConfig{})},
        {"Plan", FleetPlanner(FleetProblemOn(fx.box.get()), FleetConfig{})
                     .Plan(roster)
                     .status}};
    for (const auto& [via, st] : statuses) {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << what << " " << via;
      EXPECT_EQ(st.message(), expected[c]) << what << " " << via;
    }
  }
}

TEST(FleetPlannerTest, EveryIdentityFieldIsCheckedOnItsOwn) {
  // The roster pass checks one tenant per distinct problem identity. A
  // tenant that differs from a valid one in a single identity field, and
  // is malformed in that field, must still be checked and named: one
  // case per field the checks read. The base carries no hint, so copies
  // of it share every identity field.
  SyntheticFleet owner = MakeSyntheticFleet(16, 7);
  const FleetTenant base = MakeOrderVariantTenant(&owner, "base", true);
  const int n = base.problem.schema->NumObjects();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const BoxConfig other_box = MakeBox1();
  const PerfTargets targets = MakePerfTargets(
      *base.problem.workload, *owner.box, n, base.problem.relative_sla);
  const ScenarioEnsemble ensemble{std::vector<Scenario>(1)};
  Schema small;
  small.AddTable("t", 1e5, 100.0);
  const WorkloadModel* other_workload = nullptr;  // over another size
  for (const FleetTenant& t : owner.tenants) {
    if (t.problem.workload->schema()->NumObjects() != n) {
      other_workload = t.problem.workload;
      break;
    }
  }
  ASSERT_NE(other_workload, nullptr);
  const Profiler profiler(base.problem.schema, owner.box.get());
  const WorkloadModel& model = *base.problem.workload;
  const WorkloadProfiles profiles = profiler.ProfileWorkload(
      model, [&](const std::vector<int>& p) { return model.Estimate(p); });

  struct Case {
    std::string field;
    FleetConfig config;
    FleetTenant valid;
    FleetTenant variant;
  };
  std::vector<Case> cases;
  auto add = [&](const std::string& field) -> DotProblem& {
    cases.push_back({field, FleetConfig{}, base, base});
    cases.back().variant.name = "variant";
    return cases.back().variant.problem;
  };
  add("schema").schema = &small;
  add("box").box = &other_box;
  add("workload").workload = other_workload;
  add("ensemble").ensemble = &ensemble;
  add("io_scale_hint").io_scale_hint.assign(static_cast<size_t>(n), kNaN);
  add("relative_sla").relative_sla = kNaN;
  add("tail_sla.percentile").tail_sla.percentile = 1.5;
  add("tail_sla.latency_cv").tail_sla.latency_cv = -1.0;
  // An override stands in for a NaN relative SLA; without it the SLA is
  // checked.
  add("targets_override").relative_sla = kNaN;
  cases.back().valid.problem.relative_sla = kNaN;
  cases.back().valid.problem.targets_override = &targets;
  // DOT's Procedure 1 pools need profiles.
  add("profiles");
  cases.back().config.pool_mode = FleetPoolMode::kSearch;
  cases.back().config.search = EpochSearch::kDot;
  cases.back().valid.problem.profiles = &profiles;

  for (const Case& c : cases) {
    const FleetPlanner planner(FleetProblemOn(owner.box.get()), c.config);
    const FleetPlan alone = planner.Plan({c.valid});
    ASSERT_TRUE(alone.status.ok())
        << c.field << ": " << alone.status.ToString();
    const std::vector<FleetTenant> roster = {c.valid, c.valid, c.variant};
    const Status validated =
        ValidateFleetRoster(roster, owner.box.get(), c.config);
    const Status planned = planner.Plan(roster).status;
    for (const Status& st : {validated, planned}) {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << c.field;
      EXPECT_EQ(st.message().rfind("tenant variant", 0), 0u)
          << c.field << ": " << st.ToString();
    }
  }

  // The cost model is read only by the pool key: a tenant that differs in
  // it alone is a problem of its own, with a pool of its own.
  for (const std::string field : {"cost_model.discrete", "cost_model.alpha"}) {
    FleetTenant variant = base;
    variant.name = "variant";
    if (field == "cost_model.discrete") {
      variant.problem.cost_model.discrete = true;
    } else {
      variant.problem.cost_model.alpha = 0.25;
    }
    const FleetPlan plan =
        FleetPlanner(FleetProblemOn(owner.box.get()), FleetConfig{})
            .Plan({base, base, variant});
    ASSERT_TRUE(plan.status.ok()) << field << ": " << plan.status.ToString();
    EXPECT_EQ(plan.pool_builds, 2) << field;
    EXPECT_NE(plan.tenants[1].pool_id, plan.tenants[2].pool_id) << field;
  }
}

TEST(FleetPlannerTest, PermutedRosterGivesThePermutedPlan) {
  // The plan is decided on pool counts, and pool ids, validation and every
  // per-pool quantity follow the tenants' problems, not their positions.
  // At every point of the coupled sweep a permuted roster gets pools that
  // match the original's one to one — matched by their first tenant's
  // problem — with as many tenants on each candidate, and the same
  // counters and prices. Which tenant of a pool takes which candidate
  // follows roster order, so the reported totals sum the same addends in
  // another order: each equals its own tenant-order recount bit for bit,
  // and the two agree to 1e-12.
  constexpr int kTenants = 32;
  const FleetFixture fx(kTenants);
  const SolveResult free_run = fx.Run();
  ASSERT_TRUE(free_run.status.ok()) << free_run.status.ToString();

  std::vector<size_t> perm(kTenants);  // tenant i moves to perm[i]
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = (i * 13 + 5) % kTenants;
  std::vector<FleetTenant> permuted(kTenants);
  for (size_t i = 0; i < perm.size(); ++i) {
    permuted[perm[i]] = fx.fleet.tenants[i];
  }

  for (const auto& [what, constraints] : CoupledSweep(free_run.fleet)) {
    FleetConfig config;
    config.constraints = constraints;
    const FleetPlanner planner(fx.FleetProblem(), config);
    const FleetPlan a = planner.Plan(fx.fleet.tenants);
    const FleetPlan b = planner.Plan(permuted);
    ASSERT_TRUE(a.status.ok()) << what << ": " << a.status.ToString();
    ASSERT_TRUE(b.status.ok()) << what << ": " << b.status.ToString();
    EXPECT_EQ(a.pool_builds, b.pool_builds) << what;
    EXPECT_EQ(a.pool_cache_hits, b.pool_cache_hits) << what;
    EXPECT_EQ(a.layouts_evaluated, b.layouts_evaluated) << what;
    EXPECT_EQ(a.price_iterations_run, b.price_iterations_run) << what;
    EXPECT_EQ(a.exchange_moves, b.exchange_moves) << what;
    EXPECT_EQ(a.improve_moves, b.improve_moves) << what;
    EXPECT_EQ(Bits(a.budget_price), Bits(b.budget_price)) << what;
    EXPECT_EQ(Bits(a.capacity_price), Bits(b.capacity_price)) << what;

    // Pool x of `a` is the pool of its first tenant's problem in `b`.
    std::vector<int> pool_map(static_cast<size_t>(a.pool_builds), -1);
    for (size_t i = 0; i < perm.size(); ++i) {
      int& mapped = pool_map[static_cast<size_t>(a.tenants[i].pool_id)];
      if (mapped < 0) mapped = b.tenants[perm[i]].pool_id;
      EXPECT_EQ(mapped, b.tenants[perm[i]].pool_id)
          << what << " tenant " << i;
    }
    std::map<std::pair<int, int>, int> counts_a;
    std::map<std::pair<int, int>, int> counts_b;
    for (const FleetTenantChoice& t : a.tenants) {
      ++counts_a[{pool_map[static_cast<size_t>(t.pool_id)], t.candidate}];
    }
    for (const FleetTenantChoice& t : b.tenants) {
      ++counts_b[{t.pool_id, t.candidate}];
    }
    EXPECT_EQ(counts_a, counts_b) << what;
    ExpectTenantOrderTotals(a, fx.fleet.tenants, what);
    ExpectTenantOrderTotals(b, permuted, what);
    ExpectNearTotals(a, b, what);
  }
}

TEST(FleetPlannerTest, UnreachableCapsGiveTheUnconstrainedPlan) {
  // A cap no selection can reach is inactive and never quantized: an
  // infinite or 1e300 budget and infinite or 1e300 class capacities plan
  // exactly like no constraint at all.
  const FleetFixture fx(24);
  const SolveResult free_run = fx.Run();
  ASSERT_TRUE(free_run.status.ok()) << free_run.status.ToString();
  const size_t m = free_run.fleet.used_gb.size();
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::pair<std::string, FleetConstraints>> cases(5);
  cases[0].first = "budget +inf";
  cases[0].second.budget_cents_per_hour = kInf;
  cases[1].first = "budget 1e300";
  cases[1].second.budget_cents_per_hour = 1e300;
  cases[2].first = "capacity +inf";
  cases[2].second.capacity_gb.assign(m, kInf);
  cases[3].first = "capacity 1e300";
  cases[3].second.capacity_gb.assign(m, 1e300);
  cases[4].first = "budget 1e300, capacity +inf";
  cases[4].second.budget_cents_per_hour = 1e300;
  cases[4].second.capacity_gb.assign(m, kInf);
  for (const auto& [what, constraints] : cases) {
    FleetConfig config;
    config.constraints = constraints;
    const FleetPlan plan =
        FleetPlanner(fx.FleetProblem(), config).Plan(fx.fleet.tenants);
    ASSERT_TRUE(plan.status.ok()) << what << ": " << plan.status.ToString();
    ExpectSamePlan(free_run.fleet, plan, what);
  }
}

TEST(FleetPlannerTest, NoSingleTenantMoveImprovesACoupledPlan) {
  // The improvement pass stops only where no single tenant move lowers
  // Σ TOC and keeps the fleet feasible. Checked by brute force on the
  // reported totals of every plan of the coupled sweep: each tenant against
  // every feasible layout of its own problem, scored as the pool build
  // scores it. A pool drops only dominated layouts, and a helpful move to
  // one of those makes the move to its dominator helpful too, so the
  // layout space covers the pool.
  constexpr int kTenants = 32;
  const FleetFixture fx(kTenants);
  const SolveResult free_run = fx.Run();
  ASSERT_TRUE(free_run.status.ok()) << free_run.status.ToString();
  const int m = fx.fleet.box->NumClasses();

  struct Row {
    double toc;
    double cost;
    std::vector<double> space;
  };
  std::map<int, std::vector<Row>> rows_of_pool;
  for (size_t i = 0; i < fx.fleet.tenants.size(); ++i) {
    const int pool = free_run.fleet.tenants[i].pool_id;
    if (rows_of_pool.count(pool) != 0) continue;
    DotProblem p = fx.fleet.tenants[i].problem;
    p.options.num_threads = 1;
    const DotOptimizer optimizer(p);
    const int n = p.schema->NumObjects();
    std::vector<int> placement(static_cast<size_t>(n), 0);
    std::vector<Row>& rows = rows_of_pool[pool];
    for (long long k = 0; k < LayoutSpaceSize(m, n); ++k) {
      const CandidateEval eval = optimizer.EvaluateQuick(placement);
      if (eval.feasible) {
        rows.push_back({eval.toc, eval.cost_cents_per_hour,
                        SpaceByClass(*p.schema, placement,
                                     static_cast<size_t>(m))});
      }
      for (int o = n - 1; o >= 0; --o) {
        if (++placement[static_cast<size_t>(o)] < m) break;
        placement[static_cast<size_t>(o)] = 0;
      }
    }
  }

  int plans = 0;
  for (const auto& [what, constraints] : CoupledSweep(free_run.fleet)) {
    FleetConfig config;
    config.constraints = constraints;
    const FleetPlan plan =
        FleetPlanner(fx.FleetProblem(), config).Plan(fx.fleet.tenants);
    if (!plan.status.ok()) continue;
    ++plans;
    auto fits = [&](double cost, const std::vector<double>& used) {
      if (constraints.budget_cents_per_hour > 0.0 &&
          cost > constraints.budget_cents_per_hour * (1.0 + 1e-9)) {
        return false;
      }
      for (size_t j = 0; j < constraints.capacity_gb.size(); ++j) {
        if (used[j] > constraints.capacity_gb[j] * (1.0 + 1e-9)) return false;
      }
      return true;
    };
    for (size_t i = 0; i < plan.tenants.size(); ++i) {
      const FleetTenantChoice& t = plan.tenants[i];
      const std::vector<double> space =
          SpaceByClass(*fx.fleet.tenants[i].problem.schema, t.placement,
                       static_cast<size_t>(m));
      for (const Row& row : rows_of_pool[t.pool_id]) {
        if (row.toc >= t.toc_cents_per_task) continue;
        std::vector<double> used = plan.used_gb;
        for (size_t j = 0; j < used.size(); ++j) {
          used[j] += row.space[j] - space[j];
        }
        EXPECT_FALSE(fits(plan.total_cost_cents_per_hour -
                              t.cost_cents_per_hour + row.cost,
                          used))
            << what << ": tenant " << i << " can move to a layout of TOC "
            << row.toc << " from " << t.toc_cents_per_task;
      }
    }
  }
  EXPECT_EQ(plans, 20);
}

/// Forwards to a wrapped model and counts the reads the roster pass makes
/// of a tenant's workload: schema() (ValidateProblem) and name() (the pool
/// key).
class ReadCountingWorkload : public WorkloadModel {
 public:
  explicit ReadCountingWorkload(const WorkloadModel* inner) : inner_(inner) {}

  const std::string& name() const override {
    ++reads_;
    return inner_->name();
  }
  const Schema* schema() const override {
    ++reads_;
    return inner_->schema();
  }
  const BoxConfig* box() const override { return inner_->box(); }
  double concurrency() const override { return inner_->concurrency(); }
  SlaKind sla_kind() const override { return inner_->sla_kind(); }
  PerfEstimate EstimateWithIoScale(const std::vector<int>& placement,
                                   const std::vector<double>& io_scale,
                                   bool need_io_by_object) const override {
    return inner_->EstimateWithIoScale(placement, io_scale,
                                       need_io_by_object);
  }
  std::unique_ptr<FastScorer> MakeFastScorer(
      const std::vector<double>& io_scale,
      const std::vector<double>& query_caps_ms, double min_tpmc,
      double sla_tolerance) const override {
    return inner_->MakeFastScorer(io_scale, query_caps_ms, min_tpmc,
                                  sla_tolerance);
  }
  bool PlansArePlacementInvariant() const override {
    return inner_->PlansArePlacementInvariant();
  }
  void RederiveFromUnitTimes(PerfEstimate* est) const override {
    inner_->RederiveFromUnitTimes(est);
  }

  long long reads() const { return reads_; }
  void Reset() { reads_ = 0; }

 private:
  const WorkloadModel* inner_;
  mutable long long reads_ = 0;
};

TEST(FleetPlannerTest, RosterWorkReadsEachDistinctProblemOnce) {
  // The roster pass validates and keys each distinct tenant problem once,
  // so a plan reads the tenants' workloads as often for 8,000 tenants as
  // for 8 over the same 8 problems (one thread: the counter is plain).
  const SyntheticFleet owner = MakeSyntheticFleet(64, 7);
  std::vector<std::unique_ptr<ReadCountingWorkload>> models;
  std::vector<DotProblem> problems;
  for (const FleetTenant& t : owner.tenants) {
    bool seen = false;
    for (const DotProblem& p : problems) seen |= p.schema == t.problem.schema;
    if (seen) continue;
    models.push_back(
        std::make_unique<ReadCountingWorkload>(t.problem.workload));
    problems.push_back(t.problem);
    problems.back().workload = models.back().get();
  }
  ASSERT_EQ(problems.size(), 8u);
  const FleetPlanner planner(FleetProblemOn(owner.box.get()), FleetConfig{});
  auto reads = [&](size_t num_tenants) {
    std::vector<FleetTenant> roster;
    for (size_t i = 0; i < num_tenants; ++i) {
      roster.push_back({"t" + std::to_string(i), problems[i % 8]});
    }
    for (const auto& model : models) model->Reset();
    const FleetPlan plan = planner.Plan(roster);
    EXPECT_TRUE(plan.status.ok()) << plan.status.ToString();
    EXPECT_EQ(plan.pool_builds, 8);
    long long total = 0;
    for (const auto& model : models) total += model->reads();
    return total;
  };
  const long long few = reads(8);
  EXPECT_GT(few, 0);
  EXPECT_EQ(reads(8000), few);
}

/// One plan pinned to the bit: its totals and shadow prices as IEEE-754
/// bit patterns, its iteration and move counters, and every tenant's
/// candidate.
struct PinnedPlan {
  uint64_t total_toc;
  uint64_t total_cost;
  std::vector<uint64_t> used_gb;
  uint64_t budget_price;
  std::vector<uint64_t> capacity_price;
  int price_iterations_run;
  int exchange_moves;
  int improve_moves;
  std::vector<int> candidates;

  bool operator==(const PinnedPlan& o) const {
    return total_toc == o.total_toc && total_cost == o.total_cost &&
           used_gb == o.used_gb && budget_price == o.budget_price &&
           capacity_price == o.capacity_price &&
           price_iterations_run == o.price_iterations_run &&
           exchange_moves == o.exchange_moves &&
           improve_moves == o.improve_moves && candidates == o.candidates;
  }
};

PinnedPlan Pin(const FleetPlan& plan) {
  PinnedPlan p;
  p.total_toc = Bits(plan.total_toc_cents_per_task);
  p.total_cost = Bits(plan.total_cost_cents_per_hour);
  for (double v : plan.used_gb) p.used_gb.push_back(Bits(v));
  p.budget_price = Bits(plan.budget_price);
  for (double v : plan.capacity_price) p.capacity_price.push_back(Bits(v));
  p.price_iterations_run = plan.price_iterations_run;
  p.exchange_moves = plan.exchange_moves;
  p.improve_moves = plan.improve_moves;
  for (const FleetTenantChoice& t : plan.tenants) {
    p.candidates.push_back(t.candidate);
  }
  return p;
}

/// `p` as the initializer the expected table below is written in.
std::string ToInitializer(const PinnedPlan& p) {
  auto hex = [](uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return std::string(buf);
  };
  auto list = [](const auto& values, const auto& show) {
    std::string out = "{";
    for (size_t i = 0; i < values.size(); ++i) {
      out += (i ? ", " : "") + show(values[i]);
    }
    return out + "}";
  };
  auto num = [](int v) { return std::to_string(v); };
  return "{" + hex(p.total_toc) + ", " + hex(p.total_cost) + ", " +
         list(p.used_gb, hex) + ", " + hex(p.budget_price) + ", " +
         list(p.capacity_price, hex) + ", " + num(p.price_iterations_run) +
         ", " + num(p.exchange_moves) + ", " + num(p.improve_moves) + ", " +
         list(p.candidates, num) + "}";
}

TEST(FleetPlannerTest, CoupledPlansArePinnedToTheBit) {
  // A mixed-class fleet (OLTP, DSS and HTAP pools) under a budget sweep
  // from near its cost floor to near its unconstrained cost, and under a
  // capacity choke, at every thread count. The sweep revisits selections
  // across price iterations and keeps a best price-feasible selection
  // older than the last iterate. Candidates are pinned per tenant, so the
  // table also pins the emit rule: within a pool, candidates ascend in
  // roster order.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  constexpr int kTenants = 32;
  const FleetFixture free_fx(kTenants);
  const SolveResult free_run = free_fx.Run();
  ASSERT_TRUE(free_run.status.ok()) << free_run.status.ToString();
  const FleetPlan& free_plan = free_run.fleet;
  const double floor = free_plan.min_cost_cents_per_hour;
  const double top = free_plan.total_cost_cents_per_hour;

  struct Case {
    std::string name;
    FleetConstraints constraints;
    int price_iterations;
  };
  std::vector<Case> cases;
  auto budget = [&](double f, int iterations) {
    Case c{"budget " + std::to_string(f) + " iterations " +
               std::to_string(iterations),
           {}, iterations};
    c.constraints.budget_cents_per_hour = floor + f * (top - floor);
    cases.push_back(c);
  };
  for (double f : {0.1, 0.3, 0.5, 0.7, 0.9}) budget(f, 48);
  // A short price loop ends away from its best price-feasible iterate,
  // which then beats the repaired last one.
  for (double f : {0.4, 0.5}) budget(f, 8);
  Case choke{"capacity choke", {}, 48};
  choke.constraints.capacity_gb = CapacityChoke(free_plan);
  cases.push_back(choke);

  // In `cases` order; the sweep's value at each thread count.
  const std::vector<PinnedPlan> expected = {
    {0x3ed5214384e8c477, 0x400d2dd37cb801d5,
      {0x4052c1ab17a3e931, 0x401d49756f9e792c, 0x4034e857f760e4d3},
      0x3e7fdbdfea936ff4,
      {0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
      48, 0, 4,
      {9, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9, 9, 0, 9, 0, 0, 0, 0, 0, 9, 0, 0, 9,
       9, 9, 0, 0, 0, 0, 0, 9}},
    {0x3ed51ea77a4fac2d, 0x400ddd48c520a31f,
      {0x4052c1ab17a3e931, 0x401b26062e0bf678, 0x40357133c7c58581},
      0x3e5116817c47dabd,
      {0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
      48, 0, 0,
      {9, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 9,
       9, 0, 0, 0, 0, 0, 0, 9}},
    {0x3ed51bfc72fbd039, 0x400f3c25912350c9,
      {0x4052c1ab17a3e931, 0x4016df52a0678c6b, 0x403682e0ab2ea005},
      0x3e4ee94eef79be6e,
      {0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
      48, 0, 2,
      {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 9,
       9, 0, 0, 0, 0, 0, 0, 9}},
    {0x3ed51aa6ef51e241, 0x400feb93f724a79e,
      {0x4052c1ab17a3e931, 0x4014bbf8d9955764, 0x40370bb71ce32d47},
      0x3e503c29cd4476fa,
      {0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
      48, 3, 0,
      {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9,
       9, 0, 0, 0, 0, 0, 0, 9}},
    {0x3ed517fbe7fe064d, 0x4010a5386193aaa4,
      {0x4052c1ab17a3e931, 0x401075454bf0ed59, 0x40381d64004c47c9},
      0x3e4e58658929aa26,
      {0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
      48, 1, 0,
      {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
       0, 0, 0, 0, 0, 0, 0, 9}},
    {0x3ed51d51f6a5be33, 0x400e8cb72b21f9f4,
      {0x4052c1ab17a3e931, 0x401902ac6739c171, 0x4035fa0a397a12c3},
      0x3e58d685b5387c5e,
      {0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
      8, 0, 1,
      {0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 9,
       9, 0, 0, 0, 0, 0, 0, 9}},
    {0x3ed51bfc72fbd039, 0x400f3c25912350c9,
      {0x4052c1ab17a3e931, 0x4016df52a0678c6b, 0x403682e0ab2ea005},
      0x3e5125e65487dd0a,
      {0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
      8, 0, 2,
      {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 9,
       9, 0, 0, 0, 0, 0, 0, 9}},
    {0x3ed8f6d9e4870ef5, 0x402173db95fcd2a2,
      {0x4042bfa938baa345, 0x402e99181da39116, 0x40493ac198c88c66},
      0x0000000000000000,
      {0x3e636e46b9b9f090, 0x3e7dfe160ef454aa, 0x0000000000000000},
      48, 33, 12,
      {3, 8, 11, 2, 2, 3, 0, 0, 7, 0, 0, 7, 8, 0, 8, 0, 3, 23, 0, 0, 8, 0, 0,
       8, 8, 8, 0, 23, 0, 0, 0, 8}},
  };
  ASSERT_EQ(expected.size(), cases.size());
  for (size_t k = 0; k < cases.size(); ++k) {
    for (int threads : {1, 4, hw}) {
      FleetFixture fx(kTenants);
      fx.spec.config.constraints = cases[k].constraints;
      fx.spec.config.price_iterations = cases[k].price_iterations;
      const SolveResult r = fx.Run(threads);
      const std::string what =
          cases[k].name + " threads=" + std::to_string(threads);
      ASSERT_TRUE(r.status.ok()) << what << ": " << r.status.ToString();
      const PinnedPlan actual = Pin(r.fleet);
      EXPECT_TRUE(actual == expected[k])
          << what << "\n  expected " << ToInitializer(expected[k])
          << "\n  actual   " << ToInitializer(actual);
    }
  }
}

}  // namespace
}  // namespace dot
