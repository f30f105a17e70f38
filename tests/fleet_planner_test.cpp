// Pins the fleet planner's contracts (fleet/fleet_planner.h): a fleet of
// one with no coupling reproduces dot::Solve bit for bit; plans are always
// feasible and never lose to the independent fair-share baseline; pools
// are shared per schema fingerprint (memory O(distinct schemas), measured
// by the cache-instance counters); and everything — placements, totals,
// counters — is bit-identical at 1, 4, and hardware threads.

#include "fleet/fleet_planner.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/schema.h"
#include "dot/solve.h"
#include "fleet/synthetic_fleet.h"
#include "io/io_types.h"
#include "storage/standard_catalog.h"
#include "workload/oltp_workload.h"

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

/// Plans must agree bit for bit. `same_pools = false` leaves out what
/// legitimately differs between a shared and an unshared run of the same
/// fleet: pool ids and the pool-build counters.
void ExpectSamePlan(const FleetPlan& a, const FleetPlan& b,
                    const std::string& what, bool same_pools = true) {
  ASSERT_EQ(a.status.ok(), b.status.ok()) << what;
  ASSERT_EQ(a.tenants.size(), b.tenants.size()) << what;
  for (size_t i = 0; i < a.tenants.size(); ++i) {
    EXPECT_EQ(a.tenants[i].placement, b.tenants[i].placement)
        << what << " tenant " << i;
    EXPECT_EQ(a.tenants[i].toc_cents_per_task, b.tenants[i].toc_cents_per_task)
        << what << " tenant " << i;
    if (same_pools) {
      EXPECT_EQ(a.tenants[i].pool_id, b.tenants[i].pool_id)
          << what << " tenant " << i;
    }
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
  if (same_pools) {
    EXPECT_EQ(a.pool_builds, b.pool_builds) << what;
    EXPECT_EQ(a.pool_cache_hits, b.pool_cache_hits) << what;
    EXPECT_EQ(a.layouts_evaluated, b.layouts_evaluated) << what;
  }
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
FleetTenant MakeOrderVariantTenant(SyntheticFleet* fleet,
                                   const std::string& name,
                                   bool orders_first) {
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
      "order-lookup", schema.get(), fleet->box.get(),
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
  // Twins score every move identically, so the repair order's tie-break
  // — (key, tenant, candidate) — decides alone which twins move: under a
  // budget a few moves can meet, exactly a prefix of the roster leaves its
  // solo optimum.
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
  EXPECT_GT(plan.exchange_moves, 0);
  ExpectFeasible(plan, config.constraints);
  size_t moved = 0;
  while (moved < twins.size() && plan.tenants[moved].candidate != 0) {
    ++moved;
  }
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, twins.size());
  for (size_t i = moved; i < twins.size(); ++i) {
    EXPECT_EQ(plan.tenants[i].candidate, 0) << "tenant " << i;
  }
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
  // done, never the plan: with share_pools off every tenant is its own
  // pool. Three coupled cases, each pinned to the path it exercises by
  // its move counts, at 1, 4 and hardware threads.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  constexpr int kTenants = 24;
  const FleetFixture free_fx(kTenants);
  const SolveResult free_run = free_fx.Run();
  ASSERT_TRUE(free_run.status.ok()) << free_run.status.ToString();
  const FleetPlan& free_plan = free_run.fleet;
  const double floor = free_plan.min_cost_cents_per_hour;
  const double top = free_plan.total_cost_cents_per_hour;

  // Capacity choke: halve the heaviest class, leave the others roomy.
  std::vector<double> choke(free_plan.used_gb.size());
  size_t heavy = 0;
  for (size_t j = 0; j < choke.size(); ++j) {
    choke[j] = free_plan.used_gb[j] * 4.0 + 1.0;
    if (free_plan.used_gb[j] > free_plan.used_gb[heavy]) heavy = j;
  }
  choke[heavy] = free_plan.used_gb[heavy] * 0.5;

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
  cases[2].constraints.capacity_gb = choke;

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
        if (!have_reference) {
          reference = r.fleet;
          have_reference = true;
          EXPECT_EQ(reference.exchange_moves > 0, c.expect_exchange) << what;
          EXPECT_EQ(reference.improve_moves > 0, c.expect_improve) << what;
          ExpectFeasible(reference, c.constraints);
        } else {
          ExpectSamePlan(reference, r.fleet, what, /*same_pools=*/false);
        }
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

}  // namespace
}  // namespace dot
