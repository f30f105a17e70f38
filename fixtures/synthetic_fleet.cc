#include "fixtures/synthetic_fleet.h"

#include <string>
#include <utility>

#include "catalog/tpcc_schema.h"
#include "common/check.h"
#include "common/rng.h"
#include "dot/problem.h"
#include "io/io_types.h"
#include "query/query_spec.h"
#include "storage/standard_catalog.h"
#include "workload/dss_workload.h"
#include "workload/oltp_workload.h"
#include "workload/tpch_queries.h"

namespace dot {

namespace {

/// One tenant class: the schema/workload pair every tenant of the class
/// points at, plus the class's SLA.
struct TenantClass {
  const Schema* schema = nullptr;
  const WorkloadModel* workload = nullptr;
  double relative_sla = 0.3;
  std::string label;
};

/// A two-table banking-style mix: lookups and balance updates over
/// accounts, append-mostly history. 4 objects => 81 layouts on Box 2.
void AddMiniOltpClass(SyntheticFleet* fleet, std::vector<TenantClass>* out,
                      const std::string& label, double account_rows,
                      double concurrency, double relative_sla) {
  auto schema = std::make_unique<Schema>();
  const int accounts = schema->AddTable("accounts", account_rows, 120.0);
  const int pk_accounts = schema->AddIndex("pk_accounts", accounts, 8.0);
  const int history = schema->AddTable("history", account_rows * 0.5, 80.0);
  schema->AddIndex("pk_history", history, 8.0);

  const size_t n = static_cast<size_t>(schema->NumObjects());
  TxnType update;
  update.name = "UpdateBalance";
  update.weight = 0.6;
  update.io.assign(n, IoVector{});
  update.io[static_cast<size_t>(pk_accounts)][IoType::kRandRead] = 2.0;
  update.io[static_cast<size_t>(accounts)][IoType::kRandRead] = 1.0;
  update.io[static_cast<size_t>(accounts)][IoType::kRandWrite] = 1.0;
  update.io[static_cast<size_t>(history)][IoType::kSeqWrite] = 1.0;
  update.cpu_ms = 0.15;
  update.overhead_ms = 0.8;

  TxnType lookup;
  lookup.name = "Lookup";
  lookup.weight = 0.4;
  lookup.io.assign(n, IoVector{});
  lookup.io[static_cast<size_t>(pk_accounts)][IoType::kRandRead] = 2.0;
  lookup.io[static_cast<size_t>(accounts)][IoType::kRandRead] = 1.0;
  lookup.cpu_ms = 0.05;
  lookup.overhead_ms = 0.5;

  auto model = std::make_unique<OltpWorkloadModel>(
      "mini-oltp-" + label, schema.get(), fleet->box.get(),
      std::vector<TxnType>{update, lookup}, concurrency,
      3600.0 * 1000.0);

  TenantClass cls;
  cls.schema = schema.get();
  cls.workload = model.get();
  cls.relative_sla = relative_sla;
  cls.label = "oltp-" + label;
  out->push_back(cls);
  fleet->schemas.push_back(std::move(schema));
  fleet->models.push_back(std::move(model));
}

/// A seeded DSS instance in the RandomInstance style: `num_tables` tables
/// with primary-key indices, one sargable probe and one scan template per
/// table. 2*num_tables objects, so num_tables <= 3 stays enumerable.
void AddDssClass(SyntheticFleet* fleet, std::vector<TenantClass>* out,
                 const std::string& label, int num_tables, uint64_t seed,
                 double relative_sla) {
  Rng rng(seed);
  auto schema = std::make_unique<Schema>();
  std::vector<QuerySpec> templates;
  for (int t = 0; t < num_tables; ++t) {
    const std::string table = "t" + std::to_string(t);
    const double rows = 1e5 * (1.0 + static_cast<double>(rng.NextBounded(20)));
    const double row_bytes =
        60.0 + 20.0 * static_cast<double>(rng.NextBounded(6));
    const int table_id = schema->AddTable(table, rows, row_bytes);
    schema->AddIndex(table + "_pk", table_id, 8.0);

    QuerySpec probe;
    probe.name = table + "_probe";
    RelationAccess pa;
    pa.table = table;
    pa.selectivity = rng.NextUniform(0.0005, 0.01);
    pa.index_sargable = true;
    probe.relations.push_back(pa);
    templates.push_back(probe);

    QuerySpec scan;
    scan.name = table + "_scan";
    RelationAccess sa;
    sa.table = table;
    sa.selectivity = rng.NextUniform(0.2, 1.0);
    sa.index_sargable = false;
    scan.relations.push_back(sa);
    scan.has_sort = rng.NextBounded(2) == 1;
    templates.push_back(scan);
  }
  const int num_templates = static_cast<int>(templates.size());
  auto model = std::make_unique<DssWorkloadModel>(
      "dss-" + label, schema.get(), fleet->box.get(), std::move(templates),
      RepeatSequence(num_templates, 2), PlannerConfig{});

  TenantClass cls;
  cls.schema = schema.get();
  cls.workload = model.get();
  cls.relative_sla = relative_sla;
  cls.label = "dss-" + label;
  out->push_back(cls);
  fleet->schemas.push_back(std::move(schema));
  fleet->models.push_back(std::move(model));
}

/// A CH-benCH HTAP tenant over a 4-object TPC-C subset (stock and
/// order_line with their primary keys): 81 layouts. Distinct warehouse
/// counts keep the two HTAP classes' schema fingerprints distinct, which
/// the pool-sharing contract requires (same workload name over equal
/// fingerprints must mean identical workloads).
void AddHtapClass(SyntheticFleet* fleet, std::vector<TenantClass>* out,
                  const std::string& label, int warehouses,
                  double analytics_streams, double relative_sla) {
  auto schema = std::make_unique<Schema>(MakeTpccSchema(warehouses).Subset(
      {"stock", "pk_stock", "order_line", "pk_order_line"}));
  HtapConfig config;
  config.analytics_streams = analytics_streams;
  HtapBundle bundle =
      MakeChbenchHtapWorkload(schema.get(), fleet->box.get(), config);

  TenantClass cls;
  cls.schema = schema.get();
  cls.workload = bundle.htap.get();
  cls.relative_sla = relative_sla;
  cls.label = "htap-" + label;
  out->push_back(cls);
  fleet->schemas.push_back(std::move(schema));
  fleet->htap.push_back(std::move(bundle));
}

}  // namespace

SyntheticFleet MakeSyntheticFleet(int num_tenants, uint64_t seed) {
  DOT_CHECK(num_tenants >= 1);
  SyntheticFleet fleet;
  fleet.box = std::make_unique<BoxConfig>(MakeBox2());

  // The class roster. Sizes, concurrencies and SLAs are fixed per class
  // (only the DSS shapes draw from the seed), so two fleets with the same
  // seed are identical and classes differ pairwise in schema fingerprint.
  std::vector<TenantClass> classes;
  AddMiniOltpClass(&fleet, &classes, "s", 2e6, 80.0, 0.25);
  AddMiniOltpClass(&fleet, &classes, "m", 8e6, 160.0, 0.25);
  AddMiniOltpClass(&fleet, &classes, "l", 2e7, 240.0, 0.2);
  AddDssClass(&fleet, &classes, "a", 2, seed * 2 + 1, 0.4);
  AddDssClass(&fleet, &classes, "b", 3, seed * 3 + 2, 0.35);
  AddDssClass(&fleet, &classes, "c", 3, seed * 5 + 3, 0.3);
  AddHtapClass(&fleet, &classes, "a", 100, 1.0, 0.2);
  AddHtapClass(&fleet, &classes, "b", 200, 2.0, 0.15);
  fleet.num_classes = static_cast<int>(classes.size());

  // Deterministic class assignment: one Rng drawn once per tenant.
  Rng assign(seed);
  fleet.tenants.reserve(static_cast<size_t>(num_tenants));
  for (int i = 0; i < num_tenants; ++i) {
    const TenantClass& cls = classes[static_cast<size_t>(
        assign.NextBounded(static_cast<uint64_t>(classes.size())))];
    FleetTenant tenant;
    tenant.name = "t" + std::to_string(i) + "-" + cls.label;
    tenant.problem.schema = cls.schema;
    tenant.problem.box = fleet.box.get();
    tenant.problem.workload = cls.workload;
    tenant.problem.relative_sla = cls.relative_sla;
    fleet.tenants.push_back(std::move(tenant));
  }
  return fleet;
}

}  // namespace dot
