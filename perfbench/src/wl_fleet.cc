// fleet-budget: one op is Solve(kFleet) on a seeded 10,000-tenant roster
// under a budget strictly between the fleet's cost floor and its
// unconstrained cost. The price loop (subgradient iterations x 10,000
// argmins), the repair pass and the per-tenant pool keys do the work, over
// the largest working set of any workload; the eight tenant classes share
// pools, so each solve builds eight.
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/tpcc_schema.h"
#include "dot/optimizer.h"
#include "dot/solve.h"
#include "io/io_types.h"
#include "probes.h"
#include "query/query_spec.h"
#include "storage/standard_catalog.h"
#include "workload.h"
#include "workload/dss_workload.h"
#include "workload/htap_workload.h"
#include "workload/oltp_workload.h"
#include "workload/tpch_queries.h"

namespace perfbench {
namespace {

constexpr int kTenants = 10000;
constexpr int kBudgetsPerPass = 24;

/// One tenant class: the schema and model every tenant of the class
/// points at, and the class's relative SLA.
struct TenantClass {
  std::unique_ptr<dot::Schema> schema;
  std::unique_ptr<dot::WorkloadModel> model;  ///< OLTP or DSS owner
  dot::HtapBundle htap;                        ///< HTAP owner
  const dot::WorkloadModel* workload = nullptr;
  const dot::DssWorkloadModel* dss = nullptr;  ///< analytic side, if any
  double relative_sla = 0.3;
};

/// Accounts with balance updates and lookups, append-mostly history:
/// 4 objects.
TenantClass MiniOltpClass(const dot::BoxConfig* box, const std::string& name,
                          double account_rows, double concurrency,
                          double relative_sla) {
  TenantClass cls;
  cls.schema = std::make_unique<dot::Schema>();
  dot::Schema& s = *cls.schema;
  const int accounts = s.AddTable("accounts", account_rows, 120.0);
  const int pk_accounts = s.AddIndex("pk_accounts", accounts, 8.0);
  const int history = s.AddTable("history", account_rows * 0.5, 80.0);
  s.AddIndex("pk_history", history, 8.0);
  const size_t n = static_cast<size_t>(s.NumObjects());
  dot::TxnType update;
  update.name = "UpdateBalance";
  update.weight = 0.6;
  update.io.assign(n, dot::IoVector{});
  update.io[pk_accounts][dot::IoType::kRandRead] = 2.0;
  update.io[accounts][dot::IoType::kRandRead] = 1.0;
  update.io[accounts][dot::IoType::kRandWrite] = 1.0;
  update.io[history][dot::IoType::kSeqWrite] = 1.0;
  update.cpu_ms = 0.15;
  update.overhead_ms = 0.8;
  dot::TxnType lookup;
  lookup.name = "Lookup";
  lookup.weight = 0.4;
  lookup.io.assign(n, dot::IoVector{});
  lookup.io[pk_accounts][dot::IoType::kRandRead] = 2.0;
  lookup.io[accounts][dot::IoType::kRandRead] = 1.0;
  lookup.cpu_ms = 0.05;
  lookup.overhead_ms = 0.5;
  auto model = std::make_unique<dot::OltpWorkloadModel>(
      name, cls.schema.get(), box,
      std::vector<dot::TxnType>{update, lookup}, concurrency,
      3600.0 * 1000.0);
  cls.workload = model.get();
  cls.model = std::move(model);
  cls.relative_sla = relative_sla;
  return cls;
}

/// `num_tables` tables with primary keys, one sargable probe and one scan
/// template per table: 2 * num_tables objects. `shape` fixes the class's
/// tables and templates; `jitter` scales each table's row count by +-2%
/// per benchmark seed.
TenantClass DssClass(const dot::BoxConfig* box, const std::string& name,
                     int num_tables, uint64_t shape, SeedRng& jitter,
                     double relative_sla) {
  SeedRng rng(shape);
  TenantClass cls;
  cls.schema = std::make_unique<dot::Schema>();
  std::vector<dot::QuerySpec> templates;
  for (int t = 0; t < num_tables; ++t) {
    const std::string table = "t" + std::to_string(t);
    const double rows = 1e5 * rng.Uniform(1, 20) * jitter.Uniform(0.98, 1.02);
    const int id = cls.schema->AddTable(table, rows, rng.Uniform(60, 160));
    cls.schema->AddIndex(table + "_pk", id, 8.0);
    dot::QuerySpec probe;
    probe.name = table + "_probe";
    dot::RelationAccess pa;
    pa.table = table;
    pa.selectivity = rng.Uniform(0.0005, 0.01);
    pa.index_sargable = true;
    probe.relations.push_back(pa);
    templates.push_back(probe);
    dot::QuerySpec scan;
    scan.name = table + "_scan";
    dot::RelationAccess sa;
    sa.table = table;
    sa.selectivity = rng.Uniform(0.2, 1.0);
    scan.relations.push_back(sa);
    scan.has_sort = rng.Uniform() < 0.5;
    templates.push_back(scan);
  }
  const int num_templates = static_cast<int>(templates.size());
  auto model = std::make_unique<dot::DssWorkloadModel>(
      name, cls.schema.get(), box, std::move(templates),
      dot::RepeatSequence(num_templates, 2), dot::PlannerConfig{});
  cls.workload = model.get();
  cls.dss = model.get();
  cls.model = std::move(model);
  cls.relative_sla = relative_sla;
  return cls;
}

/// CH-benCH over stock and order_line with their keys: 4 objects. The
/// warehouse count keeps the two HTAP classes' schema fingerprints apart,
/// as pool sharing requires.
TenantClass HtapClass(const dot::BoxConfig* box, int warehouses,
                      double analytics_streams, double relative_sla) {
  TenantClass cls;
  cls.schema = std::make_unique<dot::Schema>(
      dot::MakeTpccSchema(warehouses).Subset(
          {"stock", "pk_stock", "order_line", "pk_order_line"}));
  dot::HtapConfig config;
  config.analytics_streams = analytics_streams;
  cls.htap = dot::MakeChbenchHtapWorkload(cls.schema.get(), box, config);
  cls.workload = cls.htap.htap.get();
  cls.dss = cls.htap.dss.get();
  cls.relative_sla = relative_sla;
  return cls;
}

class FleetBudget : public Workload {
 public:
  explicit FleetBudget(uint64_t seed) : seed_(seed) {}

  void SetUp(Tracer* tracer) override {
    SeedRng rng(seed_);
    tenants_.clear();
    tenant_class_.clear();
    classes_.clear();
    box_ = std::make_unique<dot::BoxConfig>(
        Traced(tracer, "storage.MakeBox", [] { return dot::MakeBox2(); }));
    const dot::BoxConfig* box = box_.get();
    Traced(tracer, "workload.TenantClasses", [&] {
      // Sizes jitter by +-2% per seed; the class shapes stay fixed, so
      // every seed solves the same kind of fleet.
      auto jitter = [&](double v) { return v * rng.Uniform(0.98, 1.02); };
      classes_.push_back(MiniOltpClass(box, "oltp-s", jitter(2e6), 80, 0.25));
      classes_.push_back(MiniOltpClass(box, "oltp-m", jitter(8e6), 160, 0.25));
      classes_.push_back(MiniOltpClass(box, "oltp-l", jitter(2e7), 240, 0.2));
      classes_.push_back(DssClass(box, "dss-a", 2, 101, rng, 0.4));
      classes_.push_back(DssClass(box, "dss-b", 3, 202, rng, 0.35));
      classes_.push_back(DssClass(box, "dss-c", 3, 303, rng, 0.3));
      classes_.push_back(HtapClass(box, 100, 1.0, 0.2));
      classes_.push_back(HtapClass(box, 200, 2.0, 0.15));
    });
    // Equal class shares in seeded order, so every seed carries the same
    // class mix.
    const std::vector<int> order = rng.Permutation(kTenants);
    for (int i = 0; i < kTenants; ++i) {
      const int c = order[i] % static_cast<int>(classes_.size());
      const TenantClass& cls = classes_[c];
      dot::FleetTenant tenant;
      tenant.name = "t" + std::to_string(i);
      tenant.problem.schema = cls.schema.get();
      tenant.problem.box = box;
      tenant.problem.workload = cls.workload;
      tenant.problem.relative_sla = cls.relative_sla;
      tenants_.push_back(std::move(tenant));
      tenant_class_.push_back(c);
    }
  }

  void Prepare(Tracer* tracer) override {
    // The budget range: the cost floor and the unconstrained cost.
    const dot::SolveResult free_run =
        Traced(tracer, "dot.Solve", [&] { return Plan(0.0); });
    const double floor = free_run.fleet.min_cost_cents_per_hour;
    const double top = free_run.fleet.total_cost_cents_per_hour;
    SeedRng rng(seed_ ^ 0xF1EE7ull);
    budgets_.clear();
    for (double f : rng.Stratified(kBudgetsPerPass, 0.05, 0.95)) {
      budgets_.push_back(floor + f * (top - floor));
    }
    results_.assign(budgets_.size(), {});
  }

  int PassLength() const override { return kBudgetsPerPass; }
  double NominalOpMs() const override { return 140.0; }
  int WarmupOps() const override { return 2; }

  void RunOp(int i, Tracer* tracer) override {
    results_[i] =
        Traced(tracer, "dot.Solve", [&] { return Plan(budgets_[i]); });
    if (tracer != nullptr) {
      plan_ms_.push_back(results_[i].fleet.plan_ms);
      solve_ms_.push_back(results_[i].provenance.solve_ms);
    }
  }

  std::vector<bool> CheckPass(Tracer* tracer) override {
    std::vector<bool> ok(results_.size());
    double toc_sum = 0.0;
    long long met = 0;
    long long judged = 0;
    counts_.clear();
    for (size_t i = 0; i < results_.size(); ++i) {
      const dot::SolveResult& r = results_[i];
      const dot::FleetPlan& plan = r.fleet;
      if (!r.status.ok() || !r.has_fleet ||
          plan.tenants.size() != tenants_.size()) {
        continue;
      }
      // Totals recomputed in tenant order must match bit for bit.
      double toc = 0.0;
      double cost = 0.0;
      bool tenants_ok = true;
      for (size_t t = 0; t < plan.tenants.size(); ++t) {
        const dot::FleetTenantChoice& choice = plan.tenants[t];
        toc += choice.toc_cents_per_task;
        cost += choice.cost_cents_per_hour;
        const Verdict& v = Judge(tenant_class_[t], choice.placement, tracer);
        tenants_ok = tenants_ok && v.toc == choice.toc_cents_per_task;
        met += v.sla_ok ? 1 : 0;
        ++judged;
      }
      ok[i] = tenants_ok && toc == plan.total_toc_cents_per_task &&
              cost == plan.total_cost_cents_per_hour &&
              plan.total_cost_cents_per_hour <= budgets_[i] * (1 + 1e-9) &&
              (!plan.independent_feasible ||
               plan.total_toc_cents_per_task <=
                   plan.independent_toc_cents_per_task);
      toc_sum += plan.total_toc_cents_per_task / tenants_.size();
      counts_["fleet.price_iterations"] += plan.price_iterations_run;
      counts_["fleet.exchange_moves"] += plan.exchange_moves;
      counts_["fleet.improve_moves"] += plan.improve_moves;
      counts_["fleet.pool_builds"] += plan.pool_builds;
      counts_["fleet.pool_cache_hits"] += plan.pool_cache_hits;
      counts_["fleet.layouts_evaluated"] += plan.layouts_evaluated;
    }
    for (auto& [name, v] : counts_) v /= results_.size();
    quality_.toc_cents_per_task = toc_sum / results_.size();
    quality_.sla_met_share =
        judged > 0 ? static_cast<double>(met) / judged : 0.0;
    return ok;
  }

  uint64_t OpDigest(int i) const override {
    const dot::FleetPlan& plan = results_[i].fleet;
    Fingerprint fp;
    for (const dot::FleetTenantChoice& c : plan.tenants) fp.Add(c.placement);
    fp.Add(plan.total_toc_cents_per_task);
    fp.Add(plan.total_cost_cents_per_hour);
    fp.Add(static_cast<long long>(plan.price_iterations_run));
    fp.Add(static_cast<long long>(plan.exchange_moves));
    fp.Add(static_cast<long long>(plan.improve_moves));
    return fp.value();
  }

  Quality quality() const override { return quality_; }

  void LayerMetrics(Tracer* tracer, LayerValues* out) override {
    // Every class with the layout its first tenant got in the first op.
    std::vector<ProbeProblem> probes;
    for (size_t c = 0; c < classes_.size(); ++c) {
      for (size_t t = 0; t < tenants_.size(); ++t) {
        if (tenant_class_[t] != static_cast<int>(c)) continue;
        dot::DotProblem problem = tenants_[t].problem;
        problem.options.num_threads = 1;
        probes.push_back({problem, results_[0].fleet.tenants[t].placement,
                          classes_[c].dss});
        break;
      }
    }
    RunProbes(probes, tracer, out);
    for (const auto& [name, v] : counts_) (*out)[name] = v;
    (*out)["dot.layouts_evaluated"] = counts_["fleet.layouts_evaluated"];
    (*out)["fleet.plan_ms"] = Median(plan_ms_);
    (*out)["dot.solve_ms"] = Median(solve_ms_);
  }

 private:
  struct Verdict {
    double toc = 0.0;
    bool sla_ok = false;
  };

  /// The full estimator's verdict on a tenant layout (memoized: tenants of
  /// one class share their model, so the verdict depends on class and
  /// placement only).
  const Verdict& Judge(int cls, const std::vector<int>& placement,
                       Tracer* tracer) {
    auto key = std::make_pair(cls, placement);
    auto it = verdicts_.find(key);
    if (it != verdicts_.end()) return it->second;
    dot::DotProblem full;
    full.schema = classes_[cls].schema.get();
    full.box = box_.get();
    full.workload = classes_[cls].workload;
    full.relative_sla = classes_[cls].relative_sla;
    full.options.use_fast_eval = false;
    Verdict v;
    dot::PerfEstimate estimate;
    v.toc = Traced(tracer, "dot.DotOptimizer::EstimateToc", [&] {
      return dot::DotOptimizer(full).EstimateToc(placement, &estimate, nullptr,
                                                 &v.sla_ok);
    });
    return verdicts_.emplace(std::move(key), v).first->second;
  }

  /// One fleet solve under `budget` (0 = unconstrained).
  dot::SolveResult Plan(double budget) const {
    dot::FleetSpec fleet;
    fleet.tenants = &tenants_;
    fleet.config.constraints.budget_cents_per_hour = budget;
    dot::DotProblem problem;
    problem.box = box_.get();
    problem.options.num_threads = 1;
    dot::SolveSpec spec;
    spec.method = dot::SolveMethod::kFleet;
    spec.fleet = &fleet;
    return dot::Solve(problem, spec);
  }

  uint64_t seed_;
  std::unique_ptr<dot::BoxConfig> box_;
  std::vector<TenantClass> classes_;
  std::vector<dot::FleetTenant> tenants_;
  std::vector<int> tenant_class_;
  std::vector<double> budgets_;
  std::vector<dot::SolveResult> results_;
  std::map<std::pair<int, std::vector<int>>, Verdict> verdicts_;
  std::map<std::string, double> counts_;
  Quality quality_;
  std::vector<double> plan_ms_, solve_ms_;
};

}  // namespace

std::unique_ptr<Workload> MakeFleetBudget(uint64_t seed) {
  return std::make_unique<FleetBudget>(seed);
}

}  // namespace perfbench
