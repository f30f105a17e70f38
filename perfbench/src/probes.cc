#include "probes.h"

#include <algorithm>
#include <cstdint>
#include <memory>

#include "advisor/advisor.h"
#include "common/simd_dispatch.h"
#include "dot/sla.h"
#include "dot/solve.h"
#include "exec/executor.h"
#include "exec/trace_replay.h"
#include "storage/migration.h"
#include "storage/pricing.h"
#include "workload/profiler.h"

namespace perfbench {
namespace {

constexpr int kReps = 5;

/// Median over kReps batches of the mean ns per call; `call(k)` runs call
/// number k of a batch of `calls` calls.
template <typename Fn>
double NsPerCall(Tracer* tracer, const char* span, int calls, Fn&& call) {
  std::vector<double> per_call;
  for (int rep = 0; rep < kReps; ++rep) {
    Tracer::Scope scope(tracer, span);
    const Clock::time_point start = Clock::now();
    for (int k = 0; k < calls; ++k) call(k);
    per_call.push_back(MsSince(start) * 1e6 / calls);
  }
  return Median(per_call);
}

/// The winner and every single-object neighbour of it.
std::vector<std::vector<int>> Neighbourhood(const std::vector<int>& winner,
                                            int num_classes) {
  std::vector<std::vector<int>> out = {winner};
  for (size_t o = 0; o < winner.size(); ++o) {
    for (int c = 0; c < num_classes; ++c) {
      if (c == winner[o]) continue;
      std::vector<int> p = winner;
      p[o] = c;
      out.push_back(std::move(p));
    }
  }
  return out;
}

/// Adds `value` to the running mean kept under `name`.
struct MeanOverProblems {
  std::map<std::string, std::pair<double, int>> acc;
  void Add(const std::string& name, double value) {
    auto& [sum, n] = acc[name];
    sum += value;
    ++n;
  }
  void WriteTo(LayerValues* out) const {
    for (const auto& [name, sn] : acc) (*out)[name] = sn.first / sn.second;
  }
};

void ProbeCalls(const ProbeProblem& pp, Tracer* tracer,
                MeanOverProblems* acc) {
  const dot::DotProblem& problem = pp.problem;
  const dot::Schema& schema = *problem.schema;
  const dot::BoxConfig& box = *problem.box;
  const dot::WorkloadModel& model = *problem.workload;
  const int n = schema.NumObjects();
  const int m = box.NumClasses();
  const std::vector<std::vector<int>> placements =
      Neighbourhood(pp.winner, m);
  const int np = static_cast<int>(placements.size());

  acc->Add("catalog.fingerprint_us",
           NsPerCall(tracer, "catalog.Schema::Fingerprint", 200, [&](int) {
             volatile uint64_t fp = schema.Fingerprint();
             (void)fp;
           }) / 1e3);

  const dot::PerfTargets targets = dot::MakePerfTargets(
      model, box, n, problem.relative_sla, problem.io_scale_hint);
  auto build = [&] {
    return model.MakeFastScorer(problem.io_scale_hint, targets.query_caps_ms,
                                targets.min_tpmc, dot::kDefaultSlaTolerance);
  };
  acc->Add("workload.scorer_build_us",
           NsPerCall(tracer, "workload.MakeFastScorer", 4,
                     [&](int) { build(); }) /
               1e3);
  const std::unique_ptr<dot::FastScorer> scorer = build();
  if (scorer != nullptr) {
    acc->Add("workload.score_ns",
             NsPerCall(tracer, "workload.FastScorer::Score", 20 * np,
                       [&](int k) { scorer->Score(placements[k % np]); }));
    std::unique_ptr<dot::FastScorer::BoundCursor> cursor =
        scorer->MakeBoundCursor();
    if (cursor != nullptr) {
      // One probe = Assign + Optimistic + Unassign of one object; a batch
      // walks every placement down to full depth and back.
      const double ns_per_placement = NsPerCall(
          tracer, "workload.BoundCursor", 2 * np, [&](int k) {
            const std::vector<int>& p = placements[k % np];
            cursor->Reset();
            for (int o = 0; o < n; ++o) {
              cursor->Assign(o, p);
              cursor->Optimistic(p);
            }
            for (int o = n - 1; o >= 0; --o) cursor->Unassign(o);
          });
      acc->Add("workload.bound_probe_ns", ns_per_placement / n);
    }
  }

  acc->Add("workload.estimate_us",
           NsPerCall(tracer, "workload.WorkloadModel::Estimate", np,
                     [&](int k) { model.Estimate(placements[k]); }) /
               1e3);
  const dot::Profiler profiler(&schema, &box);
  acc->Add("workload.profile_ms",
           NsPerCall(tracer, "workload.Profiler::ProfileWorkload", 1,
                     [&](int) {
                       profiler.ProfileWorkload(
                           model, [&](const std::vector<int>& p) {
                             return model.Estimate(p);
                           });
                     }) /
               1e6);

  if (pp.dss != nullptr) {
    const std::vector<dot::QuerySpec>& templates = pp.dss->templates();
    const int nt = static_cast<int>(templates.size());
    acc->Add("query.plan_query_us",
             NsPerCall(tracer, "query.Planner::PlanQuery", nt,
                       [&](int k) {
                         pp.dss->planner().PlanQuery(templates[k], pp.winner);
                       }) /
                 1e3);
  }

  {
    // A plane the size of the workload's per-(unit, object) table.
    const int units = static_cast<int>(
        model.Estimate(pp.winner).unit_times_ms.size());
    const int rows = std::max(8, units * n);
    std::vector<double> plane(static_cast<size_t>(rows) * m);
    for (size_t i = 0; i < plane.size(); ++i) {
      plane[i] = 1.0 + static_cast<double>((i * 2654435761u) % 1000) / 7.0;
    }
    std::vector<int> objects(static_cast<size_t>(rows));
    for (int i = 0; i < rows; ++i) objects[static_cast<size_t>(i)] = i % n;
    const dot::KernelOps& kernels = dot::Kernels();
    acc->Add("common.kernel_plane_gather_sum_ns",
             NsPerCall(tracer, "common.KernelOps::plane_gather_sum", 2000,
                       [&](int) {
                         volatile double s = kernels.plane_gather_sum(
                             plane.data(), objects.data(), pp.winner.data(),
                             rows);
                         (void)s;
                       }));
  }

  {
    std::vector<std::vector<double>> used(static_cast<size_t>(np),
                                          std::vector<double>(m, 0.0));
    for (int k = 0; k < np; ++k) {
      for (int o = 0; o < n; ++o) {
        used[k][static_cast<size_t>(placements[k][o])] +=
            schema.sizes_gb()[static_cast<size_t>(o)];
      }
    }
    acc->Add("storage.layout_cost_ns",
             NsPerCall(tracer, "storage.LayoutCostCentsPerHour", 50 * np,
                       [&](int k) {
                         volatile double c = dot::LayoutCostCentsPerHour(
                             box, used[k % np].data(), m,
                             problem.cost_model);
                         (void)c;
                       }));
  }

  {
    dot::MigrationCostModel migration;
    migration.transfer_price_cents_per_gb = 1.0;
    migration.downtime_price_cents_per_hour = 500.0;
    acc->Add("storage.migration_estimate_us",
             NsPerCall(tracer, "storage.EstimateMigration+GateMigration",
                       np, [&](int k) {
                         dot::EstimateMigration(migration, box, schema,
                                                pp.winner, placements[k]);
                         dot::GateMigration(migration, box, schema,
                                            pp.winner, placements[k], 1.0,
                                            0.9, 24.0, 1e-3);
                       }) /
                 1e3);
  }

  {
    dot::ExecutorConfig config;
    config.seed = 7;
    dot::Executor executor(&model, config);
    acc->Add("exec.executor_run_us",
             NsPerCall(tracer, "exec.Executor::Run", np,
                       [&](int k) { executor.Run(placements[k]); }) /
                 1e3);
  }
}

void ProbeEngines(const ProbeProblem& pp, Tracer* tracer, LayerValues* out) {
  const dot::DotProblem& problem = pp.problem;
  {
    dot::SolveResult r;
    std::vector<double> ms;
    for (int rep = 0; rep < 3; ++rep) {
      Tracer::Scope scope(tracer, "dot.Solve");
      r = dot::Solve(problem);
      ms.push_back(r.provenance.solve_ms);
    }
    const dot::SolveProvenance& pv = r.provenance;
    const double solve_ms = Median(ms);
    (*out)["dot.solve_ms"] = solve_ms;
    (*out)["dot.nodes_per_s"] =
        static_cast<double>(pv.nodes_expanded + pv.nodes_pruned_bound +
                            pv.nodes_pruned_infeasible +
                            pv.layouts_evaluated) /
        (solve_ms / 1e3);
  }

  // Four windows of the problem's own workload.
  dot::WorkloadTraceSpec spec;
  for (int w = 0; w < 4; ++w) {
    dot::TraceWindow window;
    window.workload = problem.workload;
    spec.windows.push_back(window);
  }
  dot::WorkloadTrace trace;
  {
    std::vector<double> ms;
    for (int rep = 0; rep < 3; ++rep) {
      Tracer::Scope scope(tracer, "exec.RecordTraceWithExecutor");
      const Clock::time_point start = Clock::now();
      trace = dot::RecordTraceWithExecutor(spec, pp.winner);
      ms.push_back(MsSince(start));
    }
    (*out)["exec.trace_record_ms"] = Median(ms);
  }
  {
    std::vector<double> ms;
    const std::vector<std::vector<int>> track(spec.windows.size(),
                                              pp.winner);
    for (int rep = 0; rep < 3; ++rep) {
      Tracer::Scope scope(tracer, "exec.ReplayLayoutTrack");
      const Clock::time_point start = Clock::now();
      dot::ReplayLayoutTrack(spec, track, *problem.schema, *problem.box,
                             dot::TrackReplayConfig{});
      ms.push_back(MsSince(start));
    }
    (*out)["exec.replay_ms"] = Median(ms);
  }
  {
    // Every second window re-plans; the others are quiet. Problems that
    // carry profiles re-plan with the heuristic: a warm exact re-plan of a
    // full TPC-H instance can take seconds, too long for a probe.
    dot::AdvisorConfig config;
    config.replan_interval_windows = 2;
    if (problem.profiles != nullptr) {
      config.replan_method = dot::SolveMethod::kDotHeuristic;
    }
    dot::Advisor advisor(problem, config);
    {
      Tracer::Scope scope(tracer, "advisor.Advisor::Init");
      advisor.Init();
    }
    std::vector<double> quiet_us, replan_ms;
    for (size_t w = 0; w < trace.events.size(); ++w) {
      SliceFeed feed(&trace, w, w + 1);
      Tracer::Scope scope(tracer, "advisor.Advisor::Run");
      const Clock::time_point start = Clock::now();
      const dot::AdvisorRun run = advisor.Run(&feed);
      const double ms = MsSince(start);
      if (!run.decisions.empty() && run.decisions[0].replanned) {
        replan_ms.push_back(ms);
      } else {
        quiet_us.push_back(ms * 1e3);
      }
    }
    (*out)["advisor.quiet_window_us"] = Median(quiet_us);
    (*out)["advisor.replan_window_ms"] = Median(replan_ms);
  }
  {
    // Two tenants of the problem share one pool: one build, one hit.
    std::vector<dot::FleetTenant> tenants(2);
    for (dot::FleetTenant& t : tenants) t.problem = problem;
    dot::FleetSpec fleet;
    fleet.tenants = &tenants;
    fleet.config.pool_mode = dot::FleetPoolMode::kSearch;
    dot::SolveSpec spec_fleet;
    spec_fleet.method = dot::SolveMethod::kFleet;
    spec_fleet.fleet = &fleet;
    std::vector<double> ms;
    for (int rep = 0; rep < 3; ++rep) {
      Tracer::Scope scope(tracer, "dot.Solve");
      ms.push_back(dot::Solve(problem, spec_fleet).fleet.plan_ms);
    }
    (*out)["fleet.plan_ms"] = Median(ms);
  }
}

}  // namespace

void DotCounters::Add(const dot::DotResult& r) {
  layouts += r.layouts_evaluated;
  expanded += r.nodes_expanded;
  pruned_bound += r.nodes_pruned_bound;
  pruned_infeasible += r.nodes_pruned_infeasible;
  cache_hits += r.plan_cache_hits;
  cache_misses += r.plan_cache_misses;
  arena_peak = std::max(arena_peak, r.arena_bytes_peak);
  solve_ms += r.optimize_ms;
}

void DotCounters::WriteTo(LayerValues* out) const {
  if (ops == 0) return;
  const double n = ops;
  (*out)["dot.solve_ms"] = solve_ms / n;
  (*out)["dot.layouts_evaluated"] = layouts / n;
  (*out)["dot.nodes_expanded"] = expanded / n;
  (*out)["dot.nodes_pruned_bound"] = pruned_bound / n;
  (*out)["dot.nodes_pruned_infeasible"] = pruned_infeasible / n;
  (*out)["dot.arena_bytes_peak"] = static_cast<double>(arena_peak);
  if (expanded > 0) {
    (*out)["dot.nodes_per_s"] =
        static_cast<double>(expanded + pruned_bound + pruned_infeasible +
                            layouts) /
        (solve_ms / 1e3);
  }
  if (cache_hits + cache_misses > 0) {
    (*out)["dot.plan_cache_hit_ratio"] =
        static_cast<double>(cache_hits) /
        static_cast<double>(cache_hits + cache_misses);
  }
}

void RunProbes(const std::vector<ProbeProblem>& problems, Tracer* tracer,
               LayerValues* out) {
  MeanOverProblems acc;
  for (const ProbeProblem& pp : problems) ProbeCalls(pp, tracer, &acc);
  acc.WriteTo(out);
  (*out)["common.kernel_level"] =
      static_cast<double>(dot::ActiveKernelLevel());
  if (!problems.empty()) ProbeEngines(problems[0], tracer, out);
}

}  // namespace perfbench
