// Migration-aware multi-epoch re-provisioning: the migrate-vs-stay
// frontier on a diurnal HTAP schedule.
//
// One shared CH-benCH object set on Box 2 runs a 24-hour cycle whose
// analytics:transactions ratio ρ swings from OLTP-heavy daytime to an
// analytics-heavy night batch — exactly the drift regime bench_htap_mix
// demonstrates flips the optimal layout. Three strategies compete:
//
//   * frozen     — solve epoch 0 once, keep that layout all day;
//   * oblivious  — re-optimize every epoch, pretending data movement is
//                  free (then pay the actual migration bill);
//   * planned    — the epoch DP behind dot::Solve(kEpochPlan), which
//                  weighs each re-layout against the migration it costs.
//
// Sweeping the migration price scale traces the frontier: at zero the
// planned strategy coincides with oblivious (migrate freely), at
// prohibitive prices it converges to frozen (never move), and in between
// it migrates only where an epoch's TOC saving pays for the move. The
// planned total can never exceed either baseline — both baselines are
// sequences over the planner's own candidate pool — and the exit code
// enforces exactly that (plus a strict win over each baseline somewhere
// on the sweep, so the frontier is demonstrably non-trivial).
//
// The planned schedule at the default price is then replayed as a layout
// track through the simulated Executor (ReplayLayoutTrack,
// exec/trace_replay.h) to validate the estimated objective against a noisy
// "measured" run.
//
// Exit status: 0 when every sweep point satisfies planned <= frozen and
// planned <= oblivious AND each baseline is strictly beaten somewhere,
// 1 otherwise.

#include <cmath>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/str_util.h"
#include "common/table_printer.h"
#include "dot/dot.h"

namespace {

using namespace dot;

std::string PlacementString(const std::vector<int>& placement) {
  std::string s;
  for (int c : placement) s += static_cast<char>('0' + c);
  return s;
}

struct DiurnalEpoch {
  std::string label;
  double rho;
  double hours;
};

}  // namespace

int main() {
  Schema full = MakeTpccSchema(300);
  Schema schema = full.Subset({"stock", "pk_stock", "order_line",
                               "pk_order_line", "customer", "pk_customer",
                               "orders", "pk_orders"});
  BoxConfig box = MakeBox2();

  // The diurnal cycle: ρ values straddle the layout flip bench_htap_mix
  // demonstrates (OLTP-favoring optima at low ρ, mixed/DSS-favoring at
  // ρ = 32-64).
  const std::vector<DiurnalEpoch> cycle = {
      {"day (transactions)", 0.1, 10.0},
      {"evening (reporting)", 8.0, 4.0},
      {"night (batch analytics)", 64.0, 8.0},
      {"early day (transactions)", 0.1, 2.0},
  };

  // One HtapBundle per distinct ρ; epochs share models.
  std::map<double, HtapBundle> bundles;
  for (const DiurnalEpoch& e : cycle) {
    if (bundles.count(e.rho)) continue;
    HtapConfig config;
    config.analytics_streams = e.rho;
    bundles.emplace(e.rho, MakeChbenchHtapWorkload(&schema, &box, config,
                                                   TpccConfig{},
                                                   /*analytics_reps=*/1));
  }
  WorkloadTraceSpec schedule;
  for (const DiurnalEpoch& e : cycle) {
    schedule.Add(bundles.at(e.rho).htap.get(), e.hours, e.label);
  }

  // Find a relative SLA every epoch can meet (the Figure 2 relaxation
  // loop, applied schedule-wide so all strategies compete under one SLA).
  double relative_sla = 0.35;
  std::vector<std::vector<int>> solo(cycle.size());
  for (;;) {
    bool all_ok = true;
    for (size_t e = 0; e < cycle.size(); ++e) {
      DotProblem p;
      p.schema = &schema;
      p.box = &box;
      p.workload = schedule.windows[e].workload;
      p.relative_sla = relative_sla;
      p.options.num_threads = 0;
      const SolveResult r = Solve(p);  // kExact default
      if (!r.status.ok()) {
        all_ok = false;
        break;
      }
      solo[e] = r.placement;
    }
    if (all_ok) break;
    relative_sla *= 0.9;
    if (relative_sla < 0.02) {
      std::cerr << "no feasible SLA found for the diurnal schedule\n";
      return 1;
    }
  }

  std::cout << "=== Diurnal re-provisioning: " << schema.NumObjects()
            << " shared CH-benCH objects on " << box.name << ", "
            << schedule.TotalHours() << " h cycle, relative SLA "
            << FormatSig(relative_sla, 2) << " ===\n";
  std::cout << "epoch solo optima (exact BnB, migration-blind):\n";
  for (size_t e = 0; e < cycle.size(); ++e) {
    std::cout << "  " << cycle[e].label << " (rho=" << cycle[e].rho
              << ", " << cycle[e].hours
              << "h): " << PlacementString(solo[e]) << "\n";
  }
  std::cout << "\n";

  // The box starts the day on yesterday's daytime layout.
  const std::vector<int> current = solo[0];
  const std::vector<std::vector<int>> frozen_seq(cycle.size(), solo[0]);

  // Migration price sweep: transfer cents/GB and a priced copy window,
  // scaled together.
  const MigrationCostModel base_migration = [] {
    MigrationCostModel m;
    m.transfer_price_cents_per_gb = 1.0;
    m.downtime_price_cents_per_hour = 500.0;
    return m;
  }();
  // kDefaultScale is the point whose plan gets the detailed table and the
  // replay below; it must be a member of `scales`.
  constexpr double kDefaultScale = 0.03;
  const std::vector<double> scales = {0.0, 0.003, kDefaultScale, 0.3, 3.0,
                                      30.0};

  TablePrinter frontier({"migration price x", "migrations", "GB moved",
                         "planned", "frozen", "oblivious",
                         "saved vs frozen", "saved vs oblivious"});
  bool all_dominated = true;
  bool beat_frozen_somewhere = false;
  bool beat_oblivious_somewhere = false;
  ReprovisionPlan default_plan;
  MigrationCostModel default_migration;
  for (double scale : scales) {
    DotProblem epoch_problem;
    epoch_problem.schema = &schema;
    epoch_problem.box = &box;
    epoch_problem.workload = schedule.windows[0].workload;
    epoch_problem.relative_sla = relative_sla;
    epoch_problem.options.num_threads = 0;
    SolveSpec plan_spec;
    plan_spec.method = SolveMethod::kEpochPlan;
    plan_spec.schedule = &schedule;
    plan_spec.current_layout = current;
    plan_spec.epoch.migration = base_migration;
    plan_spec.epoch.migration.transfer_price_cents_per_gb *= scale;
    plan_spec.epoch.migration.downtime_price_cents_per_hour *= scale;
    const MigrationCostModel& migration = plan_spec.epoch.migration;
    // The plan goes through the facade; a planner over the same problem
    // and config prices the baselines (EvaluateSequence, the documented
    // baseline-pricing entry point).
    const SolveResult solved = Solve(epoch_problem, plan_spec);
    const ReprovisionPlan& plan = solved.plan;
    if (!solved.status.ok()) {
      std::cerr << "plan failed at scale " << scale << ": "
                << solved.status.ToString() << "\n";
      return 1;
    }
    const ReprovisionPlanner planner(epoch_problem, plan_spec.epoch);
    const ReprovisionPlan frozen =
        planner.EvaluateSequence(schedule, frozen_seq, current);
    const ReprovisionPlan oblivious =
        planner.EvaluateSequence(schedule, solo, current);
    if (!frozen.status.ok() || !oblivious.status.ok()) {
      std::cerr << "baseline evaluation failed at scale " << scale << "\n";
      return 1;
    }

    all_dominated = all_dominated &&
                    plan.total_objective <= frozen.total_objective &&
                    plan.total_objective <= oblivious.total_objective;
    beat_frozen_somewhere =
        beat_frozen_somewhere ||
        plan.total_objective < frozen.total_objective * (1 - 1e-12);
    beat_oblivious_somewhere =
        beat_oblivious_somewhere ||
        plan.total_objective < oblivious.total_objective * (1 - 1e-12);
    if (scale == kDefaultScale) {
      default_plan = plan;
      default_migration = migration;
    }

    double gb_moved = 0.0;
    const std::vector<int>* prev = &current;
    for (const EpochPlanStep& step : plan.steps) {
      gb_moved += EstimateMigration(migration, box, schema, *prev,
                                    step.placement)
                      .gb_moved;
      prev = &step.placement;
    }

    auto pct_saved = [](double planned, double baseline) {
      return baseline > 0
                 ? StrPrintf("%.2f%%", 100.0 * (baseline - planned) / baseline)
                 : std::string("-");
    };
    frontier.AddRow({StrPrintf("%.3f", scale),
                     StrPrintf("%d", plan.num_migrations),
                     StrPrintf("%.0f", gb_moved),
                     bench::Sci(plan.total_objective),
                     bench::Sci(frozen.total_objective),
                     bench::Sci(oblivious.total_objective),
                     pct_saved(plan.total_objective, frozen.total_objective),
                     pct_saved(plan.total_objective,
                               oblivious.total_objective)});
  }
  std::cout << "objective: sum of epoch TOC x duration (cents-hour/task) "
               "+ weighted migration cents\n";
  frontier.Print(std::cout);

  // The planned day at the default migration price, epoch by epoch.
  std::cout << StrPrintf("\nplanned schedule at migration price x%g:\n",
                         kDefaultScale);
  if (default_plan.steps.empty()) {
    std::cerr << "kDefaultScale is not a member of the sweep\n";
    return 1;
  }
  TablePrinter day({"epoch", "rho", "hours", "layout", "moved objs",
                    "migration (cents)", "TOC (cents/1k tasks)"});
  for (size_t e = 0; e < default_plan.steps.size(); ++e) {
    const EpochPlanStep& step = default_plan.steps[e];
    day.AddRow({cycle[e].label, StrPrintf("%.1f", cycle[e].rho),
                StrPrintf("%.0f", cycle[e].hours),
                PlacementString(step.placement),
                StrPrintf("%d", step.objects_moved),
                StrPrintf("%.1f", step.migration_cents),
                StrPrintf("%.3f", step.toc_cents_per_task * 1e3)});
  }
  day.Print(std::cout);

  // Validate the estimate by simulation: replay the planned day, from the
  // same current layout and under the plan's migration pricing, through
  // the Executor with 2% run-to-run noise.
  TrackReplayConfig replay_config;
  replay_config.migration = default_migration;
  replay_config.migration_weight = default_plan.resolved_migration_weight;
  replay_config.exec_noise_cv = 0.02;
  replay_config.seed = 42;
  std::vector<std::vector<int>> track;
  for (const EpochPlanStep& step : default_plan.steps) {
    track.push_back(step.placement);
  }
  const TrackReplayResult replay = ReplayLayoutTrack(
      schedule, track, schema, box, replay_config, current);
  if (!replay.status.ok()) {
    std::cerr << "replay failed: " << replay.status.ToString() << "\n";
    return 1;
  }
  const double drift =
      100.0 *
      std::abs(replay.total_objective - default_plan.total_objective) /
      default_plan.total_objective;
  std::cout << "\nsimulated replay of the planned day (2% noise): "
            << bench::Sci(replay.total_objective) << " vs estimated "
            << bench::Sci(default_plan.total_objective) << " ("
            << StrPrintf("%.2f", drift) << "% drift)\n";

  if (!all_dominated) {
    std::cout << "\nFAIL: a sweep point beat the migration-aware plan.\n";
    return 1;
  }
  if (!beat_frozen_somewhere || !beat_oblivious_somewhere) {
    std::cout << "\nFAIL: the frontier is trivial (some baseline was never "
                 "strictly beaten), so migration-aware planning bought "
                 "nothing on this schedule.\n";
    return 1;
  }
  std::cout << "\nThe migration-aware plan never loses to either baseline "
               "and strictly beats each somewhere on the price sweep: "
               "re-provisioning is worth exactly as much as the migration "
               "price lets it be.\n";
  return 0;
}
