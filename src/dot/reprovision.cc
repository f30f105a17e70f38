#include "dot/reprovision.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/clock.h"
#include "common/thread_pool.h"
#include "dot/bnb_search.h"
#include "dot/candidate_evaluator.h"
#include "dot/layout.h"
#include "dot/optimizer.h"

namespace dot {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One DotOptimizer per window of `schedule`, in window order: `problem`
/// with the window's workload and profiles, so an epoch derives its
/// targets exactly as a single-shot run would, and its solo search and its
/// row of the pool × epoch matrix share one scorer. A window's io_scale is
/// ground truth for the recorder and the replays; planning ignores it, as
/// it ignores the spec's noise and seed.
std::vector<std::unique_ptr<DotOptimizer>> MakeEpochOptimizers(
    const DotProblem& problem, const WorkloadTraceSpec& schedule) {
  std::vector<std::unique_ptr<DotOptimizer>> optimizers;
  optimizers.reserve(schedule.windows.size());
  DotProblem p = problem;
  for (const TraceWindow& window : schedule.windows) {
    p.workload = window.workload;
    p.profiles = window.profiles;
    optimizers.push_back(std::make_unique<DotOptimizer>(p));
  }
  return optimizers;
}

/// Resolves ReprovisionConfig::migration_weight: kAutoMigrationWeight
/// becomes 1 / (the duration-weighted mean of the epochs' best-case
/// tasks/hour) — identical arithmetic wherever the weight is resolved, so
/// Plan and EvaluateSequence always price migration at the same rate.
double ResolveMigrationWeight(
    double configured, const WorkloadTraceSpec& schedule,
    const std::vector<std::unique_ptr<DotOptimizer>>& optimizers) {
  if (configured != kAutoMigrationWeight) return configured;
  double task_hours = 0.0;
  for (size_t e = 0; e < schedule.windows.size(); ++e) {
    task_hours += schedule.windows[e].duration_hours *
                  optimizers[e]->targets().best_case.tasks_per_hour;
  }
  return task_hours > 0.0 ? schedule.TotalHours() / task_hours : 0.0;
}

/// The (toc, placement-lex) final tie-break, extended by the DP value in
/// front: lower accumulated objective wins, exact ties fall back to the
/// epoch TOC and then to the lexicographically lowest placement — the
/// BetterCandidate order, so the one-epoch special case selects exactly
/// the layout the single-shot searches would.
bool BetterTerminal(double obj_a, double toc_a,
                    const std::vector<int>& placement_a, double obj_b,
                    double toc_b, const std::vector<int>& placement_b) {
  if (obj_a != obj_b) return obj_a < obj_b;
  if (toc_a != toc_b) return toc_a < toc_b;
  return placement_a < placement_b;
}

/// The input checks Plan and EvaluateSequence share: a valid problem,
/// config and spec, window workloads built over the problem's schema, and
/// a current layout that is empty (greenfield) or a valid placement.
Status ValidateInputs(const DotProblem& problem,
                      const ReprovisionConfig& config,
                      const WorkloadTraceSpec& schedule,
                      const std::vector<int>& current_layout) {
  Status st = ValidateEpochProblem(problem);
  if (st.ok()) st = ValidateReprovisionConfig(config);
  if (st.ok()) st = ValidateTraceSpec(schedule);
  const int n = st.ok() ? problem.schema->NumObjects() : 0;
  for (size_t w = 0; st.ok() && w < schedule.windows.size(); ++w) {
    const Schema* window_schema = schedule.windows[w].workload->schema();
    if (window_schema == nullptr || window_schema->NumObjects() != n) {
      st = Status::InvalidArgument("window " + std::to_string(w) +
                                   "'s workload schema differs in size");
    }
  }
  if (!st.ok() || current_layout.empty()) return st;
  return ValidatePlacement(current_layout, *problem.schema, *problem.box,
                           "current layout");
}

/// Fills `plan->steps` and the running totals for a decided layout
/// sequence — the ONE implementation of the accounting contract
/// ReprovisionPlan documents. `step_placement(e)` / `step_toc(e)` supply
/// the sequence; the migration bills and the accumulation order live
/// here, so Plan and EvaluateSequence cannot drift apart by a ULP.
void AccumulateSteps(
    const WorkloadTraceSpec& schedule, const std::vector<int>& current_layout,
    double weight, const MigrationCostModel& migration, const Schema& schema,
    const BoxConfig& box,
    const std::function<const std::vector<int>&(int)>& step_placement,
    const std::function<double(int)>& step_toc, ReprovisionPlan* plan) {
  const int num_epochs = static_cast<int>(schedule.windows.size());
  plan->steps.resize(static_cast<size_t>(num_epochs));
  const std::vector<int>* previous =
      current_layout.empty() ? nullptr : &current_layout;
  for (int e = 0; e < num_epochs; ++e) {
    EpochPlanStep& step = plan->steps[static_cast<size_t>(e)];
    step.placement = step_placement(e);
    step.toc_cents_per_task = step_toc(e);
    step.epoch_objective =
        step.toc_cents_per_task *
        schedule.windows[static_cast<size_t>(e)].duration_hours;
    if (previous != nullptr) {
      const MigrationEstimate mig = EstimateMigration(
          migration, box, schema, *previous, step.placement);
      step.migration_cents = mig.cents;
      step.migration_hours = mig.hours;
      step.objects_moved = mig.objects_moved;
    }
    plan->total_objective =
        (plan->total_objective + weight * step.migration_cents) +
        step.epoch_objective;
    plan->total_migration_cents += step.migration_cents;
    plan->total_migration_hours += step.migration_hours;
    if (step.objects_moved > 0) plan->num_migrations += 1;
    previous = &step.placement;
  }
}

}  // namespace

Status ValidateMigrationWeight(double weight) {
  // NaN fails both comparisons.
  if (weight == kAutoMigrationWeight || weight >= 0.0) return Status::OK();
  return Status::InvalidArgument(
      "migration_weight must be >= 0 or kAutoMigrationWeight, got " +
      std::to_string(weight));
}

Status ValidateEpochProblem(const DotProblem& problem) {
  if (problem.schema == nullptr || problem.box == nullptr) {
    return Status::InvalidArgument("DotProblem::schema and ::box must be set");
  }
  if (problem.ensemble != nullptr) {
    return Status::InvalidArgument(
        "ensemble mode is single-shot; kEpochPlan re-derives per-epoch "
        "point problems");
  }
  Status st = ValidateRelativeSla(problem.relative_sla);
  if (!st.ok()) return st;
  return ValidateTailSla(problem.tail_sla);
}

Status ValidateReprovisionConfig(const ReprovisionConfig& config) {
  if (config.max_pool_layouts < 1) {
    return Status::InvalidArgument("max_pool_layouts must be >= 1, got " +
                                   std::to_string(config.max_pool_layouts));
  }
  return ValidateMigrationWeight(config.migration_weight);
}

SearchStats AppendSoloCandidate(
    const DotOptimizer& optimizer, EpochSearch search,
    std::vector<std::vector<int>>* pool,
    const std::vector<std::vector<int>>* warm_starts) {
  DOT_CHECK(pool != nullptr);
  const DotResult solo =
      search == EpochSearch::kDot
          ? optimizer.Walk()
          : ExactSearch(optimizer, ExactStrategy::kBranchAndBound,
                        kDefaultMaxEnumeratedLayouts, warm_starts);
  if (solo.status.ok()) {
    bool present = false;
    for (const std::vector<int>& existing : *pool) {
      if (existing == solo.placement) {
        present = true;
        break;
      }
    }
    if (!present) pool->push_back(solo.placement);
  }
  return solo;
}

ReprovisionPlanner::ReprovisionPlanner(const DotProblem& problem,
                                       ReprovisionConfig config)
    : problem_(problem), config_(std::move(config)) {
  problem_.targets_override = nullptr;
  problem_.io_scale_hint.clear();
}

ReprovisionPlan ReprovisionPlanner::Plan(
    const WorkloadTraceSpec& schedule,
    const std::vector<int>& current_layout) const {
  const double start_ms = NowMs();
  ReprovisionPlan plan;
  plan.status = ValidateInputs(problem_, config_, schedule, current_layout);
  if (!plan.status.ok()) return plan;
  const Schema& schema = *problem_.schema;
  const BoxConfig& box = *problem_.box;
  const int n = schema.NumObjects();
  const int num_epochs = static_cast<int>(schedule.windows.size());
  if (config_.search == EpochSearch::kDot && !config_.exhaustive_pool) {
    for (const TraceWindow& window : schedule.windows) {
      if (window.profiles == nullptr) {
        plan.status = Status::InvalidArgument(
            "EpochSearch::kDot needs TraceWindow::profiles for every "
            "window");
        return plan;
      }
    }
  }
  const std::vector<std::unique_ptr<DotOptimizer>> optimizers =
      MakeEpochOptimizers(problem_, schedule);

  // --- Candidate pool ---
  std::vector<std::vector<int>> pool;
  auto add_candidate = [&pool](const std::vector<int>& placement) {
    if (placement.empty()) return;
    for (const std::vector<int>& existing : pool) {
      if (existing == placement) return;
    }
    pool.push_back(placement);
  };
  if (config_.exhaustive_pool) {
    Result<std::vector<std::vector<int>>> space = EnumerateLayoutSpace(
        n, box.NumClasses(), config_.max_pool_layouts);
    if (!space.ok()) {
      plan.status = space.status();
      return plan;
    }
    pool = std::move(space).value();
  } else {
    // The stay option first, then each epoch's solo optimum in epoch
    // order — a deterministic pool that always contains the frozen-layout
    // and re-optimize-every-epoch baselines as sequences.
    add_candidate(current_layout);
    for (int e = 0; e < num_epochs; ++e) {
      plan.Add(AppendSoloCandidate(*optimizers[static_cast<size_t>(e)],
                                   config_.search, &pool));
    }
  }
  const int k_pool = static_cast<int>(pool.size());
  plan.pool_size = k_pool;

  // The DP-sized tables below; their bytes join arena_bytes_peak.
  std::vector<double> toc;
  std::vector<double> pair_migration;
  std::vector<double> dp;
  std::vector<double> next;
  std::vector<int> pred;
  std::vector<int> choice;
  auto finish = [&] {
    const long long tables = static_cast<long long>(
        (toc.size() + pair_migration.size() + dp.size() + next.size()) *
            sizeof(double) +
        (pred.size() + choice.size()) * sizeof(int));
    plan.arena_bytes_peak = std::max(plan.arena_bytes_peak, tables);
    plan.plan_ms = NowMs() - start_ms;
  };

  // --- Score every pool layout under every epoch through the epoch's
  // optimizer — the one its solo search ran on, whose quick path is
  // bit-identical to the full path the searches commit winners through.
  // The matrix is filled into distinct slots, so thread count cannot
  // change a value. Infeasible (capacity or SLA) scores are +inf.
  const size_t toc_cells =
      static_cast<size_t>(num_epochs) * static_cast<size_t>(k_pool);
  toc.assign(toc_cells, kInf);
  {
    ThreadPool threads(problem_.options.num_threads);
    threads.ParallelFor(
        0, static_cast<int64_t>(num_epochs) * k_pool, [&](int64_t flat) {
          const int e = static_cast<int>(flat / k_pool);
          const int k = static_cast<int>(flat % k_pool);
          const CandidateEval eval =
              optimizers[static_cast<size_t>(e)]->EvaluateQuick(
                  pool[static_cast<size_t>(k)]);
          if (eval.feasible) toc[static_cast<size_t>(flat)] = eval.toc;
        });
  }
  plan.layouts_evaluated += static_cast<long long>(num_epochs) * k_pool;
  auto toc_at = [&](int e, int k) {
    return toc[static_cast<size_t>(e) * static_cast<size_t>(k_pool) +
               static_cast<size_t>(k)];
  };

  // --- Resolve the migration exchange rate (see ReprovisionConfig).
  const double weight =
      ResolveMigrationWeight(config_.migration_weight, schedule, optimizers);
  plan.resolved_migration_weight = weight;

  auto weighted_migration = [&](const std::vector<int>& from,
                                const std::vector<int>& to) {
    if (from.empty() || config_.migration.IsZero() || weight == 0.0) {
      return 0.0;
    }
    return weight *
           EstimateMigration(config_.migration, box, schema, from, to)
               .cents;
  };

  // The pool-pair migration bill is epoch-independent: price each (j, k)
  // pair once instead of once per epoch transition. The table is skipped
  // when migration is free, single-epoch, or the exhaustive pool would
  // make K² large — the DP then prices transitions on the fly (same
  // function, same bits).
  const bool free_migration = config_.migration.IsZero() || weight == 0.0;
  const bool memoized = !free_migration && num_epochs > 1 &&
                        static_cast<long long>(k_pool) * k_pool <= (1 << 20);
  if (memoized) {
    pair_migration.resize(static_cast<size_t>(k_pool) *
                          static_cast<size_t>(k_pool));
    for (int j = 0; j < k_pool; ++j) {
      for (int k = 0; k < k_pool; ++k) {
        pair_migration[static_cast<size_t>(j) * static_cast<size_t>(k_pool) +
                       static_cast<size_t>(k)] =
            weighted_migration(pool[static_cast<size_t>(j)],
                               pool[static_cast<size_t>(k)]);
      }
    }
  }
  auto transition_migration = [&](int j, int k) {
    if (memoized) {
      return pair_migration[static_cast<size_t>(j) *
                                static_cast<size_t>(k_pool) +
                            static_cast<size_t>(k)];
    }
    return weighted_migration(pool[static_cast<size_t>(j)],
                              pool[static_cast<size_t>(k)]);
  };

  // --- Exact DP over epochs. dp[k] is the cheapest objective of any pool
  // sequence ending with layout k; the accounting order is the documented
  // contract: total = (total + weight·migration) + toc·duration.
  dp.assign(static_cast<size_t>(k_pool), kInf);
  next.resize(static_cast<size_t>(k_pool));
  // pred flattened to [e * k_pool + k]; -1 = no feasible predecessor.
  pred.assign(toc_cells, -1);
  for (int e = 0; e < num_epochs; ++e) {
    const double duration =
        schedule.windows[static_cast<size_t>(e)].duration_hours;
    std::fill(next.begin(), next.end(), kInf);
    bool any_feasible = false;
    for (int k = 0; k < k_pool; ++k) {
      const double toc_ek = toc_at(e, k);
      if (toc_ek == kInf) continue;
      const double epoch_term = toc_ek * duration;
      if (e == 0) {
        next[static_cast<size_t>(k)] =
            (0.0 + weighted_migration(current_layout,
                                      pool[static_cast<size_t>(k)])) +
            epoch_term;
        any_feasible = true;
        continue;
      }
      double best = kInf;
      int best_j = -1;
      for (int j = 0; j < k_pool; ++j) {
        if (dp[static_cast<size_t>(j)] == kInf) continue;
        const double value =
            (dp[static_cast<size_t>(j)] + transition_migration(j, k)) +
            epoch_term;
        if (value < best) {  // ties keep the earlier (deterministic) j
          best = value;
          best_j = j;
        }
      }
      if (best_j >= 0) {
        next[static_cast<size_t>(k)] = best;
        pred[static_cast<size_t>(e) * static_cast<size_t>(k_pool) +
             static_cast<size_t>(k)] = best_j;
        any_feasible = true;
      }
    }
    std::swap(dp, next);
    if (!any_feasible) {
      const std::string& label =
          schedule.windows[static_cast<size_t>(e)].label;
      plan.status = Status::Infeasible(
          "no candidate layout satisfies epoch " + std::to_string(e) +
          (label.empty() ? std::string() : " (" + label + ")") +
          "'s capacity and SLA constraints");
      finish();
      return plan;
    }
  }

  // --- Pick the terminal layout under the BetterCandidate-compatible
  // order and backtrack.
  int best_k = -1;
  for (int k = 0; k < k_pool; ++k) {
    if (dp[static_cast<size_t>(k)] == kInf) continue;
    if (best_k < 0 ||
        BetterTerminal(dp[static_cast<size_t>(k)], toc_at(num_epochs - 1, k),
                       pool[static_cast<size_t>(k)],
                       dp[static_cast<size_t>(best_k)],
                       toc_at(num_epochs - 1, best_k),
                       pool[static_cast<size_t>(best_k)])) {
      best_k = k;
    }
  }
  DOT_CHECK(best_k >= 0);  // any_feasible held for the last epoch
  choice.assign(static_cast<size_t>(num_epochs), -1);
  choice[static_cast<size_t>(num_epochs - 1)] = best_k;
  for (int e = num_epochs - 1; e > 0; --e) {
    choice[static_cast<size_t>(e - 1)] =
        pred[static_cast<size_t>(e) * static_cast<size_t>(k_pool) +
             static_cast<size_t>(choice[static_cast<size_t>(e)])];
  }

  // --- Fill the steps, re-accumulating the objective in the documented
  // order (bit-identical to the DP value by construction).
  AccumulateSteps(
      schedule, current_layout, weight, config_.migration, schema, box,
      [&](int e) -> const std::vector<int>& {
        return pool[static_cast<size_t>(choice[static_cast<size_t>(e)])];
      },
      [&](int e) { return toc_at(e, choice[static_cast<size_t>(e)]); },
      &plan);
  finish();
  return plan;
}

ReprovisionPlan ReprovisionPlanner::EvaluateSequence(
    const WorkloadTraceSpec& schedule,
    const std::vector<std::vector<int>>& placements,
    const std::vector<int>& current_layout) const {
  const double start_ms = NowMs();
  ReprovisionPlan plan;
  plan.status = ValidateInputs(problem_, config_, schedule, current_layout);
  if (!plan.status.ok()) return plan;
  const Schema& schema = *problem_.schema;
  const BoxConfig& box = *problem_.box;
  if (placements.size() != schedule.windows.size()) {
    plan.status = Status::InvalidArgument(
        "sequence length does not match the schedule's window count");
    return plan;
  }
  for (size_t e = 0; e < placements.size(); ++e) {
    plan.status =
        ValidatePlacement(placements[e], schema, box,
                          "sequence layout for epoch " + std::to_string(e));
    if (!plan.status.ok()) return plan;
  }
  const int num_epochs = static_cast<int>(schedule.windows.size());

  // Resolve the weight exactly as Plan does (same targets, same order).
  const std::vector<std::unique_ptr<DotOptimizer>> optimizers =
      MakeEpochOptimizers(problem_, schedule);
  const double weight =
      ResolveMigrationWeight(config_.migration_weight, schedule, optimizers);
  plan.resolved_migration_weight = weight;

  // Score the given sequence the way Plan scores its matrix; an
  // infeasible epoch scores +inf and marks the whole sequence.
  std::vector<double> tocs(static_cast<size_t>(num_epochs), kInf);
  for (int e = 0; e < num_epochs; ++e) {
    const CandidateEval eval =
        optimizers[static_cast<size_t>(e)]->EvaluateQuick(
            placements[static_cast<size_t>(e)]);
    plan.layouts_evaluated += 1;
    if (eval.feasible) tocs[static_cast<size_t>(e)] = eval.toc;
    if (!eval.feasible && plan.status.ok()) {
      plan.status = Status::Infeasible(
          "sequence layout for epoch " + std::to_string(e) +
          " violates the epoch's capacity or SLA constraints");
    }
  }

  AccumulateSteps(
      schedule, current_layout, weight, config_.migration, schema, box,
      [&](int e) -> const std::vector<int>& {
        return placements[static_cast<size_t>(e)];
      },
      [&](int e) { return tocs[static_cast<size_t>(e)]; }, &plan);
  plan.plan_ms = NowMs() - start_ms;
  return plan;
}

}  // namespace dot
