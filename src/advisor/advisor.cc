#include "advisor/advisor.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <utility>

#include "catalog/schema.h"
#include "common/check.h"
#include "dot/layout.h"
#include "dot/sla.h"

namespace dot {

namespace {

/// TOC and SLA verdict of `placement` under the optimizer's problem, priced
/// on its scorer: cost / Score().tasks_per_hour and Score().sla_ok are
/// bit-identical to EstimateToc (the fast == full contract), and an
/// SLA-infeasible layout keeps its finite TOC, as EstimateToc reports it.
/// Without a scorer, EstimateToc itself, which owns the verdict (the
/// forecast's chance constraint; MeetsTargets on the point forecast).
double PriceIncumbent(const DotOptimizer& optimizer,
                      const std::vector<int>& placement, bool* sla_ok) {
  const FastScorer* scorer = optimizer.scorer();
  if (scorer == nullptr) {
    return optimizer.EstimateToc(placement, nullptr, nullptr, sla_ok);
  }
  const DotProblem& problem = optimizer.problem();
  const double cost = Layout(problem.schema, problem.box, placement)
                          .CostCentsPerHour(problem.cost_model);
  const QuickPerf qp = scorer->Score(placement);
  DOT_CHECK(qp.tasks_per_hour > 0) << "estimate produced zero throughput";
  *sla_ok = qp.sla_ok;
  return cost / qp.tasks_per_hour;
}

}  // namespace

Status ValidateAdvisorConfig(const AdvisorConfig& config) {
  if (config.replan_method == SolveMethod::kEpochPlan ||
      config.replan_method == SolveMethod::kFleet) {
    return Status::InvalidArgument(
        "replan_method must be kDotHeuristic, kExact or kEnumerate: the "
        "advisor is the stateful loop; re-plans are single-shot");
  }
  // NaN fails the comparison.
  if (!(config.payback_horizon_hours >= 0.0)) {
    return Status::InvalidArgument(
        "payback_horizon_hours must be >= 0, got " +
        std::to_string(config.payback_horizon_hours));
  }
  if (config.cooldown_windows < 0) {
    return Status::InvalidArgument("cooldown_windows must be >= 0, got " +
                                   std::to_string(config.cooldown_windows));
  }
  if (config.replan_interval_windows < 0) {
    return Status::InvalidArgument(
        "replan_interval_windows must be >= 0, got " +
        std::to_string(config.replan_interval_windows));
  }
  if (config.max_pool < 1) {
    return Status::InvalidArgument("max_pool must be >= 1, got " +
                                   std::to_string(config.max_pool));
  }
  for (const WorkloadModel* model : config.model_pool) {
    if (model == nullptr) {
      return Status::InvalidArgument("model_pool holds a null model");
    }
  }
  Status st = ValidateDriftConfig(config.drift);
  if (!st.ok()) return st;
  return ValidateMigrationWeight(config.migration_weight);
}

Advisor::Advisor(const DotProblem& problem, AdvisorConfig config)
    : problem_(problem), config_(std::move(config)) {}

Status Advisor::Init() {
  DOT_CHECK(!initialized_);
  Status st = ValidateAdvisorConfig(config_);
  if (!st.ok()) return st;
  // Classification prices each pool model on the problem's placements, so
  // every model must index the problem's objects: the same schema, or one
  // with an equal fingerprint. A null problem schema is Solve's to reject.
  for (const WorkloadModel* model : config_.model_pool) {
    const Schema* schema = model->schema();
    if (problem_.schema != nullptr && schema != problem_.schema &&
        (schema == nullptr ||
         schema->Fingerprint() != problem_.schema->Fingerprint())) {
      return Status::InvalidArgument(
          "model_pool model " + model->name() +
          " is built over a different schema than the problem's");
    }
  }
  detector_ = DriftDetector(config_.drift);
  SolveSpec spec;
  spec.method = config_.replan_method;
  const SolveResult solved = Solve(problem_, spec);
  if (!solved.status.ok()) return solved.status;

  incumbent_ = solved.placement;
  incumbent_toc_ = solved.toc_cents_per_task;
  pool_.assign(1, incumbent_);
  pool_predicted_.assign(1, {});

  // The drift baseline is what the incumbent plan assumed the workload
  // does: the base model's predicted counts. A trace that matches the
  // model exactly therefore never deviates — and never re-plans.
  reference_counts_ = problem_.workload->Estimate(incumbent_).io_by_object;
  detector_.Rebase(reference_counts_);

  if (config_.migration_weight == kAutoMigrationWeight) {
    const double reference_rate = solved.dot.targets.best_case.tasks_per_hour;
    DOT_CHECK(reference_rate > 0.0);
    resolved_weight_ = 1.0 / reference_rate;
  } else {
    resolved_weight_ = config_.migration_weight;
  }
  initialized_ = true;
  return Status::OK();
}

AdvisorRun Advisor::Run(TraceFeed* feed) {
  AdvisorRun run;
  if (!initialized_) {
    run.status = Init();
    if (!run.status.ok()) return run;
  }
  run.initial_layout = incumbent_;

  FeedPlayer player(feed,
                    static_cast<size_t>(problem_.schema->NumObjects()));
  const Status played =
      player.Play([&](const TraceEvent& event) { Observe(event, &run); });
  // A malformed feed stops the drain but keeps everything decided so far:
  // the advisor state (incumbent, detector, pool) stays valid, and the
  // caller sees both the partial run and why it ended.
  if (!played.ok()) run.status = played;

  run.final_layout = incumbent_;
  return run;
}

int Advisor::ClassifyWorkload(const ObjectIoMap& observed) {
  // Nearest-profile classification in the drift detector's own metric:
  // the class whose predicted counts on the incumbent are closest to the
  // observed profile becomes the planning model. Scale hints then correct
  // only the residual — a task-mix swing is handled by the model switch,
  // not mis-expressed as per-object scaling.
  //
  // A model's predicted counts depend on the model and the layout alone,
  // so they are estimated once per pool layout and kept with it.
  const size_t slot = static_cast<size_t>(
      std::find(pool_.begin(), pool_.end(), incumbent_) - pool_.begin());
  DOT_CHECK(slot < pool_.size()) << "the incumbent is always in the pool";
  std::vector<ObjectIoMap>& by_model = pool_predicted_[slot];
  if (by_model.empty()) {
    for (const WorkloadModel* model : config_.model_pool) {
      by_model.push_back(model->Estimate(incumbent_).io_by_object);
    }
  }
  int best_index = -1;
  double best_score = 0.0;
  for (size_t m = 0; m < by_model.size(); ++m) {
    const ObjectIoMap& predicted = by_model[m];
    DOT_CHECK(predicted.size() == observed.size())
        << "model_pool entry built over a different schema";
    double abs_diff = 0.0;
    double predicted_total = 0.0;
    for (size_t o = 0; o < predicted.size(); ++o) {
      for (IoType t : kAllIoTypes) {
        abs_diff += std::abs(observed[o][t] - predicted[o][t]);
        predicted_total += predicted[o][t];
      }
    }
    const double score =
        abs_diff / std::max(predicted_total, config_.drift.count_floor);
    if (best_index < 0 || score < best_score) {
      best_index = static_cast<int>(m);
      best_score = score;
    }
  }
  if (best_index >= 0) {
    problem_.workload = config_.model_pool[static_cast<size_t>(best_index)];
    reference_counts_ = by_model[static_cast<size_t>(best_index)];
  }
  return best_index;
}

std::vector<double> Advisor::EstimateIoScale(
    const ObjectIoMap& observed) const {
  // scale[o] = observed total / model-predicted total, per object —
  // exactly the refinement phase's measured/estimated ratio, computed
  // online. Objects the model predicts no I/O for keep scale 1 (there is
  // nothing to correct against).
  DOT_CHECK(observed.size() == reference_counts_.size());
  std::vector<double> scale(observed.size(), 1.0);
  for (size_t o = 0; o < observed.size(); ++o) {
    const double reference = reference_counts_[o].Total();
    if (reference > 0.0) scale[o] = observed[o].Total() / reference;
  }
  return scale;
}

void Advisor::AddToPool(const std::vector<int>& layout) {
  if (std::find(pool_.begin(), pool_.end(), layout) != pool_.end()) return;
  pool_.push_back(layout);
  pool_predicted_.emplace_back();
  if (static_cast<int>(pool_.size()) > config_.max_pool) {
    pool_.erase(pool_.begin());
    pool_predicted_.erase(pool_predicted_.begin());
  }
}

void Advisor::Observe(const TraceEvent& event, AdvisorRun* run) {
  ++windows_seen_;
  // Causality: window w runs on the incumbent as of its entry; whatever
  // this observation triggers takes effect from the next window.
  run->layout_by_window.push_back(incumbent_);

  detector_.Update(event.io_by_object);

  AdvisorDecision decision;
  decision.window = event.window;
  decision.deviation = detector_.deviation();
  decision.statistic = detector_.statistic();

  const bool in_cooldown = cooldown_remaining_ > 0;
  if (in_cooldown) --cooldown_remaining_;
  const bool interval_due =
      config_.replan_interval_windows > 0 &&
      windows_seen_ % config_.replan_interval_windows == 0;
  const bool drift_due = detector_.drifted() && !in_cooldown;

  if (interval_due || drift_due) {
    decision.replanned = true;
    ++run->num_replans;

    // The re-plan acts on the *triggering window's* profile, not the
    // EWMA: the smoothed mean still blends the pre-shift regime in, and
    // classifying or scaling from the blend would plan for a workload
    // that exists only in the average. The EWMA's job is triggering.
    if (!config_.model_pool.empty()) {
      decision.model_index = ClassifyWorkload(event.io_by_object);
    }
    if (config_.estimate_io_scale) {
      problem_.io_scale_hint = EstimateIoScale(event.io_by_object);
    }
    SolveSpec spec;
    spec.method = config_.replan_method;
    // Incremental re-plan: the incumbent and every past winner seed the
    // branch-and-bound incumbent, so an undisturbed subtree prunes at
    // once and a re-plan near the incumbent is nearly free.
    spec.warm_starts = &pool_;
    // One optimizer per re-plan: the search and the incumbent's pricing
    // below share its targets and its scorer. The optimizer asserts
    // ValidateProblem, so a problem it rejects comes back as the
    // re-plan's status.
    std::optional<DotOptimizer> optimizer;
    SolveResult candidate;
    candidate.status = ValidateProblem(problem_);
    if (candidate.status.ok()) {
      optimizer.emplace(problem_);
      candidate = Solve(*optimizer, spec);
    }
    run->Add(candidate.provenance);

    if (candidate.status.ok()) {
      decision.candidate_toc = candidate.toc_cents_per_task;
      // Price the incumbent under the *same* scaled model — comparing a
      // scaled candidate against an unscaled incumbent would manufacture
      // phantom savings — and check whether it still meets the SLA there.
      bool incumbent_sla = false;
      decision.incumbent_toc =
          PriceIncumbent(*optimizer, incumbent_, &incumbent_sla);
      decision.incumbent_feasible = incumbent_sla;
      decision.verdict = GateMigration(
          config_.migration, *problem_.box, *problem_.schema, incumbent_,
          candidate.placement, decision.incumbent_toc,
          decision.candidate_toc, config_.payback_horizon_hours,
          resolved_weight_);
      // An SLA-violating incumbent is replaced regardless of the bill:
      // the candidate is the cheapest layout that restores the contract.
      const bool commit =
          !config_.gate_on_migration_bill || !decision.incumbent_feasible
              ? candidate.placement != incumbent_
              : decision.verdict.migrate;
      if (commit) {
        decision.migrated = true;
        ++run->num_migrations;
        incumbent_ = candidate.placement;
        incumbent_toc_ = candidate.toc_cents_per_task;
        AddToPool(incumbent_);
      }
    }
    // Whatever was decided, the shift has been acted on: detection
    // restarts with the triggering window's profile as the new normal
    // (rebasing to the blended EWMA would leave a permanent phantom
    // deviation that re-fires the trigger forever).
    detector_.Rebase(event.io_by_object);
    cooldown_remaining_ = config_.cooldown_windows;
  }

  run->decisions.push_back(std::move(decision));
}

}  // namespace dot
