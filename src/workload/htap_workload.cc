#include "workload/htap_workload.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "catalog/chbench.h"
#include "common/check.h"
#include "common/simd_dispatch.h"
#include "common/units.h"
#include "query/object_io.h"
#include "workload/tpch_queries.h"

namespace dot {

namespace {

/// The HTAP fast path: the OLTP side's device-time tables, the DSS side's
/// plan-cache scorer (with its per-entry caps disabled — the HTAP SLA caps
/// the sequence *total*), and the model's interference tables, combined by
/// exactly the arithmetic HtapWorkload::EstimateWithIoScale runs. The
/// BoundCursor sums the two sides' admissible lower bounds plus the
/// interference minima — a sum of admissible bounds is admissible — and is
/// exact (bit-identical to Score) at fully assigned placements.
class HtapFastScorer : public FastScorer {
 public:
  HtapFastScorer(const HtapWorkload* model, const BoxConfig* box,
                 const std::vector<double>& io_scale,
                 const std::vector<double>& query_caps_ms,
                 double sla_tolerance)
      : model_(model),
        tables_(model->oltp(), *box, io_scale),
        measurement_period_ms_(model->oltp().measurement_period_ms()) {
    DOT_CHECK(query_caps_ms.size() == 2)
        << "HTAP folds exactly two caps (OLTP latency, DSS completion), got "
        << query_caps_ms.size();
    // Exactly the comparison MeetsTargets makes per unit-time entry.
    thr_oltp_ = query_caps_ms[static_cast<size_t>(kHtapOltpEntry)] *
                (1 + sla_tolerance);
    thr_dss_ = query_caps_ms[static_cast<size_t>(kHtapDssEntry)] *
               (1 + sla_tolerance);
    const std::vector<double> no_caps(
        model->dss().sequence().size(),
        std::numeric_limits<double>::infinity());
    dss_scorer_ =
        model->dss().MakeFastScorer(io_scale, no_caps, 0.0, sla_tolerance);
    DOT_CHECK(dss_scorer_ != nullptr);

    // Interference bound tables: per side, the guaranteed minimum over
    // classes (summed over shared objects into the base) and the dense
    // per-(object, class) excess above it.
    const int n = tables_.num_objects();
    const int m = tables_.num_classes();
    if_excess_oltp_.assign(
        static_cast<size_t>(n) * static_cast<size_t>(m), 0.0);
    if_excess_dss_.assign(
        static_cast<size_t>(n) * static_cast<size_t>(m), 0.0);
    for (int r = 0; r < model->num_interference_rows(); ++r) {
      double oltp_min = model->interference_oltp_ms(r, 0);
      double dss_min = model->interference_dss_ms(r, 0);
      for (int c = 0; c < m; ++c) {
        oltp_min = std::min(oltp_min, model->interference_oltp_ms(r, c));
        dss_min = std::min(dss_min, model->interference_dss_ms(r, c));
      }
      if_base_oltp_ += oltp_min;
      if_base_dss_ += dss_min;
      const size_t base =
          static_cast<size_t>(model->interference_object(r)) *
          static_cast<size_t>(m);
      for (int c = 0; c < m; ++c) {
        if_excess_oltp_[base + static_cast<size_t>(c)] =
            model->interference_oltp_ms(r, c) - oltp_min;
        if_excess_dss_[base + static_cast<size_t>(c)] =
            model->interference_dss_ms(r, c) - dss_min;
      }
    }
  }

  QuickPerf Score(const std::vector<int>& placement) const override {
    return Combine(placement, dss_scorer_->Score(placement));
  }

  /// Partial-placement bound: the OLTP side's base+excess latency stack
  /// (interference minima folded in), the DSS side's floor cursor, and the
  /// DSS interference stack. Snapshot stacks keep every value a pure
  /// function of the assignment path, as in the pure-OLTP cursor.
  class BoundCursor : public FastScorer::BoundCursor {
   public:
    explicit BoundCursor(const HtapFastScorer* scorer)
        : scorer_(scorer),
          dss_cursor_(scorer->dss_scorer_->MakeBoundCursor()),
          oltp_stack_(
              static_cast<size_t>(scorer->tables_.num_objects()) + 1, 0.0),
          dssif_stack_(
              static_cast<size_t>(scorer->tables_.num_objects()) + 1, 0.0) {
      DOT_CHECK(dss_cursor_ != nullptr);
      Reset();
    }

    void Reset() override {
      depth_ = 0;
      oltp_stack_[0] =
          scorer_->tables_.base_mean_latency_ms() + scorer_->if_base_oltp_;
      dssif_stack_[0] = scorer_->if_base_dss_;
      dss_cursor_->Reset();
    }

    void Assign(int object_id, const std::vector<int>& placement) override {
      const int cls = placement[static_cast<size_t>(object_id)];
      const size_t idx =
          static_cast<size_t>(object_id) *
              static_cast<size_t>(scorer_->tables_.num_classes()) +
          static_cast<size_t>(cls);
      oltp_stack_[static_cast<size_t>(depth_) + 1] =
          oltp_stack_[static_cast<size_t>(depth_)] +
          scorer_->tables_.Excess(object_id, cls) +
          scorer_->if_excess_oltp_[idx];
      dssif_stack_[static_cast<size_t>(depth_) + 1] =
          dssif_stack_[static_cast<size_t>(depth_)] +
          scorer_->if_excess_dss_[idx];
      dss_cursor_->Assign(object_id, placement);
      ++depth_;
    }

    void Unassign(int object_id) override {
      dss_cursor_->Unassign(object_id);
      --depth_;
    }

    /// The OLTP and interference sides are per-object sums with nothing
    /// left to tighten; the DSS side raises its floors, which its Unassign
    /// restores.
    bool Tighten(const std::vector<int>& placement) override {
      return dss_cursor_->Tighten(placement);
    }

    QuickPerf Optimistic(const std::vector<int>& placement) const override {
      if (depth_ == scorer_->tables_.num_objects()) {
        // Leaf: the DSS cursor is exact here (bit-identical to the DSS
        // Score), so Score's combine step over it is bit-identical to
        // Score without probing the templates again.
        return scorer_->Combine(placement, dss_cursor_->Optimistic(placement));
      }
      // Interior node: each side's deflated lower bound; the sum of the
      // derived per-side throughput upper bounds is an upper bound on the
      // combined throughput of every completion.
      const double oltp_lb_ms =
          oltp_stack_[static_cast<size_t>(depth_)] * (1 - kBoundSafety);
      const OltpWorkloadModel::Throughput tp =
          scorer_->model_->oltp().ThroughputFromMeanLatency(oltp_lb_ms);
      const QuickPerf dss_qp = dss_cursor_->Optimistic(placement);
      const double dss_lb_ms =
          dss_qp.elapsed_ms +
          dssif_stack_[static_cast<size_t>(depth_)] * (1 - kBoundSafety);
      QuickPerf qp;
      qp.elapsed_ms = scorer_->measurement_period_ms_;
      qp.tpmc = tp.tpmc;
      // The DSS floors (scaled ones under an io_scale) bound the analytic
      // side's time from below. Only a zero bound (every template free of
      // CPU and of scaled I/O) leaves its throughput unbounded — 0 per
      // the BoundCursor contract.
      qp.tasks_per_hour =
          dss_lb_ms > 0 ? tp.tasks_per_hour +
                              scorer_->model_->AnalyticsTasksPerHour(dss_lb_ms)
                        : 0.0;
      qp.sla_ok = !(oltp_lb_ms > scorer_->thr_oltp_) &&
                  !(dss_lb_ms > scorer_->thr_dss_);
      return qp;
    }

   private:
    const HtapFastScorer* scorer_;
    std::unique_ptr<FastScorer::BoundCursor> dss_cursor_;
    std::vector<double> oltp_stack_;
    std::vector<double> dssif_stack_;
    int depth_ = 0;
  };

  std::unique_ptr<FastScorer::BoundCursor> MakeBoundCursor() const override {
    return std::make_unique<BoundCursor>(this);
  }

  double ObjectTimeSpreadMs(int object) const override {
    // Ordering hint: both sides' spreads plus the interference excess
    // spread (its per-class minimum is 0 by construction).
    double spread = tables_.SpreadMs(object) +
                    dss_scorer_->ObjectTimeSpreadMs(object);
    const int m = tables_.num_classes();
    const size_t base = static_cast<size_t>(object) * static_cast<size_t>(m);
    double oltp_hi = 0.0;
    double dss_hi = 0.0;
    for (int c = 0; c < m; ++c) {
      oltp_hi =
          std::max(oltp_hi, if_excess_oltp_[base + static_cast<size_t>(c)]);
      dss_hi = std::max(dss_hi, if_excess_dss_[base + static_cast<size_t>(c)]);
    }
    return spread + oltp_hi + dss_hi;
  }

  long long cache_hits() const override { return dss_scorer_->cache_hits(); }
  long long cache_misses() const override {
    return dss_scorer_->cache_misses();
  }

 private:
  /// The exact score of a full placement given its DSS side's score: the
  /// OLTP side, the interference terms and the fold into one QuickPerf.
  QuickPerf Combine(const std::vector<int>& placement,
                    const QuickPerf& dss_qp) const {
    const double mean_latency_ms = tables_.MeanLatencyMs(placement);
    DOT_CHECK(mean_latency_ms > 0);
    const double oltp_time_ms =
        mean_latency_ms + model_->OltpInterferenceMs(placement);
    const OltpWorkloadModel::Throughput tp =
        model_->oltp().ThroughputFromMeanLatency(oltp_time_ms);
    const double dss_time_ms =
        dss_qp.elapsed_ms + model_->DssInterferenceMs(placement);
    QuickPerf qp;
    qp.elapsed_ms = measurement_period_ms_;
    qp.tpmc = tp.tpmc;
    qp.tasks_per_hour =
        tp.tasks_per_hour + model_->AnalyticsTasksPerHour(dss_time_ms);
    qp.sla_ok = !(oltp_time_ms > thr_oltp_) && !(dss_time_ms > thr_dss_);
    return qp;
  }

  const HtapWorkload* model_;
  OltpLatencyTables tables_;
  double measurement_period_ms_;
  double thr_oltp_ = 0.0;  ///< tolerance-adjusted mean-latency cap
  double thr_dss_ = 0.0;   ///< tolerance-adjusted sequence-time cap
  std::unique_ptr<FastScorer> dss_scorer_;
  /// Interference bound tables (see ctor).
  double if_base_oltp_ = 0.0;
  double if_base_dss_ = 0.0;
  std::vector<double> if_excess_oltp_;  ///< [object * num_classes + class]
  std::vector<double> if_excess_dss_;
};

}  // namespace

HtapWorkload::HtapWorkload(std::string name, const OltpWorkloadModel* oltp,
                           const DssWorkloadModel* dss, const Schema* schema,
                           const BoxConfig* box, HtapConfig config)
    : name_(std::move(name)),
      oltp_(oltp),
      dss_(dss),
      schema_(schema),
      box_(box),
      config_(config) {
  DOT_CHECK(oltp_ != nullptr && dss_ != nullptr && schema_ != nullptr &&
            box_ != nullptr);
  DOT_CHECK(config_.analytics_streams > 0)
      << "analytics_streams must be positive (use OltpWorkloadModel alone "
         "for a pure transaction mix)";
  DOT_CHECK(config_.interference_kappa >= 0);
  DOT_CHECK(config_.analytics_task_weight > 0);
  const int n = schema_->NumObjects();
  DOT_CHECK(static_cast<int>(oltp_->txn_types().front().io.size()) == n)
      << "OLTP side built over a different schema";

  if (config_.interference_kappa == 0) return;  // sides never collide

  // Placement-independent intensities. OLTP: expected physical I/Os per
  // transaction on each object (mix-weighted, unscaled — refinement
  // corrections deliberately do not move the interference weights, so the
  // full path and a scorer built with any io_scale agree). DSS: template
  // touches per sequence cycle, from the planner's placement-independent
  // footprints.
  std::vector<double> oltp_intensity(static_cast<size_t>(n), 0.0);
  for (const TxnType& t : oltp_->txn_types()) {
    for (size_t o = 0; o < t.io.size(); ++o) {
      oltp_intensity[o] += t.weight * t.io[o].Total();
    }
  }
  std::vector<double> dss_intensity(static_cast<size_t>(n), 0.0);
  const std::vector<int>& seq_count = dss_->seq_count();
  for (size_t t = 0; t < seq_count.size(); ++t) {
    if (seq_count[t] == 0) continue;
    for (int o : dss_->compiled()[t].footprint()) {
      dss_intensity[static_cast<size_t>(o)] += seq_count[t];
    }
  }
  double oltp_total = 0.0;
  double dss_total = 0.0;
  for (int o = 0; o < n; ++o) {
    oltp_total += oltp_intensity[static_cast<size_t>(o)];
    dss_total += dss_intensity[static_cast<size_t>(o)];
  }
  if (oltp_total <= 0 || dss_total <= 0) return;

  // Per shared object and class, the two additive terms. OLTP side: ρ
  // analytic streams scanning o make the mix's a_o I/Os on o queue behind
  // them — time scales with the object's share b_o/B of the analytic
  // pressure and the class's random-read latency at the mix's concurrency.
  // DSS side: transactions dirty o's pages at terminal pressure, forcing
  // each of the b_o template touches to re-read — time scales with o's
  // share a_o/A of the transactional pressure, priced at the class's
  // single-stream random-read latency.
  const int m = box_->NumClasses();
  for (int o = 0; o < n; ++o) {
    if (oltp_intensity[static_cast<size_t>(o)] > 0 &&
        dss_intensity[static_cast<size_t>(o)] > 0) {
      if_objects_.push_back(o);
    }
  }
  const size_t rows = if_objects_.size();
  if_oltp_plane_.assign(static_cast<size_t>(m) * rows, 0.0);
  if_dss_plane_.assign(static_cast<size_t>(m) * rows, 0.0);
  for (size_t r = 0; r < rows; ++r) {
    const int o = if_objects_[r];
    const double a = oltp_intensity[static_cast<size_t>(o)];
    const double b = dss_intensity[static_cast<size_t>(o)];
    for (int c = 0; c < m; ++c) {
      const DeviceModel& dev = box_->classes[static_cast<size_t>(c)].device();
      if_oltp_plane_[static_cast<size_t>(c) * rows + r] =
          config_.interference_kappa * config_.analytics_streams *
          (b / dss_total) * a *
          dev.LatencyMs(IoType::kRandRead, oltp_->concurrency());
      if_dss_plane_[static_cast<size_t>(c) * rows + r] =
          config_.interference_kappa * (a / oltp_total) * b *
          oltp_->concurrency() * dev.LatencyMs(IoType::kRandRead, 1.0);
    }
  }
}

double HtapWorkload::OltpInterferenceMs(
    const std::vector<int>& placement) const {
  return PlaneGatherSum(if_oltp_plane_.data(), if_objects_.data(),
                        placement.data(),
                        static_cast<int>(if_objects_.size()));
}

double HtapWorkload::DssInterferenceMs(
    const std::vector<int>& placement) const {
  return PlaneGatherSum(if_dss_plane_.data(), if_objects_.data(),
                        placement.data(),
                        static_cast<int>(if_objects_.size()));
}

double HtapWorkload::AnalyticsTasksPerHour(double dss_total_ms) const {
  DOT_CHECK(dss_total_ms > 0);
  return config_.analytics_task_weight * config_.analytics_streams *
         static_cast<double>(dss_->sequence().size()) /
         (dss_total_ms / kMsPerHour);
}

void HtapWorkload::RederiveFromUnitTimes(PerfEstimate* est) const {
  DOT_CHECK(est->unit_times_ms.size() == 2)
      << "HTAP estimates carry exactly two folded unit times";
  const OltpWorkloadModel::Throughput tp = oltp_->ThroughputFromMeanLatency(
      est->unit_times_ms[static_cast<size_t>(kHtapOltpEntry)]);
  est->elapsed_ms = oltp_->measurement_period_ms();
  est->tpmc = tp.tpmc;
  est->tasks_per_hour =
      tp.tasks_per_hour +
      AnalyticsTasksPerHour(
          est->unit_times_ms[static_cast<size_t>(kHtapDssEntry)]);
}

PerfEstimate HtapWorkload::EstimateWithIoScale(
    const std::vector<int>& placement, const std::vector<double>& io_scale,
    bool need_io_by_object) const {
  const int n = schema_->NumObjects();
  DOT_CHECK(static_cast<int>(placement.size()) == n);
  DOT_CHECK(io_scale.empty() || static_cast<int>(io_scale.size()) == n)
      << "io_scale arity mismatch";

  // OLTP side. The per-type latencies come from the inner model
  // (bit-identical to the fast path's device-time tables); the
  // mix-weighted mean is re-accumulated here in type order — exactly
  // OltpLatencyTables::MeanLatencyMs's summation.
  const PerfEstimate oltp_est =
      oltp_->EstimateWithIoScale(placement, io_scale, false);
  const std::vector<TxnType>& txns = oltp_->txn_types();
  double mean_latency_ms = 0.0;
  for (size_t i = 0; i < txns.size(); ++i) {
    mean_latency_ms += txns[i].weight * oltp_est.unit_times_ms[i];
  }
  const double oltp_time_ms =
      mean_latency_ms + OltpInterferenceMs(placement);
  const OltpWorkloadModel::Throughput tp =
      oltp_->ThroughputFromMeanLatency(oltp_time_ms);

  // DSS side.
  const PerfEstimate dss_est =
      dss_->EstimateWithIoScale(placement, io_scale, need_io_by_object);
  const double dss_time_ms = dss_est.elapsed_ms + DssInterferenceMs(placement);

  PerfEstimate est;
  est.elapsed_ms = oltp_est.elapsed_ms;  // the OLTP measurement period
  est.unit_times_ms = {oltp_time_ms, dss_time_ms};
  est.tpmc = tp.tpmc;
  est.tasks_per_hour = tp.tasks_per_hour + AnalyticsTasksPerHour(dss_time_ms);
  est.num_joins = dss_est.num_joins;
  est.num_index_nl_joins = dss_est.num_index_nl_joins;

  if (need_io_by_object) {
    est.io_by_object.assign(static_cast<size_t>(n), IoVector{});
    // Transactions over the measurement period at the interference-aware
    // rate, then the analytic side's per-cycle I/O times the number of
    // cycles ρ streams complete in the same period.
    const double txns_total =
        tp.txns_per_minute * (oltp_est.elapsed_ms / kMsPerMinute);
    const bool scaled = !io_scale.empty();
    ObjectIoMap scratch;
    for (const TxnType& t : txns) {
      const ObjectIoMap* io = &t.io;
      if (scaled) {
        scratch = t.io;
        for (size_t o = 0; o < scratch.size(); ++o) scratch[o] *= io_scale[o];
        io = &scratch;
      }
      AccumulateScaledIo(est.io_by_object, *io, txns_total * t.weight);
    }
    const double cycles =
        config_.analytics_streams * (oltp_est.elapsed_ms / dss_time_ms);
    AccumulateScaledIo(est.io_by_object, dss_est.io_by_object, cycles);
  }
  return est;
}

std::unique_ptr<FastScorer> HtapWorkload::MakeFastScorer(
    const std::vector<double>& io_scale,
    const std::vector<double>& query_caps_ms, double min_tpmc,
    double sla_tolerance) const {
  (void)min_tpmc;  // response-time SLA: the two folded caps apply
  DOT_CHECK(io_scale.empty() ||
            static_cast<int>(io_scale.size()) == schema_->NumObjects())
      << "io_scale arity mismatch";
  return std::make_unique<HtapFastScorer>(this, box_, io_scale,
                                          query_caps_ms, sla_tolerance);
}

HtapBundle MakeChbenchHtapWorkload(const Schema* schema, const BoxConfig* box,
                                   const HtapConfig& config,
                                   const TpccConfig& tpcc_config,
                                   int analytics_reps) {
  DOT_CHECK(schema != nullptr && box != nullptr);
  DOT_CHECK(analytics_reps >= 1);
  HtapBundle bundle;
  bundle.oltp = MakeTpccWorkload(schema, box, tpcc_config);
  std::vector<QuerySpec> templates =
      FilterTemplatesToSchema(MakeChbenchTemplates(), *schema);
  DOT_CHECK(!templates.empty())
      << "no CH-benCH template fits this schema subset";
  const int num_templates = static_cast<int>(templates.size());
  bundle.dss = std::make_unique<DssWorkloadModel>(
      "CH-benCH", schema, box, std::move(templates),
      RepeatSequence(num_templates, analytics_reps), PlannerConfig{});
  bundle.htap = std::make_unique<HtapWorkload>(
      "CH-benCH-HTAP", bundle.oltp.get(), bundle.dss.get(), schema, box,
      config);
  return bundle;
}

}  // namespace dot
