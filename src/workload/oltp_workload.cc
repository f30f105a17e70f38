#include "workload/oltp_workload.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/simd_dispatch.h"
#include "common/units.h"
#include "io/io_types.h"
#include "query/object_io.h"

namespace dot {

OltpLatencyTables::OltpLatencyTables(const OltpWorkloadModel& model,
                                     const BoxConfig& box,
                                     const std::vector<double>& io_scale)
    : num_objects_(static_cast<int>(model.txn_types().front().io.size())),
      num_classes_(box.NumClasses()) {
  const int num_classes = num_classes_;

  // Hoisted per-(class, I/O type) unit latencies: LatencyMs runs a log/pow
  // interpolation, so paying it rows x classes times used to dominate
  // table construction. TimeForMs(χ, c) = Σ_r χ_r·τ_r(c) with zero counts
  // skipped; the per-row loop below replays exactly that expression over
  // the hoisted τ_r(c), so every plane value is bit-identical to what
  // TimeForMs (and hence IoTimeShareMs on the full path) computes.
  std::vector<double> unit_lat(static_cast<size_t>(num_classes) *
                               kNumIoTypes);
  for (int c = 0; c < num_classes; ++c) {
    for (int r = 0; r < kNumIoTypes; ++r) {
      unit_lat[static_cast<size_t>(c) * kNumIoTypes + r] =
          box.classes[static_cast<size_t>(c)].device().LatencyMs(
              static_cast<IoType>(r), model.concurrency());
    }
  }

  // Single pass: planes, per-row minima, branch-and-bound tables.
  // base_mean_latency_ms_ is the mix-weighted mean latency with *every*
  // object on its per-row fastest class — the unconstrained minimum;
  // excess_[o][c] is the guaranteed increase from committing object o to
  // class c. Their sum over an assignment lower-bounds the mean latency
  // of every completion (unassigned objects contribute at least their
  // row minima).
  excess_.assign(
      static_cast<size_t>(num_objects_) * static_cast<size_t>(num_classes),
      0.0);
  base_mean_latency_ms_ = 0.0;
  // Reserve at the non-zero-row upper bound: these tables are rebuilt per
  // search, and growth reallocations were a visible slice of short-search
  // setup time.
  size_t max_rows = 0;
  for (const TxnType& t : model.txn_types()) max_rows += t.io.size();
  tables_.reserve(model.txn_types().size());
  row_objects_.reserve(max_rows);
  planes_.reserve(max_rows * static_cast<size_t>(num_classes));
  std::vector<IoVector> row_io;  // per-table scratch
  for (const TxnType& t : model.txn_types()) {
    TxnTable table;
    table.weight = t.weight;
    table.cpu_ms = t.cpu_ms;
    table.overhead_ms = t.overhead_ms;
    table.plane_begin = planes_.size();
    table.obj_begin = row_objects_.size();
    row_io.clear();
    for (size_t o = 0; o < t.io.size(); ++o) {
      IoVector io = t.io[o];
      if (!io_scale.empty()) io *= io_scale[o];
      // IoTimeShareMs skips zero entries; mirror that by storing only
      // non-zero rows (a zero row would contribute an exact 0.0 anyway).
      if (io.IsZero()) continue;
      row_objects_.push_back(static_cast<int>(o));
      row_io.push_back(io);
    }
    table.num_rows = static_cast<int>(row_io.size());
    const int rows = table.num_rows;
    planes_.resize(table.plane_begin +
                   static_cast<size_t>(num_classes) * rows);
    double* plane = planes_.data() + table.plane_begin;
    double min_io_ms = 0.0;
    for (int r = 0; r < rows; ++r) {
      const IoVector& io = row_io[static_cast<size_t>(r)];
      const int object = row_objects_[table.obj_begin + r];
      double row_min = 0.0;
      for (int c = 0; c < num_classes; ++c) {
        const double* lat = unit_lat.data() +
                            static_cast<size_t>(c) * kNumIoTypes;
        double time_ms = 0.0;
        for (int k = 0; k < kNumIoTypes; ++k) {
          const double count = io[static_cast<IoType>(k)];
          if (count != 0.0) time_ms += count * lat[k];
        }
        plane[static_cast<size_t>(c) * rows + r] = time_ms;
        row_min = (c == 0) ? time_ms : std::min(row_min, time_ms);
      }
      for (int c = 0; c < num_classes; ++c) {
        excess_[static_cast<size_t>(object) *
                    static_cast<size_t>(num_classes) +
                static_cast<size_t>(c)] +=
            t.weight *
            (plane[static_cast<size_t>(c) * rows + r] - row_min);
      }
      min_io_ms += row_min;
    }
    base_mean_latency_ms_ +=
        t.weight * (min_io_ms + t.cpu_ms + t.overhead_ms);
    tables_.push_back(table);
  }
}

double OltpLatencyTables::MeanLatencyMs(
    const std::vector<int>& placement) const {
  double mean_latency_ms = 0.0;
  for (const TxnTable& t : tables_) {
    const double io_ms = PlaneGatherSum(planes_.data() + t.plane_begin,
                                        row_objects_.data() + t.obj_begin,
                                        placement.data(), t.num_rows);
    const double latency = io_ms + t.cpu_ms + t.overhead_ms;
    mean_latency_ms += t.weight * latency;
  }
  return mean_latency_ms;
}

double OltpLatencyTables::SpreadMs(int object) const {
  const size_t base =
      static_cast<size_t>(object) * static_cast<size_t>(num_classes_);
  double lo = excess_[base];
  double hi = excess_[base];
  for (int c = 1; c < num_classes_; ++c) {
    lo = std::min(lo, excess_[base + static_cast<size_t>(c)]);
    hi = std::max(hi, excess_[base + static_cast<size_t>(c)]);
  }
  return hi - lo;
}

namespace {

/// The OLTP fast path over OltpLatencyTables: one candidate costs a
/// fixed-order table-lookup sum with no allocation per Score call.
class OltpFastScorer : public FastScorer {
 public:
  OltpFastScorer(const OltpWorkloadModel* model, const BoxConfig* box,
                 double measurement_period_ms,
                 const std::vector<double>& io_scale, double min_tpmc,
                 double sla_tolerance)
      : model_(model),
        tables_(*model, *box, io_scale),
        measurement_period_ms_(measurement_period_ms),
        // Exactly the comparison MeetsTargets makes for throughput SLAs.
        tpmc_floor_(min_tpmc * (1 - sla_tolerance)) {}

  QuickPerf Score(const std::vector<int>& placement) const override {
    const double mean_latency_ms = tables_.MeanLatencyMs(placement);
    DOT_CHECK(mean_latency_ms > 0);
    const OltpWorkloadModel::Throughput tp =
        model_->ThroughputFromMeanLatency(mean_latency_ms);
    QuickPerf qp;
    qp.elapsed_ms = measurement_period_ms_;
    qp.tpmc = tp.tpmc;
    qp.tasks_per_hour = tp.tasks_per_hour;
    qp.sla_ok = qp.tpmc >= tpmc_floor_;
    return qp;
  }

  /// Partial-placement bound: a snapshot stack of mean-latency lower
  /// bounds, one entry per assignment depth. Snapshots (rather than a
  /// running +=/-= accumulator) keep each value a pure function of the
  /// assignment path, so backtracking cannot accumulate floating-point
  /// drift.
  class BoundCursor : public FastScorer::BoundCursor {
   public:
    explicit BoundCursor(const OltpFastScorer* scorer)
        : scorer_(scorer),
          lb_stack_(
              static_cast<size_t>(scorer->tables_.num_objects()) + 1, 0.0) {
      Reset();
    }

    void Reset() override {
      depth_ = 0;
      lb_stack_[0] = scorer_->tables_.base_mean_latency_ms();
    }

    void Assign(int object_id, const std::vector<int>& placement) override {
      lb_stack_[static_cast<size_t>(depth_) + 1] =
          lb_stack_[static_cast<size_t>(depth_)] +
          scorer_->tables_.Excess(
              object_id, placement[static_cast<size_t>(object_id)]);
      ++depth_;
    }

    void Unassign(int object_id) override {
      (void)object_id;  // LIFO: only the depth matters
      --depth_;
    }

    QuickPerf Optimistic(const std::vector<int>& placement) const override {
      if (depth_ == scorer_->tables_.num_objects()) {
        // Leaf: the exact kernel, bit-identical to Score.
        return scorer_->Score(placement);
      }
      // Interior node: deflate the latency lower bound so rounding drift
      // can never push the derived tpmC upper bound below a completion's
      // true value (see kBoundSafety).
      const double lb_ms =
          lb_stack_[static_cast<size_t>(depth_)] * (1 - kBoundSafety);
      const OltpWorkloadModel::Throughput tp =
          scorer_->model_->ThroughputFromMeanLatency(lb_ms);
      QuickPerf qp;
      qp.elapsed_ms = scorer_->measurement_period_ms_;
      qp.tpmc = tp.tpmc;
      qp.tasks_per_hour = tp.tasks_per_hour;
      qp.sla_ok = qp.tpmc >= scorer_->tpmc_floor_;
      return qp;
    }

    /// Division-free batched probe: the OLTP bound of assigning `object`
    /// to class c is lb_stack_[depth_] + Excess(object, c) — one table row
    /// indexed by c — so probing every class needs no per-class
    /// Assign/Unassign push. The throughput conversion stays in ratio form
    /// (see ThroughputRatioFromMeanLatency) and the tpmC floor is checked
    /// by cross-multiplication — the whole per-class probe is adds and
    /// multiplies.
    void ProbeClasses(int object, std::vector<int>& placement,
                      int num_classes, const unsigned char* mask,
                      QuickPerf* out, double* tp_den) override {
      (void)placement;
      const double base = lb_stack_[static_cast<size_t>(depth_)];
      const double* excess_row = scorer_->tables_.ExcessRow(object);
      const double floor = scorer_->tpmc_floor_;
      for (int cls = 0; cls < num_classes; ++cls) {
        if (mask[cls] == 0) continue;
        const double lb_ms = (base + excess_row[cls]) * (1 - kBoundSafety);
        double tpmc_num = 0.0;
        double den = 1.0;
        scorer_->model_->ThroughputRatioFromMeanLatency(lb_ms, &tpmc_num,
                                                        &den);
        QuickPerf qp;
        qp.elapsed_ms = scorer_->measurement_period_ms_;
        qp.tasks_per_hour = tpmc_num * 60.0;
        qp.sla_ok = tpmc_num >= floor * den;
        out[cls] = qp;
        tp_den[cls] = den;
      }
    }

   private:
    const OltpFastScorer* scorer_;
    std::vector<double> lb_stack_;
    int depth_ = 0;
  };

  std::unique_ptr<FastScorer::BoundCursor> MakeBoundCursor() const override {
    return std::make_unique<BoundCursor>(this);
  }

  double ObjectTimeSpreadMs(int object) const override {
    return tables_.SpreadMs(object);
  }

 private:
  const OltpWorkloadModel* model_;
  OltpLatencyTables tables_;
  double measurement_period_ms_;
  double tpmc_floor_;
};

}  // namespace

OltpWorkloadModel::OltpWorkloadModel(std::string name, const Schema* schema,
                                     const BoxConfig* box,
                                     std::vector<TxnType> txn_types,
                                     double concurrency,
                                     double measurement_period_ms,
                                     double contention_reference_ms)
    : name_(std::move(name)),
      schema_(schema),
      box_(box),
      txn_types_(std::move(txn_types)),
      concurrency_(concurrency),
      measurement_period_ms_(measurement_period_ms),
      contention_reference_ms_(contention_reference_ms) {
  DOT_CHECK(!txn_types_.empty()) << "OLTP workload needs transaction types";
  DOT_CHECK(concurrency_ >= 1.0);
  DOT_CHECK(measurement_period_ms_ > 0);
  double total_weight = 0.0;
  for (size_t i = 0; i < txn_types_.size(); ++i) {
    const TxnType& t = txn_types_[i];
    DOT_CHECK(t.weight > 0) << "transaction " << t.name
                            << " needs positive weight";
    DOT_CHECK(static_cast<int>(t.io.size()) == schema_->NumObjects())
        << "transaction " << t.name << " footprint arity mismatch";
    total_weight += t.weight;
    if (t.name == "NewOrder") primary_txn_ = static_cast<int>(i);
  }
  DOT_CHECK(std::abs(total_weight - 1.0) < 1e-9)
      << "transaction mix weights must sum to 1, got " << total_weight;
}

OltpWorkloadModel::Throughput OltpWorkloadModel::ThroughputFromMeanLatency(
    double mean_latency_ms) const {
  // Lock-convoy contention: long transactions hold locks longer and
  // collide more, so effective latency diverges as the mean service demand
  // approaches the system's saturation point (see header).
  double effective_latency_ms = mean_latency_ms;
  if (contention_reference_ms_ > 0) {
    // Past saturation the degradation is capped at 10x: thrashing systems
    // still make (slow) progress.
    const double utilization =
        std::min(mean_latency_ms / contention_reference_ms_, 0.9);
    effective_latency_ms = mean_latency_ms / (1.0 - utilization);
  }

  // Closed-loop throughput: c terminals, zero think time.
  Throughput tp;
  tp.txns_per_minute = concurrency_ * kMsPerMinute / effective_latency_ms;
  const double primary_weight =
      txn_types_[static_cast<size_t>(primary_txn_)].weight;
  tp.tpmc = tp.txns_per_minute * primary_weight;
  tp.tasks_per_hour = tp.tpmc * 60.0;
  return tp;
}

void OltpWorkloadModel::ThroughputRatioFromMeanLatency(double mean_latency_ms,
                                                       double* tpmc_num,
                                                       double* den) const {
  const double w = txn_types_[static_cast<size_t>(primary_txn_)].weight;
  if (contention_reference_ms_ > 0) {
    const double ref = contention_reference_ms_;
    if (mean_latency_ms < 0.9 * ref) {
      // Unsaturated: effective latency lat/(1 - lat/ref) == lat·ref/(ref -
      // lat), so tpmC = c·K·w·(ref - lat) / (lat·ref). Continuous with the
      // saturated branch at lat == 0.9·ref.
      *tpmc_num = concurrency_ * kMsPerMinute * w * (ref - mean_latency_ms);
      *den = mean_latency_ms * ref;
      return;
    }
    // Saturated: utilization capped at 0.9, effective latency lat/(1-0.9).
    *tpmc_num = concurrency_ * kMsPerMinute * w * (1.0 - 0.9);
    *den = mean_latency_ms;
    return;
  }
  // No contention model: effective latency is the mean itself.
  *tpmc_num = concurrency_ * kMsPerMinute * w;
  *den = mean_latency_ms;
}

PerfEstimate OltpWorkloadModel::EstimateWithIoScale(
    const std::vector<int>& placement, const std::vector<double>& io_scale,
    bool need_io_by_object) const {
  DOT_CHECK(static_cast<int>(placement.size()) == schema_->NumObjects());
  DOT_CHECK(io_scale.empty() ||
            static_cast<int>(io_scale.size()) == schema_->NumObjects())
      << "io_scale arity mismatch";

  PerfEstimate est;
  est.elapsed_ms = measurement_period_ms_;
  est.unit_times_ms.reserve(txn_types_.size());

  // One scratch buffer, reused across transaction types; untouched (and the
  // per-type footprints never copied) when there is no scaling to apply.
  const bool scaled = !io_scale.empty();
  ObjectIoMap scratch;
  auto scaled_io = [&](const TxnType& t) -> const ObjectIoMap& {
    if (!scaled) return t.io;
    scratch = t.io;
    for (size_t o = 0; o < scratch.size(); ++o) scratch[o] *= io_scale[o];
    return scratch;
  };

  // Mix-weighted mean transaction latency at the workload's concurrency.
  double mean_latency_ms = 0.0;
  for (const TxnType& t : txn_types_) {
    const double io_ms =
        IoTimeShareMs(scaled_io(t), placement, *box_, concurrency_);
    const double latency = io_ms + t.cpu_ms + t.overhead_ms;
    est.unit_times_ms.push_back(latency);
    mean_latency_ms += t.weight * latency;
  }
  DOT_CHECK(mean_latency_ms > 0);

  const Throughput tp = ThroughputFromMeanLatency(mean_latency_ms);
  est.tpmc = tp.tpmc;
  est.tasks_per_hour = tp.tasks_per_hour;

  if (need_io_by_object) {
    // Total I/O over the measurement period.
    est.io_by_object.assign(static_cast<size_t>(schema_->NumObjects()),
                            IoVector{});
    const double txns_total =
        tp.txns_per_minute * (measurement_period_ms_ / kMsPerMinute);
    for (const TxnType& t : txn_types_) {
      AccumulateScaledIo(est.io_by_object, scaled_io(t),
                         txns_total * t.weight);
    }
  }
  return est;
}

std::unique_ptr<FastScorer> OltpWorkloadModel::MakeFastScorer(
    const std::vector<double>& io_scale,
    const std::vector<double>& query_caps_ms, double min_tpmc,
    double sla_tolerance) const {
  (void)query_caps_ms;  // throughput SLA: only the tpmC floor applies
  DOT_CHECK(io_scale.empty() ||
            static_cast<int>(io_scale.size()) == schema_->NumObjects())
      << "io_scale arity mismatch";
  return std::make_unique<OltpFastScorer>(this, box_, measurement_period_ms_,
                                          io_scale, min_tpmc, sla_tolerance);
}

}  // namespace dot
