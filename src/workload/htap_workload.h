#ifndef DOTPROV_WORKLOAD_HTAP_WORKLOAD_H_
#define DOTPROV_WORKLOAD_HTAP_WORKLOAD_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "storage/storage_class.h"
#include "workload/dss_workload.h"
#include "workload/oltp_workload.h"
#include "workload/tpcc_workload.h"
#include "workload/workload.h"

namespace dot {

/// Knobs of the mixed OLTP+DSS workload (see HtapWorkload).
struct HtapConfig {
  /// ρ, the analytics:transactions intensity ratio: how many concurrent
  /// analytic streams cycle the DSS run sequence while the transaction mix
  /// runs. Fractional values model a part-time reporting stream; larger
  /// values shift the combined objective — and the optimal layout — toward
  /// the analytic side.
  double analytics_streams = 1.0;

  /// κ, the coupling coefficient of the additive interference model
  /// (0 = the two sides share objects but never collide).
  double interference_kappa = 0.05;

  /// Task-value weight of one analytic query in transaction equivalents.
  /// TOC needs a single task unit, but the two sides' tasks are wildly
  /// heterogeneous — one CH-benCH query scans millions of rows while a
  /// transaction touches ~50 — so the combined rate counts each query as
  /// this many transactions (CH-benCHmark reports tpmC and QphH side by
  /// side for the same reason). At the default, a realistic analytic
  /// stream rivals the transaction mix in objective weight, which is what
  /// lets the mix ratio ρ actually steer the optimal layout.
  double analytics_task_weight = 1000.0;
};

/// Positions of the two folded SLA entries in an HTAP PerfEstimate's
/// unit_times_ms (and therefore in PerfTargets::query_caps_ms).
inline constexpr int kHtapOltpEntry = 0;  ///< mean transaction latency, ms
inline constexpr int kHtapDssEntry = 1;   ///< analytic sequence time, ms

/// A mixed OLTP+DSS workload over one shared object set — the
/// CH-benCHmark shape: the transaction mix and an analytic query sequence
/// contend for the same tables and indices with conflicting I/O profiles.
/// Composes an OltpWorkloadModel and a DssWorkloadModel (both over the
/// same schema and box, which must outlive this model) into one
/// WorkloadModel the whole optimizer stack — DOT, the TOC fast path, and
/// the exact branch-and-bound search — consumes unchanged.
///
/// Per-side times:
///
///   t_oltp(L) = mean transaction latency of the mix + Δ_oltp(L)
///   t_dss(L)  = completion time of one analytic sequence + Δ_dss(L)
///
/// where the base terms are exactly the inner models' arithmetic and the
/// Δs are the *additive interference model*: for every object o touched by
/// both sides, each side pays an extra device-time term that scales with
/// the other side's intensity on o and with the per-request latency of the
/// storage class o sits on — analytic scans make transactions queue behind
/// them, transactions dirty pages the analytic side must re-read. Both Δs
/// are Σ_o table[o][class(o)] sums over precomputed per-(object, class)
/// tables (the intensities are placement-independent), so the fast path
/// stays a table lookup and the branch-and-bound bound stays admissible.
///
/// SLA folding: sla_kind() is kPerQueryResponseTime with exactly two
/// unit-time entries, [kHtapOltpEntry] = t_oltp and [kHtapDssEntry] =
/// t_dss, so MakePerfTargets derives an OLTP mean-latency cap and a DSS
/// completion-time cap from one relative SLA and MeetsTargets enforces
/// both — per-side SLAs, one feasibility verdict.
///
/// Combined objective: tasks/hour = transactions/hour (from t_oltp through
/// the OLTP side's closed-loop throughput kernel) + analytic queries/hour
/// (ρ streams cycling the sequence, each cycle taking t_dss), so TOC =
/// cost / tasks prices both sides in one number and the mix ratio ρ tilts
/// the optimum between OLTP-favoring and DSS-favoring placements
/// (bench/bench_htap_mix.cpp sweeps it across the flip).
class HtapWorkload : public WorkloadModel {
 public:
  /// `oltp` and `dss` must be built over the same schema and box and
  /// outlive this model. Interference intensities are derived here, once:
  /// the OLTP side's from the (unscaled) transaction footprints, the DSS
  /// side's from the templates' placement-independent planner footprints.
  HtapWorkload(std::string name, const OltpWorkloadModel* oltp,
               const DssWorkloadModel* dss, const Schema* schema,
               const BoxConfig* box, HtapConfig config);

  const std::string& name() const override { return name_; }
  const Schema* schema() const override { return schema_; }
  const BoxConfig* box() const override { return box_; }
  double concurrency() const override { return oltp_->concurrency(); }
  SlaKind sla_kind() const override {
    return SlaKind::kPerQueryResponseTime;
  }
  PerfEstimate EstimateWithIoScale(
      const std::vector<int>& placement, const std::vector<double>& io_scale,
      bool need_io_by_object = true) const override;

  /// The executor's jitter hook: reruns the throughput composition from
  /// the two (perturbed) folded times — tpmc and the OLTP rate from
  /// t_oltp through the contention kernel, the analytic rate from t_dss —
  /// instead of the DSS default, whose sequence semantics do not apply to
  /// the folded entries.
  void RederiveFromUnitTimes(PerfEstimate* est) const override;

  /// Composite TOC fast path: the OLTP side's OltpLatencyTables, the DSS
  /// side's plan-cache scorer, and the interference tables, combined by
  /// exactly the arithmetic Estimate runs — bit-identical. Its BoundCursor
  /// sums the two sides' admissible bounds (plus the interference minima),
  /// which is itself admissible, so branch-and-bound search works out of
  /// the box. `query_caps_ms` must hold the two folded caps.
  std::unique_ptr<FastScorer> MakeFastScorer(
      const std::vector<double>& io_scale,
      const std::vector<double>& query_caps_ms, double min_tpmc,
      double sla_tolerance) const override;

  const OltpWorkloadModel& oltp() const { return *oltp_; }
  const DssWorkloadModel& dss() const { return *dss_; }
  const HtapConfig& config() const { return config_; }

  /// Interference tables in structure-of-arrays form: the shared objects
  /// (ascending id) and, per side, one contiguous time[class][row] plane —
  /// interference_*_ms(row, cls) is the time added per unit of that side's
  /// work when the row's object sits on `cls`. Both interference sums are
  /// one PlaneGatherSum over the row count.
  int num_interference_rows() const {
    return static_cast<int>(if_objects_.size());
  }
  int interference_object(int row) const {
    return if_objects_[static_cast<size_t>(row)];
  }
  /// Added to the mean transaction latency.
  double interference_oltp_ms(int row, int cls) const {
    return if_oltp_plane_[static_cast<size_t>(cls) * if_objects_.size() +
                          static_cast<size_t>(row)];
  }
  /// Added to the analytic sequence time.
  double interference_dss_ms(int row, int cls) const {
    return if_dss_plane_[static_cast<size_t>(cls) * if_objects_.size() +
                         static_cast<size_t>(row)];
  }

  // Shared kernels between Estimate and the fast scorer — both paths must
  // run exactly these (same rows, same order) for bit-identity. Not
  // intended for external use beyond tests.

  /// Δ_oltp(L): Σ over shared objects (ascending id) of the OLTP-side
  /// interference term at the object's class.
  double OltpInterferenceMs(const std::vector<int>& placement) const;

  /// Δ_dss(L): the DSS-side analogue.
  double DssInterferenceMs(const std::vector<int>& placement) const;

  /// Analytic task rate when one sequence cycle takes `dss_total_ms`:
  /// ρ streams, sequence-length queries per cycle, each query worth
  /// analytics_task_weight transaction-equivalent tasks.
  double AnalyticsTasksPerHour(double dss_total_ms) const;

 private:
  std::string name_;
  const OltpWorkloadModel* oltp_;
  const DssWorkloadModel* dss_;
  const Schema* schema_;
  const BoxConfig* box_;
  HtapConfig config_;
  /// Interference SoA (see accessors above): objects touched by both
  /// sides, ascending id, plus one [class * num_rows + row] plane per
  /// side. Empty when interference_kappa == 0 or a side is idle.
  std::vector<int> if_objects_;
  std::vector<double> if_oltp_plane_;
  std::vector<double> if_dss_plane_;
};

/// Everything a CH-benCHmark-style HTAP instance needs, with the inner
/// models owned alongside the composite (HtapWorkload keeps raw pointers).
struct HtapBundle {
  std::unique_ptr<OltpWorkloadModel> oltp;
  std::unique_ptr<DssWorkloadModel> dss;
  std::unique_ptr<HtapWorkload> htap;
};

/// Wires the TPC-C transaction mix and the CH-benCH analytic templates
/// (catalog/chbench.h, filtered to the schema's tables so reduced schemas
/// work) over one schema/box into an HtapWorkload. `analytics_reps` is the
/// per-template repetition count of the analytic run sequence.
HtapBundle MakeChbenchHtapWorkload(const Schema* schema, const BoxConfig* box,
                                   const HtapConfig& config,
                                   const TpccConfig& tpcc_config = {},
                                   int analytics_reps = 1);

}  // namespace dot

#endif  // DOTPROV_WORKLOAD_HTAP_WORKLOAD_H_
