#ifndef DOTPROV_WORKLOAD_OLTP_WORKLOAD_H_
#define DOTPROV_WORKLOAD_OLTP_WORKLOAD_H_

#include <cstddef>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "storage/storage_class.h"
#include "workload/workload.h"

namespace dot {

/// One OLTP transaction type: its share of the mix and its per-execution
/// I/O footprint over the schema's objects, plus CPU and fixed overhead
/// (locking, logging, network round trips).
struct TxnType {
  std::string name;
  double weight = 0.0;  ///< fraction of the mix, Σ over types = 1
  ObjectIoMap io;       ///< per-object I/O counts per execution
  double cpu_ms = 0.0;
  double overhead_ms = 0.0;
};

/// An OLTP workload modeled as a transaction mix run by `concurrency`
/// closed-loop terminals with zero think time (the paper's DBT-2 setup:
/// 300 DB connections, 1 terminal/warehouse, no think time, §4.5).
///
/// Unlike the DSS model, plans are fixed: §4.5.1 observes that TPC-C I/O is
/// random regardless of placement, so the per-transaction footprints do not
/// change with layout — only the time each I/O takes does.
///
/// Throughput model: each terminal executes transactions back to back, so
/// with mix-weighted mean latency t̄(L) at concurrency c the aggregate rate
/// is c / t̄_eff(L) transactions per unit time, and tpmC is the New-Order
/// share of that. t̄_eff = t̄ / (1 - t̄/t_sat) adds the saturation-style
/// lock-convoy degradation closed-loop TPC-C systems exhibit once
/// per-transaction latencies grow: slow storage doesn't just stretch
/// transactions, it makes them hold locks longer and collide more, and
/// throughput collapses as the mean latency approaches the saturation
/// scale t_sat (an M/M/1-flavoured model with the lock/CPU subsystem as
/// the shared server). Without this term no layout ever falls below ~13%
/// of the all-H-SSD throughput (Table 1's concurrency-300 latencies span
/// only ~7x end to end), and the paper's SLA-0.125 runs (Figure 8) would
/// be trivially satisfied by the cheapest class.
class OltpWorkloadModel : public WorkloadModel {
 public:
  /// `schema` and `box` must outlive the model. `contention_reference_ms`
  /// is the saturation latency scale t_sat; <= 0 disables the term.
  OltpWorkloadModel(std::string name, const Schema* schema,
                    const BoxConfig* box, std::vector<TxnType> txn_types,
                    double concurrency, double measurement_period_ms,
                    double contention_reference_ms = 190.0);

  const std::string& name() const override { return name_; }
  const Schema* schema() const override { return schema_; }
  const BoxConfig* box() const override { return box_; }
  double concurrency() const override { return concurrency_; }
  SlaKind sla_kind() const override { return SlaKind::kThroughput; }
  PerfEstimate EstimateWithIoScale(
      const std::vector<int>& placement, const std::vector<double>& io_scale,
      bool need_io_by_object = true) const override;
  bool PlansArePlacementInvariant() const override { return true; }

  /// TOC-only fast path: per-(transaction, object, class) device-time
  /// tables, so one candidate costs a fixed-order table-lookup sum with
  /// zero allocation. Bit-identical to EstimateWithIoScale (same summation
  /// order over the same precomputed per-object times).
  std::unique_ptr<FastScorer> MakeFastScorer(
      const std::vector<double>& io_scale,
      const std::vector<double>& query_caps_ms, double min_tpmc,
      double sla_tolerance) const override;

  const std::vector<TxnType>& txn_types() const { return txn_types_; }

  /// Index of the transaction type whose rate defines "tasks" (tpmC); the
  /// type named "NewOrder" if present, otherwise type 0.
  int primary_txn_index() const { return primary_txn_; }

  double measurement_period_ms() const { return measurement_period_ms_; }

  /// The mean-latency → throughput kernel (contention term + closed-loop
  /// rate + mix shares). Shared by the full estimate and the fast scorer so
  /// both run exactly the same arithmetic; not intended for external use.
  struct Throughput {
    double txns_per_minute = 0.0;
    double tpmc = 0.0;
    double tasks_per_hour = 0.0;
  };
  Throughput ThroughputFromMeanLatency(double mean_latency_ms) const;

  /// ThroughputFromMeanLatency's tpmC as an unreduced ratio:
  /// tpmc == *tpmc_num / *den with *den > 0, and tasks-per-hour is
  /// (*tpmc_num * 60) / *den — no division ever runs. Values match the
  /// divided form up to ULP-level re-association, so callers must only
  /// compare the ratio under an ε safety margin (the branch-and-bound
  /// bound path), never consume it as an exact score.
  void ThroughputRatioFromMeanLatency(double mean_latency_ms,
                                      double* tpmc_num, double* den) const;

 private:
  std::string name_;
  const Schema* schema_;
  const BoxConfig* box_;
  std::vector<TxnType> txn_types_;
  double concurrency_;
  double measurement_period_ms_;
  double contention_reference_ms_;
  int primary_txn_ = 0;
};

/// The arithmetic core of the OLTP fast path, extracted so the HTAP
/// composite scorer (workload/htap_workload.cc) runs *exactly* the same
/// mean-latency kernel as the pure OLTP scorer: per-(transaction, object,
/// class) device times precomputed once (with any io_scale baked in) and
/// summed per candidate in the same object order as IoTimeShareMs, so
/// MeanLatencyMs is bit-identical to the mix-weighted mean the model's
/// EstimateWithIoScale computes. Also carries the branch-and-bound tables:
/// the unconstrained latency minimum and the guaranteed per-(object, class)
/// excess, whose sum over any partial assignment lower-bounds the mean
/// latency of every completion.
class OltpLatencyTables {
 public:
  OltpLatencyTables(const OltpWorkloadModel& model, const BoxConfig& box,
                    const std::vector<double>& io_scale);

  /// Mix-weighted mean transaction latency under `placement`; the fast
  /// scorers' Score loop. No allocation.
  double MeanLatencyMs(const std::vector<int>& placement) const;

  /// Mean latency with every object on its per-row fastest class — the
  /// unconstrained minimum the bound stacks grow from.
  double base_mean_latency_ms() const { return base_mean_latency_ms_; }

  /// Guaranteed mean-latency increase of committing `object` to `cls`.
  double Excess(int object, int cls) const {
    return excess_[static_cast<size_t>(object) *
                       static_cast<size_t>(num_classes_) +
                   static_cast<size_t>(cls)];
  }

  /// Flat per-class Excess row of one object (Excess(object, c) ==
  /// ExcessRow(object)[c]) — the batched bound probe walks all classes of
  /// the object being assigned in one pass.
  const double* ExcessRow(int object) const {
    return excess_.data() +
           static_cast<size_t>(object) * static_cast<size_t>(num_classes_);
  }

  /// Spread of Excess across classes (a BnB variable-ordering hint).
  double SpreadMs(int object) const;

  int num_objects() const { return num_objects_; }
  int num_classes() const { return num_classes_; }

 private:
  /// One transaction type's slice of the SoA tables below. Rows are the
  /// transaction's non-zero-I/O objects in ascending object order —
  /// exactly the objects (and order) IoTimeShareMs visits, which is what
  /// keeps the fast gather bit-identical to the full estimate.
  struct TxnTable {
    double weight = 0.0;
    double cpu_ms = 0.0;
    double overhead_ms = 0.0;
    int num_rows = 0;
    std::size_t plane_begin = 0;  ///< into planes_ (num_classes*num_rows)
    std::size_t obj_begin = 0;    ///< into row_objects_
  };

  int num_objects_ = 0;
  int num_classes_ = 0;
  std::vector<TxnTable> tables_;
  /// Structure-of-arrays time planes: planes_[t.plane_begin + c*t.num_rows
  /// + r] is row r's device time on class c. One contiguous plane per
  /// class per table, so scoring a candidate is a contiguous gather over
  /// the class each row's object is placed on (PlaneGatherSum).
  std::vector<double> planes_;
  std::vector<int> row_objects_;  ///< ascending object ids, per table
  double base_mean_latency_ms_ = 0.0;
  std::vector<double> excess_;  ///< [object * num_classes + class]
};

}  // namespace dot

#endif  // DOTPROV_WORKLOAD_OLTP_WORKLOAD_H_
