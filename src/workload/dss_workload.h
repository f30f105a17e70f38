#ifndef DOTPROV_WORKLOAD_DSS_WORKLOAD_H_
#define DOTPROV_WORKLOAD_DSS_WORKLOAD_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "query/compiled_template.h"
#include "query/planner.h"
#include "query/query_spec.h"
#include "storage/storage_class.h"
#include "workload/workload.h"

namespace dot {

/// A decision-support workload: a sequence of query-template instances
/// executed one after another (§2.3 with c = 1, as in all the paper's TPC-H
/// experiments). Performance estimates come from the storage-aware planner,
/// so plan choice — and therefore the per-object I/O profile — responds to
/// the candidate placement.
///
/// The model snapshots the box's device latencies at construction: each
/// template is compiled once into a CompiledTemplate, which RunTemplate
/// runs for the full estimate and the fast scorer alike; workload_dss_test
/// pins both against the Planner's plan trees. Capacities (set_capacity_gb)
/// are not part of the snapshot; they never enter a plan.
class DssWorkloadModel : public WorkloadModel {
 public:
  /// Footprints above this many placements get no dense plan cache in the
  /// fast scorer: M^|footprint| grows fast, and 8192 doubles (64 KiB) per
  /// template is where the dense array stops paying for itself. Their
  /// probes run the compiled program, behind each bound cursor's and move
  /// walk's private memo.
  static constexpr std::int64_t kDenseCacheMaxEntries = 8192;

  /// `schema` and `box` must outlive the model. `sequence[i]` indexes into
  /// `templates` and defines the executed query order (e.g. the paper's 66
  /// = 22 templates x 3 repetitions).
  DssWorkloadModel(std::string name, const Schema* schema,
                   const BoxConfig* box, std::vector<QuerySpec> templates,
                   std::vector<int> sequence, PlannerConfig planner_config);

  const std::string& name() const override { return name_; }
  const Schema* schema() const override { return schema_; }
  const BoxConfig* box() const override { return box_; }
  /// The planning concurrency (PlannerConfig::concurrency), at which every
  /// plan and every scaled re-price is timed.
  double concurrency() const override { return planner_.config().concurrency; }
  SlaKind sla_kind() const override {
    return SlaKind::kPerQueryResponseTime;
  }
  PerfEstimate EstimateWithIoScale(
      const std::vector<int>& placement, const std::vector<double>& io_scale,
      bool need_io_by_object = true) const override;

  /// TOC-only fast path: each template's time comes from RunTemplate,
  /// behind a lock-free dense cache keyed by the placement restricted to
  /// the template's footprint when that footprint has at most
  /// kDenseCacheMaxEntries placements (larger ones are memoized per bound
  /// cursor and per move walk). Bit-identical to EstimateWithIoScale, which
  /// sums the same RunTemplate times.
  std::unique_ptr<FastScorer> MakeFastScorer(
      const std::vector<double>& io_scale,
      const std::vector<double>& query_caps_ms, double min_tpmc,
      double sla_tolerance) const override;

  const std::vector<QuerySpec>& templates() const { return templates_; }
  const std::vector<int>& sequence() const { return sequence_; }
  /// seq_count()[t]: how often template t occurs in sequence(); 0 for a
  /// template the sequence never runs (never priced, time 0).
  const std::vector<int>& seq_count() const { return seq_count_; }
  const Planner& planner() const { return planner_; }
  /// templates()[t] compiled for this model's schema, box and planner
  /// config.
  const std::vector<CompiledTemplate>& compiled() const { return compiled_; }

  /// Template `t` under `placement`: its compiled program's result, or
  /// with an `io_scale` the (unscaled-cost) plan's per-object I/O scaled
  /// and re-priced on the program's latency rows (PriceIoMs, at the
  /// planning concurrency), time_ms = io_ms + cpu_ms. The plan is chosen
  /// on unscaled costs, so the scaled time is no program run's per-step
  /// minimum; CompiledTemplate::RunScaled on the optimistic column still
  /// bounds it from below. A non-null `io` is zeroed and receives that
  /// I/O; otherwise per-thread scratch holds it, zeroed and read only on
  /// the footprint.
  CompiledTemplate::Result RunTemplate(int t, const std::vector<int>& placement,
                                       const std::vector<double>& io_scale,
                                       ObjectIoMap* io = nullptr) const;

  /// The footprints of the templates the sequence runs, indexed both ways
  /// for the fast scorer (built with the model).
  struct FootprintIndex {
    /// One (template, footprint entry) pair of an object.
    struct Row {
      int t = 0;
      int k = 0;
    };
    /// Template t owns objects[offsets[t] .. offsets[t + 1]): its compiled
    /// footprint, empty when seq_count()[t] == 0. An entry's index k keys
    /// the conditional floors.
    std::vector<int> offsets;  ///< T + 1
    std::vector<int> objects;
    /// Object o owns rows[row_offsets[o] .. row_offsets[o + 1]), in
    /// template order.
    std::vector<int> row_offsets;  ///< N + 1
    std::vector<Row> rows;
  };
  const FootprintIndex& footprints() const { return footprints_; }

  /// Admissible per-template time floors (DESIGN.md §5), deflated by
  /// kBoundSafety: `by_template[t]` with every footprint object on the
  /// optimistic column, `cond[k · M + c]` with footprint entry k pinned to
  /// class c and the rest optimistic. Zero for unused templates.
  struct Floors {
    std::vector<double> by_template;
    std::vector<double> cond;
  };
  /// The floors under `io_scale` (empty = unscaled): T · (1 + |fp| · M)
  /// program runs.
  Floors BuildFloors(const std::vector<double>& io_scale) const;
  /// BuildFloors({}), built on the first call (thread-safe) and kept for
  /// the model's lifetime: every unscaled fast scorer of the model reads
  /// these. The model's constructor does not build them, so a model that
  /// never bounds anything never pays for them.
  const Floors& UnscaledFloors() const;
  /// Template `t`'s program run (CompiledTemplate::RunScaled under an
  /// io_scale) on `probe`, whose footprint entries are real classes or the
  /// optimistic column, deflated by kBoundSafety: a floor over every
  /// placement that agrees with `probe` on its real entries.
  double FloorOf(int t, const int* probe,
                 const std::vector<double>& io_scale) const;

 private:
  std::string name_;
  const Schema* schema_;
  const BoxConfig* box_;
  std::vector<QuerySpec> templates_;
  std::vector<int> sequence_;
  std::vector<int> seq_count_;  ///< occurrences of each template in sequence_
  Planner planner_;
  std::vector<CompiledTemplate> compiled_;
  FootprintIndex footprints_;
  mutable std::once_flag floors_once_;
  mutable Floors floors_;  ///< UnscaledFloors(), once built
};

}  // namespace dot

#endif  // DOTPROV_WORKLOAD_DSS_WORKLOAD_H_
