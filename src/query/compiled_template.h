#ifndef DOTPROV_QUERY_COMPILED_TEMPLATE_H_
#define DOTPROV_QUERY_COMPILED_TEMPLATE_H_

#include <string>
#include <vector>

#include "catalog/schema.h"
#include "io/io_types.h"
#include "query/planner.h"
#include "query/query_spec.h"
#include "storage/storage_class.h"

namespace dot {

/// One query template compiled for a fixed (schema, box, PlannerConfig):
/// Planner::PlanQuery with everything placement-independent folded in.
///
/// Every row count, page count and IoVector PlanQuery derives depends only
/// on the schema, the template and the config; a placement enters only
/// through the device time of each I/O entry on its object's class. The
/// program keeps, per access path and join candidate, those entries with
/// their object ids resolved, a device-time table with one column per
/// storage class, and the CPU terms. Run() makes PlanQuery's comparisons
/// (index vs. seq scan, INLJ vs. hash join) and the plan-tree walk's
/// pre-order io_ms / cpu_ms additions in the same order, so its results
/// are bit-identical to PlanQuery's — with no strings, no allocation and
/// no schema lookups.
///
/// The table carries one extra, optimistic column (index NumClasses()):
/// a device whose latency anchors are, per I/O type, the minimum over the
/// box's classes. Its times lower-bound every real class's, which the DSS
/// branch-and-bound floors use.
///
/// Device latencies are read once, at compilation: one row per column,
/// kept for PriceIoMs.
class CompiledTemplate {
 public:
  /// Compiles each of `templates` for one (schema, box, config); the
  /// per-class latencies are computed once for the whole set.
  static std::vector<CompiledTemplate> Compile(
      const Schema& schema, const BoxConfig& box, const PlannerConfig& config,
      const std::vector<QuerySpec>& templates);

  /// PlanQuery's totals and join census for one placement.
  struct Result {
    double time_ms = 0.0;
    double io_ms = 0.0;
    double cpu_ms = 0.0;
    int num_joins = 0;
    int num_index_nl_joins = 0;
  };

  /// Plans under `placement` (object id → class in [0, optimistic_class()];
  /// only footprint() entries are read). A non-null `io_by_object` (indexed
  /// by object id) receives the chosen plan's per-object I/O, added in
  /// tree-walk order: a zeroed map ends equal to Plan::io_by_object.
  Result Run(const int* placement, IoVector* io_by_object = nullptr) const;

  /// Run with each entry's device time multiplied by its object's factor
  /// in `io_scale` (indexed by object id, each >= 0): every step picks its
  /// cheapest candidate under the scaled times, and time_ms is that
  /// plan's scaled time. With each footprint object on its real class or
  /// on the optimistic column, this lower-bounds (up to rounding) the
  /// scaled re-price RunTemplate reports at every placement that agrees
  /// with it on the real classes: see DssFastScorer::EnsureFloors.
  Result RunScaled(const int* placement, const double* io_scale) const;

  /// The I/O time of `io_by_object` (indexed by object id) on the
  /// footprint under `placement`, priced on the program's latency rows:
  /// per object with non-zero I/O, Σ count × latency over the I/O types in
  /// type order (zero counts skipped), then BlockedSum over the sorted
  /// footprint. These are IoTimeShareMs's addends and schedule at the
  /// planning concurrency, without a LatencyMs call.
  double PriceIoMs(const int* placement, const IoVector* io_by_object) const;

  /// The sorted, deduplicated object ids whose class the program can read:
  /// every referenced table, its primary index, and the temp object when
  /// spills are modeled. Two placements that agree on the footprint get the
  /// same plan and the same time.
  const std::vector<int>& footprint() const { return footprint_; }

  /// The column index of the optimistic device.
  int optimistic_class() const { return stride_ - 1; }

 private:
  /// `latency[c]` holds column c's per-type latencies at the planning
  /// concurrency, the optimistic column last.
  CompiledTemplate(const Schema& schema, const std::vector<IoVector>& latency,
                   const PlannerConfig& config, const QuerySpec& spec);

  /// One base-relation access: the seq scan, and the index scan when the
  /// predicate is sargable on a primary index.
  struct Access {
    int seq = -1;  ///< entry: table, sequential pages
    int idx = -1;  ///< entries idx (index) and idx + 1 (heap); -1 = none
    double seq_cpu_ms = 0.0;
    double idx_cpu_ms = 0.0;
  };
  /// The chosen access path of one relation under one placement.
  struct AccessChoice {
    double io_ms = 0.0;
    double cpu_ms = 0.0;
    double total_ms = 0.0;
    int entry = -1;       ///< first io entry
    int num_entries = 0;  ///< 1 (seq scan) or 2 (index scan)
  };
  /// One left-deep join step and its two candidates.
  struct Join {
    Access inner;    ///< the hash join's build side
    int spill = -1;  ///< hash join's temp entry; -1 = no spill
    double hj_cpu_ms = 0.0;
    int inlj = -1;  ///< entries inlj (index) and inlj + 1 (heap); -1 = none
    double inlj_cpu_ms = 0.0;
  };

  /// One object's I/O in one plan node.
  struct Entry {
    int object = -1;
    IoVector io;
  };

  /// Resolves a relation's table id and adds it and its primary index to
  /// the footprint.
  int ResolveTable(const Schema& schema, const std::string& name);
  /// Appends an io entry (its time row is filled at the end of the
  /// constructor) and returns its index.
  int AddEntry(int object_id, const IoVector& io);
  Access CompileAccess(const Schema& schema, const PlannerConfig& config,
                       const RelationAccess& ra, int table_id);

  double Time(int entry, const int* placement) const {
    const size_t e = static_cast<size_t>(entry);
    return times_[e * static_cast<size_t>(stride_) +
                  static_cast<size_t>(placement[entries_[e].object])];
  }
  /// Run's comparisons and tree walk over the entry times `time(entry)`
  /// returns: Run reads the table, RunScaled scales what it reads.
  template <class EntryTime>
  Result Walk(const EntryTime& time, IoVector* io_by_object) const;
  template <class EntryTime>
  AccessChoice Choose(const Access& a, const EntryTime& time) const;
  /// True when `join` picks the indexed nested-loop join.
  template <class EntryTime>
  bool ChoosesInlj(const Join& join, const EntryTime& time) const;
  void AddIo(int entry, int num_entries, IoVector* io_by_object) const;

  std::vector<int> footprint_;
  std::vector<Entry> entries_;
  /// Per-type latencies of each column at the planning concurrency, the
  /// optimistic column last.
  std::vector<IoVector> latency_;
  /// Device time of each entry per column: [entry * stride_ + class], the
  /// optimistic column last.
  std::vector<double> times_;
  int stride_ = 0;

  Access first_;
  std::vector<Join> joins_;
  bool has_sort_ = false;
  int sort_spill_ = -1;  ///< sort's temp entry; -1 = no spill
  double sort_cpu_ms_ = 0.0;
  double agg_cpu_ms_ = 0.0;
};

}  // namespace dot

#endif  // DOTPROV_QUERY_COMPILED_TEMPLATE_H_
