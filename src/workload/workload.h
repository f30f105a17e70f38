#ifndef DOTPROV_WORKLOAD_WORKLOAD_H_
#define DOTPROV_WORKLOAD_WORKLOAD_H_

#include <memory>
#include <string>
#include <vector>

#include "query/object_io.h"

namespace dot {

class Schema;

/// How the SLA constrains a workload (§2.4): per-query response-time caps
/// for DSS workloads, an aggregate throughput floor for OLTP (§4.3).
enum class SlaKind {
  kPerQueryResponseTime,
  kThroughput,
};

/// Performance estimate of one workload execution under one placement.
struct PerfEstimate {
  /// t(L, W): completion time of the whole workload, ms. For OLTP models
  /// this is the fixed measurement period (§4.5: one hour).
  double elapsed_ms = 0.0;

  /// Per-unit times: one entry per query instance in the run sequence (DSS)
  /// or the mix-weighted mean transaction latencies per type (OLTP).
  std::vector<double> unit_times_ms;

  /// Completed tasks per hour (queries for DSS, New-Order transactions for
  /// OLTP). TOC per task = C(L) / tasks_per_hour (§2.1).
  double tasks_per_hour = 0.0;

  /// New-Order transactions per minute; 0 for DSS workloads.
  double tpmc = 0.0;

  /// Total per-object I/O of the execution (the basis of workload profiles
  /// and of the refinement phase's runtime statistics).
  ObjectIoMap io_by_object;

  /// Join-method census across all planned queries (DSS only).
  int num_joins = 0;
  int num_index_nl_joins = 0;
};

/// The TOC-only scoring result of the candidate-evaluation fast path: just
/// the scalars the search loops consume, with no unit-time vector and no
/// per-object I/O map (see DESIGN.md §4). Every field must be bit-identical
/// to what the corresponding full Estimate would produce — the fast path is
/// an evaluation-order-preserving reorganization, not an approximation.
struct QuickPerf {
  double elapsed_ms = 0.0;
  double tasks_per_hour = 0.0;
  double tpmc = 0.0;
  /// Verdict of the model's SLA check against the caps the scorer was built
  /// with (per-entry response-time caps for DSS, the tpmC floor for OLTP).
  bool sla_ok = false;
};

/// Relative safety margin every admissible bound is deflated by before it
/// is compared against anything exact (see DESIGN.md §5). The bounds the
/// branch-and-bound search consumes are admissible in real arithmetic; the
/// deflation absorbs the few-ULP floating-point drift between a bound's
/// summation order and the exact evaluation's, so a bound can never
/// spuriously exceed the true value and prune the optimum. 1e-9 is ~6
/// orders of magnitude above accumulated rounding error on these problem
/// sizes and ~3 below any TOC difference the search cares about.
inline constexpr double kBoundSafety = 1e-9;

/// Allocation-free candidate scorer a workload model can offer the search
/// engine. Built once per optimization run (per-object device-time tables
/// for OLTP, compiled query templates behind a dense plan cache for DSS)
/// and then queried for thousands of candidate placements.
///
/// Thread-safety: Score() must be safe to call concurrently (internal caches
/// synchronize themselves); a BoundCursor is single-threaded state, so the
/// branch-and-bound search and each shard of an enumeration scan create
/// their own.
class FastScorer {
 public:
  virtual ~FastScorer() = default;

  /// Scores one placement. Bit-identical to the model's full estimate.
  virtual QuickPerf Score(const std::vector<int>& placement) const = 0;

  /// Partial-placement walker for the exact branch-and-bound search
  /// (dot/bnb_search.h): the search assigns objects one at a time and asks
  /// for an *optimistic completion score* at every node. The contract, in
  /// decreasing order of importance:
  ///
  ///   1. Admissible: Optimistic().tasks_per_hour is an upper bound on
  ///      Score(p').tasks_per_hour over every full placement p' extending
  ///      the current partial assignment (0 stands for "unbounded"), and
  ///      Optimistic().sla_ok is false only when *no* extension can meet
  ///      the caps. Implementations deflate floating-point-noisy terms by
  ///      kBoundSafety so admissibility survives rounding. Admissible
  ///      bounds compose: a workload summing independent parts (the HTAP
  ///      model) may sum its parts' bounds — per-side upper bounds on
  ///      throughput add to a combined upper bound, per-side time lower
  ///      bounds add to a combined lower bound.
  ///   2. Exact at the leaves: with every object assigned, Optimistic()
  ///      must be bit-identical to Score(placement) — the search evaluates
  ///      leaves through this path and its results must match the
  ///      enumerating search bit for bit.
  ///
  /// Assign/Unassign follow the search's LIFO discipline, and the cursors
  /// rely on it: each Unassign restores the state its matching Assign
  /// saved (per-depth snapshots for OLTP and HTAP, an undo stack of
  /// per-template times for DSS), including anything Tighten raised since,
  /// so an out-of-order Unassign would restore the wrong values; the DSS
  /// cursor DOT_CHECKs it. A BoundCursor is single-threaded state; each
  /// search creates its own.
  class BoundCursor {
   public:
    virtual ~BoundCursor() = default;
    /// Clears to "no object assigned".
    virtual void Reset() = 0;
    /// `placement[object_id]` already holds the newly assigned class.
    virtual void Assign(int object_id, const std::vector<int>& placement) = 0;
    /// Backtracks the most recent Assign of `object_id`.
    virtual void Unassign(int object_id) = 0;
    /// The optimistic completion score (see contract above). `placement`
    /// entries of unassigned objects are not read.
    virtual QuickPerf Optimistic(const std::vector<int>& placement) const = 0;
    /// Optionally spends more work to raise the bound of the current node,
    /// which the most recent Assign entered; returns true when Optimistic()
    /// may have moved. It may only tighten state the most recent Assign
    /// saved, so its Unassign undoes both, and Optimistic() stays
    /// admissible and leaf-exact. Branch-and-bound calls it once per node
    /// it descends into (never for probes), and re-checks the node when it
    /// returns true; enumeration never calls it. The default does nothing.
    /// The DSS cursor re-runs each incomplete template the object touches
    /// with every assigned object pinned; the ensemble cursor forwards to
    /// its children, and the HTAP cursor to its DSS side (DESIGN.md §5).
    virtual bool Tighten(const std::vector<int>& placement) {
      (void)placement;
      return false;
    }
    /// Batched interior probe for the branch-and-bound inner loop: for
    /// every class c in [0, num_classes) with mask[c] != 0, evaluates the
    /// optimistic completion that assigns `object` to c and writes it to
    /// out[c] (masked-off entries are left untouched), with the optimistic
    /// throughput as an unreduced ratio: out[c].tasks_per_hour is the
    /// numerator and tp_den[c] the (positive) denominator. Models whose
    /// throughput conversion divides can fill both sides without ever
    /// dividing; the search prunes and orders children by cross-multiplied
    /// compares under the kBoundSafety margin, so the ULP-level difference
    /// from the divided value never cuts a tying completion. out[c].sla_ok
    /// keeps its exact meaning; out[c]'s other fields are unspecified.
    /// `placement` is scratch — the probed object's entry may be
    /// overwritten and holds an unspecified class on return. The default
    /// writes every denominator 1 and runs the Assign / Optimistic /
    /// Unassign sequence per class in ascending order; overrides exist so
    /// table-driven models can skip the per-class state push. Callers only
    /// probe classes whose child node is interior (the search evaluates
    /// leaves through Assign/Optimistic so they keep the exact Score
    /// kernel).
    virtual void ProbeClasses(int object, std::vector<int>& placement,
                              int num_classes, const unsigned char* mask,
                              QuickPerf* out, double* tp_den) {
      for (int cls = 0; cls < num_classes; ++cls) {
        if (mask[cls] == 0) continue;
        tp_den[cls] = 1.0;
        placement[static_cast<size_t>(object)] = cls;
        Assign(object, placement);
        out[cls] = Optimistic(placement);
        Unassign(object);
      }
    }
  };

  /// Returns a fresh bound cursor. The exact search walks it both ways:
  /// branch-and-bound probes interior nodes, and enumeration replays an
  /// odometer through Assign/Unassign and scores every leaf with
  /// Optimistic().
  virtual std::unique_ptr<BoundCursor> MakeBoundCursor() const = 0;

  /// Move pricer for the DOT walk (dot/optimizer.h), which judges one
  /// group move at a time against a committed placement. Every Price must
  /// be bit-identical to Score(candidate). A MoveWalk is single-threaded
  /// state.
  ///
  /// `candidate` differs from the committed placement only in the objects
  /// listed in `moved` (objects listed but unchanged are allowed). Commit
  /// makes such a candidate the committed placement, whether or not it was
  /// priced since the last Commit.
  ///
  /// Bound is the walk's gate (DESIGN.md §2): an optimistic score of the
  /// candidate under BoundCursor::Optimistic's contract — tasks_per_hour
  /// an admissible upper bound on Price's (0 means unbounded), sla_ok
  /// false only when Price's must be false — cheap enough that the walk
  /// rejects a move from it without pricing it. It leaves the committed
  /// state as it was, so a later Price or Commit returns and does what it
  /// would have without it. The default is "no bound"
  /// (0, true), so the walk prices every move. The DSS walk bounds each
  /// template the move touches by the max of its footprint's conditional
  /// floors at the candidate's classes, and keeps the committed exact time
  /// of every other template.
  class MoveWalk {
   public:
    virtual ~MoveWalk() = default;
    virtual QuickPerf Price(const std::vector<int>& candidate,
                            const std::vector<int>& moved) = 0;
    virtual QuickPerf Bound(const std::vector<int>& candidate,
                            const std::vector<int>& moved) {
      (void)candidate;
      (void)moved;
      QuickPerf none;
      none.sla_ok = true;
      return none;
    }
    virtual void Commit(const std::vector<int>& candidate,
                        const std::vector<int>& moved) = 0;
  };

  /// Returns a walk whose committed placement is `start`. The default
  /// walk holds nothing: Price is Score, Commit does nothing and Bound is
  /// the default. The DSS scorer keeps the committed per-template times
  /// and re-prices only the templates a move touches.
  virtual std::unique_ptr<MoveWalk> MakeMoveWalk(
      const std::vector<int>& start) const;

  /// Spread of object `object`'s guaranteed workload-time contribution
  /// across storage classes, in ms (0 when unknown). A variable-ordering
  /// hint for the branch-and-bound search — objects whose placement moves
  /// the workload time the most are assigned first — never a bound.
  virtual double ObjectTimeSpreadMs(int object) const {
    (void)object;
    return 0.0;
  }

  /// Plan-cache traffic (0/0 for models without a plan cache).
  virtual long long cache_hits() const { return 0; }
  virtual long long cache_misses() const { return 0; }
};

/// A provisioning workload W: something DOT can ask for a performance
/// estimate under any candidate placement. Implementations: DssWorkloadModel
/// (plans each query with the storage-aware optimizer) and OltpWorkloadModel
/// (transaction-mix I/O footprints at high concurrency).
class WorkloadModel {
 public:
  virtual ~WorkloadModel() = default;

  virtual const std::string& name() const = 0;

  /// The schema the model is built over: placements, I/O maps and io_scale
  /// vectors are indexed by its object ids.
  virtual const Schema* schema() const = 0;

  /// The box the model prices placements on: placement entries index its
  /// classes.
  virtual const BoxConfig* box() const = 0;

  /// Degree of concurrency the workload runs at (§3.5: 1 for the DSS
  /// experiments, 300 for TPC-C).
  virtual double concurrency() const = 0;

  virtual SlaKind sla_kind() const = 0;

  /// Estimates performance under `placement` (object id → storage class):
  /// EstimateWithIoScale with no scaling.
  PerfEstimate Estimate(const std::vector<int>& placement) const {
    return EstimateWithIoScale(placement, {});
  }

  /// Like Estimate, but with each object's I/O counts multiplied by
  /// `io_scale[o]` before timing. Models a workload whose true I/O deviates
  /// from what the optimizer predicted — the situation the validation and
  /// refinement phases exist to catch. An empty vector means no scaling.
  /// `need_io_by_object = false` lets callers that only consume times and
  /// throughput skip the total-I/O accumulation (io_by_object comes back
  /// empty); every other field is unaffected.
  virtual PerfEstimate EstimateWithIoScale(
      const std::vector<int>& placement, const std::vector<double>& io_scale,
      bool need_io_by_object = true) const = 0;

  /// Builds this model's fast scorer. `query_caps_ms` aligns with
  /// unit_times_ms (per run-sequence entry) and is consulted for
  /// kPerQueryResponseTime models; `min_tpmc` for kThroughput models.
  /// `sla_tolerance` must be the tolerance the caller's full-path SLA check
  /// uses. `io_scale` is baked into the scorer's tables.
  virtual std::unique_ptr<FastScorer> MakeFastScorer(
      const std::vector<double>& io_scale,
      const std::vector<double>& query_caps_ms, double min_tpmc,
      double sla_tolerance) const = 0;

  /// True when the workload's plans cannot change with placement (§4.5.1:
  /// TPC-C is all random access), letting the profiler collapse all
  /// baseline layouts into one.
  virtual bool PlansArePlacementInvariant() const { return false; }

  /// Recomputes the scalars derivable from unit_times_ms (elapsed_ms,
  /// tasks_per_hour, tpmc) after a caller perturbed the unit times — the
  /// test-run executor's hook, so each model owns the meaning of its own
  /// entries. The default implements the DSS convention (elapsed = Σ
  /// entries, tasks/hour = entries per elapsed hour) and is a no-op for
  /// throughput models, whose executor jitters the rate directly; the
  /// HTAP model reruns its throughput composition from the two folded
  /// per-side times.
  virtual void RederiveFromUnitTimes(PerfEstimate* est) const;
};

/// Uniform placement: every object on storage class `cls`.
std::vector<int> UniformPlacement(int num_objects, int cls);

}  // namespace dot

#endif  // DOTPROV_WORKLOAD_WORKLOAD_H_
