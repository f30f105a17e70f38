// The probe pass of the traced run: calls the library entry points that
// run inside Solve (scorer build, Score, BoundCursor, kernels, PlanQuery,
// Estimate, ...) directly, on a workload's own models and placements, so
// each inner layer gets a timing without spans inside the library.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstddef>
#include <vector>

#include "advisor/feed.h"
#include "dot/optimizer.h"
#include "dot/problem.h"
#include "harness.h"
#include "workload.h"
#include "workload/dss_workload.h"
#include "workload/trace.h"

namespace perfbench {

/// The trace feed the benchmark owns: replays events [begin, end) of a
/// recorded trace, so a session can be fed one day or one window at a time.
class SliceFeed : public dot::TraceFeed {
 public:
  SliceFeed(const dot::WorkloadTrace* trace, size_t begin, size_t end)
      : trace_(trace), next_(begin), end_(end) {}
  bool Next(dot::TraceEvent* event) override {
    if (next_ >= end_) return false;
    *event = trace_->events[next_++];
    return true;
  }

 private:
  const dot::WorkloadTrace* trace_;
  size_t next_;
  size_t end_;
};

/// The dot.* engine counters of one pass's ops, summed per op.
struct DotCounters {
  int ops = 0;
  long long layouts = 0;
  long long expanded = 0;
  long long pruned_bound = 0;
  long long pruned_infeasible = 0;
  long long cache_hits = 0;
  long long cache_misses = 0;
  long long arena_peak = 0;
  double solve_ms = 0.0;

  void Add(const dot::DotResult& r);
  /// Writes per-op means (and solve time, node rate, hit ratio).
  void WriteTo(LayerValues* out) const;
};

/// One problem of a workload, with the placement the workload chose for it.
struct ProbeProblem {
  dot::DotProblem problem;  ///< points into the workload's inputs
  std::vector<int> winner;
  /// The model whose templates PlanQuery is probed with; null when the
  /// problem has no analytic side.
  const dot::DssWorkloadModel* dss = nullptr;
};

/// Fills every per-layer value the probes measure. Per-call probes run on
/// every problem (winner plus its single-object neighbours) and report the
/// mean over problems of each problem's median. The engine probes (an
/// exact solve, a four-window trace record and replay, a four-window
/// advisor fed one window at a time that re-plans every second window, a
/// two-tenant fleet) run on
/// problems[0]; a workload that drives an engine itself overwrites those
/// values with its own.
void RunProbes(const std::vector<ProbeProblem>& problems, Tracer* tracer,
               LayerValues* out);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
