// tpch-exact: the search-bound case. One op is Solve(kExact) on the full
// 16-object TPC-H schema (22 templates x 3) at relative SLA 0.5, on Box 1
// or Box 2 with a seed-drawn HDD-class capacity cap. Branch-and-bound
// probes, scoring kernels and plan-cache hits do the work; the executor
// does none.
#include <memory>
#include <vector>

#include "dot/layout.h"
#include "dot/optimizer.h"
#include "dot/solve.h"
#include "probes.h"
#include "tpch_inputs.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr double kSla = 0.5;
// Instances per pass. Box 1 solves take ~8x a Box 2 solve; with 4 of 20,
// p50 is the 62nd percentile of the Box 2 solves and p90 the median of the
// Box 1 solves, both away from the tails and from the boundary between
// the groups.
constexpr int kBox1Instances = 4;
constexpr int kBox2Instances = 16;

class TpchExact : public Workload {
 public:
  explicit TpchExact(uint64_t seed) : seed_(seed) {}

  void SetUp(Tracer* tracer) override {
    SeedRng rng(seed_);
    // Caps span the range where they start to bind: below ~10 GB (Box 1)
    // and ~5 GB (Box 2) the cap reshapes the search; above it the
    // instance is the uncapped one.
    // The pass runs the Box 2 instances, then the Box 1 ones: every seed
    // runs the same sequence of search sizes.
    instances_.clear();
    for (double cap : rng.Stratified(kBox2Instances, 2, 16)) {
      instances_.push_back(MakeTpchInstance(2, /*modified=*/false, cap, tracer));
    }
    for (double cap : rng.Stratified(kBox1Instances, 5, 40)) {
      instances_.push_back(MakeTpchInstance(1, /*modified=*/false, cap, tracer));
    }
  }

  void Prepare(Tracer* tracer) override {
    // The heuristic's TOC per instance: the exact optimum may not exceed it.
    heuristic_toc_.clear();
    for (const auto& inst : instances_) {
      dot::SolveSpec spec;
      spec.method = dot::SolveMethod::kDotHeuristic;
      const dot::SolveResult r = Traced(
          tracer, "dot.Solve", [&] { return dot::Solve(inst->Problem(kSla), spec); });
      heuristic_toc_.push_back(r.status.ok() ? r.toc_cents_per_task : -1.0);
    }
    results_.assign(instances_.size(), {});
  }

  int PassLength() const override {
    return static_cast<int>(instances_.size());
  }
  double NominalOpMs() const override { return 60.0; }

  void RunOp(int i, Tracer* tracer) override {
    const dot::DotProblem problem = instances_[i]->Problem(kSla);
    results_[i] = Traced(tracer, "dot.Solve", [&] { return dot::Solve(problem); });
    if (tracer != nullptr) {
      ++traced_.ops;
      traced_.Add(results_[i].dot);
    }
  }

  std::vector<bool> CheckPass(Tracer* tracer) override {
    std::vector<bool> ok(results_.size());
    double toc_sum = 0.0;
    int sla_met = 0;
    for (size_t i = 0; i < results_.size(); ++i) {
      const dot::SolveResult& r = results_[i];
      if (!r.status.ok()) continue;
      const TpchInstance& inst = *instances_[i];
      dot::DotProblem full = inst.Problem(kSla);
      full.options.use_fast_eval = false;
      bool sla_ok = false;
      dot::PerfEstimate estimate;
      const double toc = Traced(tracer, "dot.DotOptimizer::EstimateToc", [&] {
        return dot::DotOptimizer(full).EstimateToc(r.placement, &estimate,
                                                   nullptr, &sla_ok);
      });
      const bool fits =
          dot::Layout(&inst.schema, &inst.box, r.placement)
              .CheckCapacity()
              .ok();
      ok[i] = toc == r.toc_cents_per_task && sla_ok && fits &&
              heuristic_toc_[i] >= 0 && toc <= heuristic_toc_[i];
      toc_sum += r.toc_cents_per_task;
      sla_met += sla_ok ? 1 : 0;
    }
    quality_.toc_cents_per_task = toc_sum / results_.size();
    quality_.sla_met_share = static_cast<double>(sla_met) / results_.size();
    for (const dot::SolveResult& r : results_) {
      ++counters_.ops;
      counters_.Add(r.dot);
    }
    return ok;
  }

  uint64_t OpDigest(int i) const override {
    const dot::SolveResult& r = results_[i];
    Fingerprint fp;
    fp.Add(r.placement);
    fp.Add(r.toc_cents_per_task);
    fp.Add(r.dot.layouts_evaluated);
    fp.Add(r.dot.nodes_expanded);
    fp.Add(r.dot.nodes_pruned_bound);
    fp.Add(r.dot.nodes_pruned_infeasible);
    return fp.value();
  }

  Quality quality() const override { return quality_; }

  void LayerMetrics(Tracer* tracer, LayerValues* out) override {
    // Probe the first Box 2 instance (cheap engine probes) and the first
    // Box 1 instance.
    std::vector<ProbeProblem> probes;
    for (int box : {2, 1}) {
      for (size_t i = 0; i < instances_.size(); ++i) {
        if (instances_[i]->box.name != (box == 1 ? "Box 1" : "Box 2")) {
          continue;
        }
        probes.push_back({instances_[i]->Problem(kSla), results_[i].placement,
                          instances_[i]->model.get()});
        break;
      }
    }
    RunProbes(probes, tracer, out);
    // Counts from the checked pass; times from the traced passes.
    counters_.WriteTo(out);
    LayerValues timed;
    traced_.WriteTo(&timed);
    (*out)["dot.solve_ms"] = timed["dot.solve_ms"];
    (*out)["dot.nodes_per_s"] = timed["dot.nodes_per_s"];
  }

 private:
  uint64_t seed_;
  std::vector<std::unique_ptr<TpchInstance>> instances_;
  std::vector<double> heuristic_toc_;
  std::vector<dot::SolveResult> results_;
  DotCounters counters_, traced_;
  Quality quality_;
};

}  // namespace

std::unique_ptr<Workload> MakeTpchExact(uint64_t seed) {
  return std::make_unique<TpchExact>(seed);
}

}  // namespace perfbench
