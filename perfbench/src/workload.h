// The interface every perfbench workload implements, and the helpers the
// workloads share: seeded input draws and the per-layer metric table.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// The benchmark's own random stream (splitmix64), so the generated inputs
/// depend only on --seed and this file, never on the library's RNG.
class SeedRng {
 public:
  explicit SeedRng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }
  /// k values in [lo, hi], one from each of k equal strata, in seeded
  /// order. Every seed covers the whole range evenly, so per-seed
  /// aggregates (mean TOC, the op-cost mix) differ only by the jitter
  /// inside each stratum.
  std::vector<double> Stratified(int k, double lo, double hi);
  /// A seeded permutation of 0..n-1.
  std::vector<int> Permutation(int n);

 private:
  uint64_t state_;
};

/// Decision quality over the first checked pass; both are deterministic
/// functions of the seed.
struct Quality {
  double toc_cents_per_task = 0.0;
  double sla_met_share = 0.0;
};

/// Per-layer metric values of a traced run, by name (see kLayerMetrics).
using LayerValues = std::map<std::string, double>;

/// A workload runs a fixed, seeded sequence of ops: one pass is
/// PassLength() ops, and a run repeats whole passes. Every pass of one
/// seed makes the same decisions, which the harness checks by digest.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds every input a user sets up before the first decision (schemas,
  /// boxes, models, profiling, traces, rosters, advisor start-up). The
  /// harness times it as setup_s and calls it several times; each call
  /// replaces the previous inputs.
  virtual void SetUp(Tracer* tracer) = 0;

  /// Untimed: the references the output checks compare against.
  virtual void Prepare(Tracer* tracer) = 0;

  virtual int PassLength() const = 0;
  /// Typical op cost on the reference host; turns --seconds into a fixed
  /// number of passes (the run is never cut by the clock).
  virtual double NominalOpMs() const = 0;
  /// Ops of the untimed warm-up (default: one whole pass).
  virtual int WarmupOps() const { return PassLength(); }

  /// Starts a pass (untimed).
  virtual void BeginPass() {}
  /// Runs op `i` of the current pass; the harness times this call only.
  virtual void RunOp(int i, Tracer* tracer) = 0;
  /// Checks every op of the first pass (untimed) and computes quality():
  /// ok flag per op.
  virtual std::vector<bool> CheckPass(Tracer* tracer) = 0;
  /// Digest of op `i`'s decisions in the pass just run.
  virtual uint64_t OpDigest(int i) const = 0;

  /// Quality of the checked pass.
  virtual Quality quality() const = 0;

  /// Traced run only: the workload's own per-layer values (engine counters
  /// of its ops, set-up timings), and the probe pass over its inputs.
  virtual void LayerMetrics(Tracer* tracer, LayerValues* out) = 0;
};

std::unique_ptr<Workload> MakeTpchExact(uint64_t seed);
std::unique_ptr<Workload> MakeTpchPipeline(uint64_t seed);
std::unique_ptr<Workload> MakeHtapAdvisor(uint64_t seed);
std::unique_ptr<Workload> MakeFleetBudget(uint64_t seed);

/// Name and unit of every per-layer metric, in output order.
struct LayerMetricDef {
  const char* name;
  const char* unit;
};
extern const std::vector<LayerMetricDef> kLayerMetrics;

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
