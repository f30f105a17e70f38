// Timing, statistics, span tracing and result output shared by the
// perfbench workloads. Nothing here calls into the dotprov library.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Linear-interpolated percentile (q in [0, 1]) of `values`; the
/// `statistics.quantiles(..., method="inclusive")` convention.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// FNV-1a over raw bytes: the op-sequence fingerprint. Doubles are hashed
/// by their bit pattern, so a one-ULP change in a decision shows.
class Fingerprint {
 public:
  void Add(const void* data, size_t n);
  void Add(double v) { Add(&v, sizeof v); }
  void Add(long long v) { Add(&v, sizeof v); }
  void Add(const std::vector<int>& v);
  uint64_t value() const { return h_; }
  std::string Hex() const;

 private:
  uint64_t h_ = 1469598103934665603ull;
};

/// In-memory span recorder for the traced run. One span per call the
/// benchmark makes into a library module; spans of one op share `op`.
/// A null Tracer* means tracing is off: Scope then costs one branch.
class Tracer {
 public:
  struct Span {
    const char* name;  ///< "<module>.<call>", e.g. "dot.Solve"
    int parent;        ///< index of the enclosing span, -1 for a root
    int op;            ///< op id; -1 for set-up, probe and check calls
    int64_t start_ns;
    int64_t end_ns;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  void set_op(int op) { op_ = op; }

  /// Per-module self time: a span's duration minus the time its child
  /// spans cover, summed by the module prefix of the span name. Returned
  /// as (module, self ms) pairs in first-seen order.
  std::vector<std::pair<std::string, double>> SelfMsByModule() const;

  /// Writes every span as a tab-separated line. Returns false on I/O error.
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  int op_ = -1;
  Clock::time_point epoch_ = Clock::now();
};

/// Runs `fn` under a span named `name` when tracing is on.
template <typename Fn>
auto Traced(Tracer* tracer, const char* name, Fn&& fn) -> decltype(fn()) {
  Tracer::Scope scope(tracer, name);
  return fn();
}

/// Host-speed reference: fixed cache-resident floating-point sums, 32 K
/// hash-map inserts and lookups and 128 K random gathers over a 2 MB
/// table, written here and never changed, so it does the same work on
/// every commit. The host's speed drifts by up to 1.5x over seconds to
/// minutes, and each part's time follows a TPC-H exact solve's across
/// those phases (correlation >= 0.95 over 5-s buckets). Timing metrics are
/// reported at the reference speed: a measurement taken where this kernel
/// takes r ms is scaled by (kReferenceMs / r) ^ kHostSpeedExponent.
/// Returns the kernel's wall time, ms.
double ReferenceKernelMs();

/// ReferenceKernelMs() on the reference host (4-vCPU x86-64, AVX2), median
/// over many runs: the host speed the normalized timings are expressed at.
inline constexpr double kReferenceMs = 11.0;

/// The library's ops swing more with the host's phases than the kernel
/// does. Log-log slope of op time against kernel time on the reference
/// host: 1.43 (tpch-exact), 1.60 (tpch-pipeline), 1.29 (htap-advisor),
/// 0.94 (fleet-budget, from few windows).
inline constexpr double kHostSpeedExponent = 1.3;

/// One reported metric.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Renders the result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(bool correct, long long attempted, long long failed,
                       const std::vector<Metric>& metrics);

/// Peak resident set of this process image, MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
