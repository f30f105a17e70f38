// perfbench: the end-to-end provisioning benchmark. One process runs one
// workload: set-up (timed several times), an untimed warm-up pass, then a
// fixed number of whole passes over the workload's seeded op sequence;
// the first pass is checked op by op, later passes by digest. Timings are
// reported at the reference host speed (ReferenceKernelMs in harness.h).
// The last stdout line is the JSON result.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//
// --trace 1 alternates untraced and traced passes (their end-to-end
// numbers side by side give the tracing overhead), then runs the probe
// pass and prints the per-layer metrics instead of the end-to-end ones.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "workload.h"

namespace perfbench {
namespace {

/// Set-ups per process; setup_s is their median.
constexpr int kSetups = 5;
/// Every run times at least this many ops, so that p90 has >= 10 beyond it.
constexpr int kMinTimedOps = 100;
/// A run that has already timed kMinTimedOps starts no new pass after this
/// many seconds, so a host far slower than the reference still finishes
/// within the benchmark's time limit. It never fires at nominal speed.
constexpr double kGuardSeconds = 120.0;
/// A host-speed reference sample is taken before the next op once this
/// much op time has passed since the last one.
constexpr double kReferenceEveryMs = 250.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value);
    } else if (key == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (key == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "tpch-exact") return MakeTpchExact(seed);
  if (name == "tpch-pipeline") return MakeTpchPipeline(seed);
  if (name == "htap-advisor") return MakeHtapAdvisor(seed);
  if (name == "fleet-budget") return MakeFleetBudget(seed);
  return nullptr;
}

/// Latency summary of one set of timed ops, in ms at reference speed.
struct Timing {
  std::vector<double> op_ms;
  double raw_sum_ms = 0.0;  ///< as measured, for the stdout report
  double sum_ms() const {
    double sum = 0.0;
    for (double ms : op_ms) sum += ms;
    return sum;
  }
  double ops_per_s() const { return op_ms.size() / (sum_ms() / 1e3); }
  double raw_ops_per_s() const { return op_ms.size() / (raw_sum_ms / 1e3); }
  double p50() const { return Percentile(op_ms, 0.5); }
  double p90() const { return Percentile(op_ms, 0.9); }
};

/// One timed op: its raw time and the reference sample taken before it.
struct OpSample {
  bool traced;
  double ms;
  size_t ref;
};

int Run(const Args& args) {
  std::unique_ptr<Workload> wl = MakeWorkload(args.workload, args.seed);
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const Clock::time_point run_start = Clock::now();
  Tracer tracer;
  Tracer* const tr = args.trace ? &tracer : nullptr;

  // Host-speed reference samples (ReferenceKernelMs), bracketing every
  // stretch of measured work.
  std::vector<double> ref = {ReferenceKernelMs()};
  std::vector<double> setup_ms;
  for (int k = 0; k < kSetups; ++k) {
    const Clock::time_point start = Clock::now();
    wl->SetUp(tr);
    setup_ms.push_back(MsSince(start));
  }
  ref.push_back(ReferenceKernelMs());
  const double setup_scale =
      std::pow(kReferenceMs / (0.5 * (ref[0] + ref[1])), kHostSpeedExponent);
  wl->Prepare(tr);

  const int pass_len = wl->PassLength();
  wl->BeginPass();
  for (int i = 0; i < wl->WarmupOps(); ++i) wl->RunOp(i, nullptr);

  const double want_ops = args.seconds * 1e3 / wl->NominalOpMs();
  const int passes = std::max(
      (kMinTimedOps + pass_len - 1) / pass_len,
      static_cast<int>(std::lround(want_ops / pass_len)));
  // The traced run alternates untraced and traced passes over the same
  // number of passes, so it costs about what an untraced run costs.
  const int total_passes = args.trace ? std::max(2, passes) : passes;

  std::vector<OpSample> samples;
  std::vector<uint64_t> reference;
  std::vector<bool> checked;
  long long attempted = 0;
  long long failed = 0;
  int op_id = 0;
  double since_ref_ms = 0.0;
  ref.push_back(ReferenceKernelMs());
  for (int p = 0; p < total_passes; ++p) {
    if (attempted >= kMinTimedOps && MsSince(run_start) > kGuardSeconds * 1e3) {
      std::printf("time guard: stopped after %d of %d passes\n", p,
                  total_passes);
      break;
    }
    const bool is_traced = args.trace && p % 2 == 1;
    wl->BeginPass();
    for (int i = 0; i < pass_len; ++i) {
      if (since_ref_ms >= kReferenceEveryMs) {
        ref.push_back(ReferenceKernelMs());
        since_ref_ms = 0.0;
      }
      tracer.set_op(op_id++);
      const Clock::time_point start = Clock::now();
      wl->RunOp(i, is_traced ? tr : nullptr);
      const double ms = MsSince(start);
      samples.push_back({is_traced, ms, ref.size() - 1});
      since_ref_ms += ms;
    }
    tracer.set_op(-1);
    // The first pass is checked op by op. Every later pass must repeat its
    // decisions bit for bit: an op passes when its digest equals that of
    // the same op in the checked pass, and that op passed.
    if (p == 0) checked = wl->CheckPass(tr);
    for (int i = 0; i < pass_len; ++i) {
      const uint64_t digest = wl->OpDigest(i);
      if (p == 0) reference.push_back(digest);
      const bool ok = checked[static_cast<size_t>(i)] &&
                      digest == reference[static_cast<size_t>(i)];
      ++attempted;
      if (!ok) ++failed;
    }
  }
  ref.push_back(ReferenceKernelMs());

  // Each op is scaled by the median of the reference samples around it
  // (three before, three after: about 1.5 s of run), which smooths the
  // sample-to-sample jitter but follows phases of seconds.
  Timing plain, traced;
  for (const OpSample& s : samples) {
    Timing& timing = s.traced ? traced : plain;
    const size_t lo = s.ref >= 2 ? s.ref - 2 : 0;
    const size_t hi = std::min(ref.size(), s.ref + 4);
    const double host_ms =
        Median(std::vector<double>(ref.begin() + lo, ref.begin() + hi));
    timing.op_ms.push_back(
        s.ms * std::pow(kReferenceMs / host_ms, kHostSpeedExponent));
    timing.raw_sum_ms += s.ms;
  }
  std::vector<double> speed;
  for (double r : ref) speed.push_back(kReferenceMs / r);

  Fingerprint fingerprint;
  for (uint64_t d : reference) fingerprint.Add(&d, sizeof d);
  const Quality q = wl->quality();
  const double ok_share =
      static_cast<double>(attempted - failed) / static_cast<double>(attempted);
  const int beyond_p90 = static_cast<int>(plain.op_ms.size()) / 10;

  std::printf("workload %s seed %llu: passes of %d ops, %zu timed ops "
              "(%d beyond p90), set-up median of %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), pass_len,
              plain.op_ms.size(), beyond_p90, kSetups);
  std::printf("host speed vs reference: median %.3f, range %.3f-%.3f over "
              "%zu samples; raw ops/s %.6g, raw set-up %.6g s\n",
              Median(speed), *std::min_element(speed.begin(), speed.end()),
              *std::max_element(speed.begin(), speed.end()), speed.size(),
              plain.raw_ops_per_s(), Median(setup_ms) / 1e3);
  std::printf("fingerprint %s\n", fingerprint.Hex().c_str());
  std::printf("toc_cents_per_task %.17g\nsla_met_share %.17g\n"
              "ok_share %.17g\n",
              q.toc_cents_per_task, q.sla_met_share, ok_share);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup_ms) * setup_scale / 1e3, "s"},
        {"ops_per_s", plain.ops_per_s(), "1/s"},
        {"op_p50_ms", plain.p50(), "ms"},
        {"op_p90_ms", plain.p90(), "ms"},
        {"toc_cents_per_task", q.toc_cents_per_task, "cents/task"},
        {"sla_met_share", q.sla_met_share, "fraction"},
        {"ok_share", ok_share, "fraction"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    LayerValues values;
    wl->LayerMetrics(tr, &values);
    std::printf("untraced ops/s %.6g p50 %.6g ms p90 %.6g ms | traced "
                "ops/s %.6g p50 %.6g ms p90 %.6g ms | tracing overhead "
                "%+.2f%% on ops/s\n",
                plain.ops_per_s(), plain.p50(), plain.p90(),
                traced.ops_per_s(), traced.p50(), traced.p90(),
                100.0 * (plain.ops_per_s() / traced.ops_per_s() - 1.0));
    for (const auto& [module, ms] : tracer.SelfMsByModule()) {
      std::printf("[%s] self time %-9s %.6g ms\n", args.workload.c_str(),
                  module.c_str(), ms);
    }
    for (const LayerMetricDef& def : kLayerMetrics) {
      const auto it = values.find(def.name);
      const double v = it == values.end() ? 0.0 : it->second;
      std::printf("[%s] %s = %.17g %s\n", args.workload.c_str(), def.name, v,
                  def.unit);
      metrics.push_back({def.name, v, def.unit});
    }
    if (!args.spans_path.empty() && !tracer.Write(args.spans_path)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   args.spans_path.c_str());
    }
  }
  std::printf("%s\n", ResultJson(failed == 0, attempted, failed, metrics)
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> [--spans <path>]\n");
    return 2;
  }
  return perfbench::Run(args);
}
