// Microbenchmarks (google-benchmark) for the optimizer machinery itself:
// DOT's optimization phase vs exhaustive search as the object count grows,
// move enumeration, profiling, and the planner. Complements the §4.4.3
// wall-clock comparison (paper: DOT ~9 s vs ES ~1,400 s on their TPC-H
// instance; ~3 s vs ~800 s on TPC-C).
//
// Usage: pass `--json` to additionally write the results (including the
// layouts_per_s throughput counters) to BENCH_optimizer.json — the
// machine-readable perf-trajectory format CI archives per commit. All
// other flags are standard google-benchmark flags.

#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dot/dot.h"

namespace dot {
namespace {

/// Synthetic instance with `tables` tables (one PK index each) and a
/// simple per-table scan workload, on Box 1.
struct SyntheticInstance {
  Schema schema;
  BoxConfig box = MakeBox1();
  std::unique_ptr<DssWorkloadModel> workload;
  std::unique_ptr<WorkloadProfiles> profiles;

  explicit SyntheticInstance(int tables) {
    std::vector<QuerySpec> templates;
    for (int i = 0; i < tables; ++i) {
      const std::string name = "t" + std::to_string(i);
      const int id =
          schema.AddTable(name, 1e6 * (1 + i % 7), 100 + 10 * (i % 5));
      schema.AddIndex(name + "_pk", id, 8);
      QuerySpec q;
      q.name = "q" + std::to_string(i);
      RelationAccess ra;
      ra.table = name;
      ra.selectivity = (i % 3 == 0) ? 0.001 : 1.0;
      ra.index_sargable = i % 3 == 0;
      q.relations = {ra};
      templates.push_back(std::move(q));
    }
    workload = std::make_unique<DssWorkloadModel>(
        "synthetic", &schema, &box, std::move(templates),
        RepeatSequence(tables, 1), PlannerConfig{});
    Profiler profiler(&schema, &box);
    profiles = std::make_unique<WorkloadProfiles>(profiler.ProfileWorkload(
        *workload,
        [&](const std::vector<int>& p) { return workload->Estimate(p); }));
  }

  DotProblem Problem() {
    DotProblem p;
    p.schema = &schema;
    p.box = &box;
    p.workload = workload.get();
    p.relative_sla = 0.5;
    p.profiles = profiles.get();
    return p;
  }
};

// range(0) = tables, range(1) = num_threads for the candidate-evaluation
// engine (1 = the serial path). The threads column is the serial-vs-parallel
// scaling comparison: at a fixed instance size, the rows differ only in
// engine fan-out, and the engine guarantees bit-identical results, so any
// wall-clock delta is pure speedup.
/// Per-run search-engine tallies, reported as benchmark counters:
/// layouts_per_s is candidate-evaluation throughput — the figure of merit
/// of the TOC fast path, and the first column to read in
/// BENCH_optimizer.json.
struct SearchCounters {
  long long layouts = 0;
  long long cache_hits = 0;
  long long cache_misses = 0;
  long long nodes_expanded = 0;
  long long layouts_pruned = 0;

  void Tally(const DotResult& r) {
    layouts += r.layouts_evaluated;
    cache_hits += r.plan_cache_hits;
    cache_misses += r.plan_cache_misses;
    nodes_expanded += r.nodes_expanded;
    layouts_pruned += r.layouts_pruned;
  }
  void Report(benchmark::State& state) const {
    state.counters["layouts_per_s"] = benchmark::Counter(
        static_cast<double>(layouts), benchmark::Counter::kIsRate);
    state.counters["plan_cache_hits"] = benchmark::Counter(
        static_cast<double>(cache_hits), benchmark::Counter::kAvgIterations);
    state.counters["plan_cache_misses"] = benchmark::Counter(
        static_cast<double>(cache_misses),
        benchmark::Counter::kAvgIterations);
    // Branch-and-bound only (0 elsewhere): how much of the exact tree the
    // bounds cut, alongside the per-second leaf-evaluation rate above.
    state.counters["nodes_expanded"] = benchmark::Counter(
        static_cast<double>(nodes_expanded),
        benchmark::Counter::kAvgIterations);
    state.counters["layouts_pruned"] = benchmark::Counter(
        static_cast<double>(layouts_pruned),
        benchmark::Counter::kAvgIterations);
  }
};

void BM_DotOptimize(benchmark::State& state) {
  SyntheticInstance inst(static_cast<int>(state.range(0)));
  DotProblem problem = inst.Problem();
  problem.options.num_threads = static_cast<int>(state.range(1));
  SearchCounters counters;
  for (auto _ : state) {
    DotResult r = DotOptimizer(problem).Optimize();
    benchmark::DoNotOptimize(r.toc_cents_per_task);
    counters.Tally(r);
  }
  counters.Report(state);
  state.SetLabel(std::to_string(2 * state.range(0)) + " objects / " +
                 std::to_string(state.range(1)) + " threads");
}
// The walk is serial, so only the one-thread rows run; the trailing /1
// keeps the row names of the recorded trajectory.
BENCHMARK(BM_DotOptimize)->ArgsProduct({{2, 4, 8, 16, 32}, {1}});

void BM_ExhaustiveSearch(benchmark::State& state) {
  SyntheticInstance inst(static_cast<int>(state.range(0)));
  DotProblem problem = inst.Problem();
  problem.options.num_threads = static_cast<int>(state.range(1));
  SearchCounters counters;
  for (auto _ : state) {
    DotResult r = ExactSearch(problem, ExactStrategy::kEnumerate);
    benchmark::DoNotOptimize(r.toc_cents_per_task);
    counters.Tally(r);
  }
  counters.Report(state);
  state.SetLabel(std::to_string(2 * state.range(0)) + " objects => 3^" +
                 std::to_string(2 * state.range(0)) + " layouts / " +
                 std::to_string(state.range(1)) + " threads");
}
// 2 tables = 3^4 = 81 layouts; 6 tables = 3^12 ≈ 531k layouts — the
// >= 10^5-layout space where the sharded engine should show ~linear
// scaling (acceptance bar: >= 2x at 4 threads, hardware permitting).
BENCHMARK(BM_ExhaustiveSearch)
    ->ArgsProduct({{2, 4, 6}, {1}})
    ->ArgsProduct({{6}, {2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

// Exact branch-and-bound over the same synthetic spaces as
// BM_ExhaustiveSearch — identical optima, but the prunable search touches
// a shrinking fraction of M^N as the instance grows (read layouts_pruned
// against 3^(2·tables)). The search is serial; the trailing /1 keeps the
// row names of the recorded trajectory.
void BM_BnbExactSearch(benchmark::State& state) {
  SyntheticInstance inst(static_cast<int>(state.range(0)));
  DotProblem problem = inst.Problem();
  SearchCounters counters;
  for (auto _ : state) {
    DotResult r = ExactSearch(problem, ExactStrategy::kBranchAndBound);
    benchmark::DoNotOptimize(r.toc_cents_per_task);
    counters.Tally(r);
  }
  counters.Report(state);
  state.SetLabel(std::to_string(2 * state.range(0)) + " objects => 3^" +
                 std::to_string(2 * state.range(0)) + " layouts");
}
BENCHMARK(BM_BnbExactSearch)
    ->ArgsProduct({{2, 4, 6, 8}, {1}})
    ->Unit(benchmark::kMillisecond);

// The flagship exact instance the enumerating comparator cannot touch: all
// 19 TPC-C objects on Box 2 — 3^19 ≈ 1.16e9 effective layouts — solved
// exactly by pruning upwards of 99.99% of the tree (§4.5.3 setting,
// relative SLA 0.25). Serial, like every BnB row; /1 names the row.
void BM_BnbTpccFull(benchmark::State& state) {
  Schema schema = MakeTpccSchema(300);
  BoxConfig box = MakeBox2();
  auto workload = MakeTpccWorkload(&schema, &box, TpccConfig{});
  DotProblem problem;
  problem.schema = &schema;
  problem.box = &box;
  problem.workload = workload.get();
  problem.relative_sla = 0.25;
  SearchCounters counters;
  for (auto _ : state) {
    DotResult r = ExactSearch(problem, ExactStrategy::kBranchAndBound);
    benchmark::DoNotOptimize(r.toc_cents_per_task);
    counters.Tally(r);
  }
  counters.Report(state);
  state.SetLabel("19 objects => 3^19 layouts");
}
BENCHMARK(BM_BnbTpccFull)->Arg(1)->Unit(benchmark::kMillisecond);

// Exact search over the HTAP composition (CH-benCH analytics + the TPC-C
// mix on the shared hot-object subset): the summed two-side bound drives
// the pruning, and the per-leaf cost now includes both sides' kernels —
// the figure of merit for the composite scorer. Serial; /1 names the row.
void BM_HtapBnbExactSearch(benchmark::State& state) {
  Schema full = MakeTpccSchema(300);
  Schema schema = full.Subset({"stock", "pk_stock", "order_line",
                               "pk_order_line", "customer", "pk_customer",
                               "orders", "pk_orders"});
  BoxConfig box = MakeBox2();
  HtapBundle bundle = MakeChbenchHtapWorkload(&schema, &box, HtapConfig{});
  DotProblem problem;
  problem.schema = &schema;
  problem.box = &box;
  problem.workload = bundle.htap.get();
  problem.relative_sla = 0.35;
  SearchCounters counters;
  for (auto _ : state) {
    DotResult r = ExactSearch(problem, ExactStrategy::kBranchAndBound);
    benchmark::DoNotOptimize(r.toc_cents_per_task);
    counters.Tally(r);
  }
  counters.Report(state);
  state.SetLabel("8 shared objects => 3^8 layouts");
}
BENCHMARK(BM_HtapBnbExactSearch)->Arg(1)->Unit(benchmark::kMillisecond);

// DOT's heuristic walk over the same HTAP instance (profiled baselines):
// the everyday optimization path for the mixed workload.
void BM_HtapDotOptimize(benchmark::State& state) {
  Schema full = MakeTpccSchema(300);
  Schema schema = full.Subset({"stock", "pk_stock", "order_line",
                               "pk_order_line", "customer", "pk_customer",
                               "orders", "pk_orders"});
  BoxConfig box = MakeBox2();
  HtapBundle bundle = MakeChbenchHtapWorkload(&schema, &box, HtapConfig{});
  Profiler profiler(&schema, &box);
  WorkloadProfiles profiles = profiler.ProfileWorkload(
      *bundle.htap,
      [&](const std::vector<int>& p) { return bundle.htap->Estimate(p); });
  DotProblem problem;
  problem.schema = &schema;
  problem.box = &box;
  problem.workload = bundle.htap.get();
  problem.relative_sla = 0.35;
  problem.profiles = &profiles;
  problem.options.num_threads = static_cast<int>(state.range(0));
  SearchCounters counters;
  for (auto _ : state) {
    DotResult r = DotOptimizer(problem).Optimize();
    benchmark::DoNotOptimize(r.toc_cents_per_task);
    counters.Tally(r);
  }
  counters.Report(state);
  state.SetLabel("8 shared objects / " + std::to_string(state.range(0)) +
                 " threads");
}
BENCHMARK(BM_HtapDotOptimize)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_EnumerateMoves(benchmark::State& state) {
  SyntheticInstance inst(static_cast<int>(state.range(0)));
  DotProblem problem = inst.Problem();
  const auto groups = inst.schema.MakeGroups();
  for (auto _ : state) {
    auto moves = EnumerateMoves(problem, groups);
    benchmark::DoNotOptimize(moves.size());
  }
}
BENCHMARK(BM_EnumerateMoves)->Arg(8)->Arg(32)->Arg(128);

void BM_ProfileWorkload(benchmark::State& state) {
  SyntheticInstance inst(static_cast<int>(state.range(0)));
  Profiler profiler(&inst.schema, &inst.box);
  for (auto _ : state) {
    auto profiles = profiler.ProfileWorkload(
        *inst.workload, [&](const std::vector<int>& p) {
          return inst.workload->Estimate(p);
        });
    benchmark::DoNotOptimize(profiles.single());
  }
}
BENCHMARK(BM_ProfileWorkload)->Arg(8)->Arg(32);

void BM_PlanTpchWorkload(benchmark::State& state) {
  Schema schema = MakeTpchSchema(20.0);
  BoxConfig box = MakeBox1();
  DssWorkloadModel workload("w", &schema, &box, MakeTpchTemplates(),
                            RepeatSequence(22, 3), PlannerConfig{});
  const auto placement = UniformPlacement(schema.NumObjects(), 2);
  for (auto _ : state) {
    PerfEstimate est = workload.Estimate(placement);
    benchmark::DoNotOptimize(est.elapsed_ms);
  }
}
BENCHMARK(BM_PlanTpchWorkload);

// One template's plan under one placement, the unit the DSS fast scorer
// prices every cache miss with: /0 runs Planner::PlanQuery (plan tree,
// device-model latencies per I/O entry), /1 the model's CompiledTemplate
// (flat program over a per-class device-time table). Both plan the 22
// TPC-H templates on Box 1 over the same pregenerated random placements;
// plans_per_s counts template plans.
void BM_PlanTemplate(benchmark::State& state) {
  const bool compiled = state.range(0) == 1;
  Schema schema = MakeTpchSchema(20.0);
  BoxConfig box = MakeBox1();
  DssWorkloadModel workload("w", &schema, &box, MakeTpchTemplates(),
                            RepeatSequence(22, 1), PlannerConfig{});
  const int n = schema.NumObjects();
  Rng rng(0x91a7);
  std::vector<std::vector<int>> placements(64);
  for (std::vector<int>& p : placements) {
    for (int o = 0; o < n; ++o) {
      p.push_back(static_cast<int>(
          rng.NextBounded(static_cast<uint64_t>(box.NumClasses()))));
    }
  }
  const std::vector<QuerySpec>& templates = workload.templates();
  long long plans = 0;
  for (auto _ : state) {
    for (const std::vector<int>& p : placements) {
      for (size_t t = 0; t < templates.size(); ++t) {
        const double time_ms =
            compiled ? workload.compiled()[t].Run(p.data()).time_ms
                     : workload.planner().PlanQuery(templates[t], p).time_ms;
        benchmark::DoNotOptimize(time_ms);
      }
    }
    plans += static_cast<long long>(placements.size() * templates.size());
  }
  state.counters["plans_per_s"] = benchmark::Counter(
      static_cast<double>(plans), benchmark::Counter::kIsRate);
  state.SetLabel(compiled ? "compiled" : "PlanQuery");
}
BENCHMARK(BM_PlanTemplate)->Arg(0)->Arg(1);

// Raw fast-scorer throughput, search machinery excluded: one optimizer per
// family (OLTP = full TPC-C, DSS = the §4.4.3 TPC-H subset, HTAP = the
// CH-benCH shared-object composition) scoring a fixed bag of pregenerated
// random layouts through EvaluateQuick. This is the microbench of the SoA
// planes + summation kernels themselves, while the search benchmarks above
// fold in pruning and node overheads.
void BM_FastScorerKernel(benchmark::State& state) {
  Schema schema;
  BoxConfig box;
  std::unique_ptr<OltpWorkloadModel> oltp;
  std::unique_ptr<DssWorkloadModel> dss;
  HtapBundle bundle;
  DotProblem problem;
  std::string label;
  switch (state.range(0)) {
    case 0: {
      schema = MakeTpccSchema(300);
      box = MakeBox2();
      oltp = MakeTpccWorkload(&schema, &box, TpccConfig{});
      problem.workload = oltp.get();
      problem.relative_sla = 0.25;
      label = "oltp tpcc full";
      break;
    }
    case 1: {
      schema = MakeTpchEsSubsetSchema(20.0);
      box = MakeBox1();
      dss = std::make_unique<DssWorkloadModel>(
          "TPC-H-ES", &schema, &box, MakeTpchSubsetTemplates(),
          RepeatSequence(11, 3), PlannerConfig{});
      problem.workload = dss.get();
      problem.relative_sla = 0.5;
      label = "dss tpch es-subset";
      break;
    }
    default: {
      Schema full = MakeTpccSchema(300);
      schema = full.Subset({"stock", "pk_stock", "order_line",
                            "pk_order_line", "customer", "pk_customer",
                            "orders", "pk_orders"});
      box = MakeBox2();
      bundle = MakeChbenchHtapWorkload(&schema, &box, HtapConfig{});
      problem.workload = bundle.htap.get();
      problem.relative_sla = 0.35;
      label = "htap chbench subset";
      break;
    }
  }
  problem.schema = &schema;
  problem.box = &box;

  DotOptimizer optimizer(problem);
  const int n = schema.NumObjects();
  const int m = box.NumClasses();
  Rng rng(0x5c07e);
  std::vector<Layout> layouts;
  std::vector<int> placement(static_cast<size_t>(n), 0);
  for (int i = 0; i < 64; ++i) {
    for (int o = 0; o < n; ++o) {
      placement[static_cast<size_t>(o)] =
          static_cast<int>(rng.NextBounded(static_cast<uint64_t>(m)));
    }
    layouts.emplace_back(&schema, &box, placement);
  }
  long long scored = 0;
  for (auto _ : state) {
    for (const Layout& layout : layouts) {
      benchmark::DoNotOptimize(
          optimizer.EvaluateQuick(layout.placement()).toc);
    }
    scored += static_cast<long long>(layouts.size());
  }
  state.counters["layouts_per_s"] = benchmark::Counter(
      static_cast<double>(scored), benchmark::Counter::kIsRate);
  state.SetLabel(label);
}
BENCHMARK(BM_FastScorerKernel)->DenseRange(0, 2);

void BM_TpccEstimate(benchmark::State& state) {
  Schema schema = MakeTpccSchema(300);
  BoxConfig box = MakeBox2();
  auto workload = MakeTpccWorkload(&schema, &box, TpccConfig{});
  const auto placement = UniformPlacement(schema.NumObjects(), 1);
  for (auto _ : state) {
    PerfEstimate est = workload->Estimate(placement);
    benchmark::DoNotOptimize(est.tpmc);
  }
}
BENCHMARK(BM_TpccEstimate);

}  // namespace
}  // namespace dot

// BENCHMARK_MAIN, plus a `--json` convenience flag: it expands to the
// google-benchmark pair --benchmark_out=BENCH_optimizer.json
// --benchmark_out_format=json (an explicit --json=<path> overrides the
// file name), so CI and developers produce the perf-trajectory artifact
// with one stable spelling.
int main(int argc, char** argv) {
  // Owned storage first, pointers second: taking .data() while still
  // appending would dangle on reallocation.
  std::vector<std::string> expanded;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 ||
        std::strncmp(argv[i], "--json=", 7) == 0) {
      const char* path =
          argv[i][6] == '=' ? argv[i] + 7 : "BENCH_optimizer.json";
      expanded.push_back(std::string("--benchmark_out=") + path);
      expanded.push_back("--benchmark_out_format=json");
    } else {
      expanded.push_back(argv[i]);
    }
  }
  std::vector<char*> args;
  args.reserve(expanded.size());
  for (std::string& arg : expanded) args.push_back(arg.data());
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
