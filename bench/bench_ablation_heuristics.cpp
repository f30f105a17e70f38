// Ablation study of DOT's design choices (DESIGN.md §3), judged against the
// exhaustive-search optimum on the §4.4.3 subset instance:
//
//   full DOT      — object-group moves, TOC-non-worsening acceptance,
//                   convergence sweeps (this library's default);
//   literal P1    — Procedure 1 exactly as printed in the paper: any
//                   feasible move is kept, single pass;
//   no grouping   — per-object moves (prior work's enumeration, §3.1):
//                   table/index interaction ignored;
//   single sweep  — grouped + non-worsening but no convergence passes;
//   OA            — the Object Advisor baseline;
//   ES            — the optimum.
//
// Expected: full DOT ≈ ES; removing the acceptance refinement or the
// grouping measurably hurts TOC, motivating both.

#include <iostream>

#include "bench/bench_common.h"
#include "common/str_util.h"
#include "common/table_printer.h"

int main() {
  using namespace dot;
  using dot::bench::Instance;
  using dot::bench::TpchVariant;
  std::cout << "=== Ablation: DOT design choices vs the ES optimum "
               "(TPC-H subset, SLA 0.5) ===\n";

  for (int box = 1; box <= 2; ++box) {
    auto inst = Instance::Tpch(box, TpchVariant::kEsSubset);
    const DotProblem base = inst->Problem(0.5);
    const DotResult es = ExactSearch(base, ExactStrategy::kEnumerate);

    TablePrinter t({"variant", "TOC (c/query)", "vs ES", "resp time (min)",
                    "layouts"});
    auto add = [&](const std::string& name, const DotResult& r) {
      if (!r.status.ok()) {
        t.AddRow({name, "infeasible", "-", "-",
                  StrPrintf("%lld", r.layouts_evaluated)});
        return;
      }
      t.AddRow({name, StrPrintf("%.5f", r.toc_cents_per_task),
                StrPrintf("%.2fx",
                          r.toc_cents_per_task / es.toc_cents_per_task),
                dot::bench::Minutes(r.estimate.elapsed_ms),
                StrPrintf("%lld", r.layouts_evaluated)});
    };

    add("ES (optimum)", es);
    add("full DOT", DotOptimizer(base).Optimize());

    DotProblem literal = base;
    literal.options.acceptance = MoveAcceptance::kAnyFeasible;
    literal.options.max_sweeps = 1;
    add("literal Procedure 1", DotOptimizer(literal).Optimize());

    DotProblem ungrouped = base;
    ungrouped.options.group_objects = false;
    add("no object grouping", DotOptimizer(ungrouped).Optimize());

    DotProblem one_sweep = base;
    one_sweep.options.max_sweeps = 1;
    add("single sweep", DotOptimizer(one_sweep).Optimize());

    // OA evaluated under the same targets.
    DotOptimizer estimator(base);
    const std::vector<int> oa = ObjectAdvisorPlacement(base);
    PerfEstimate oa_est;
    const double oa_toc = estimator.EstimateToc(oa, &oa_est);
    const bool oa_ok = MeetsTargets(oa_est, estimator.targets());
    t.AddRow({"Object Advisor",
              StrPrintf("%.5f%s", oa_toc, oa_ok ? "" : " (misses SLA)"),
              StrPrintf("%.2fx", oa_toc / es.toc_cents_per_task),
              dot::bench::Minutes(oa_est.elapsed_ms), "1"});

    std::cout << "\n--- " << inst->box().name << " ---\n";
    t.Print(std::cout);
  }

  // Second act: the modified (probe-heavy) workload, where the table/index
  // interaction carries real weight — Q2-style plans only pay off when the
  // table AND its index sit on fast-random-read storage together.
  std::cout << "\n=== Same ablation, modified TPC-H (full schema, SLA 0.5) "
               "===\n";
  for (int box = 1; box <= 2; ++box) {
    auto inst = Instance::Tpch(box, TpchVariant::kModified);
    const DotProblem base = inst->Problem(0.5);

    TablePrinter t({"variant", "TOC (c/query)", "resp time (min)",
                    "layouts"});
    auto add = [&](const std::string& name, const DotResult& r) {
      if (!r.status.ok()) {
        t.AddRow({name, "infeasible", "-",
                  StrPrintf("%lld", r.layouts_evaluated)});
        return;
      }
      t.AddRow({name, StrPrintf("%.5f", r.toc_cents_per_task),
                dot::bench::Minutes(r.estimate.elapsed_ms),
                StrPrintf("%lld", r.layouts_evaluated)});
    };
    add("full DOT", DotOptimizer(base).Optimize());
    DotProblem literal = base;
    literal.options.acceptance = MoveAcceptance::kAnyFeasible;
    literal.options.max_sweeps = 1;
    add("literal Procedure 1", DotOptimizer(literal).Optimize());
    DotProblem ungrouped = base;
    ungrouped.options.group_objects = false;
    add("no object grouping", DotOptimizer(ungrouped).Optimize());

    std::cout << "\n--- " << inst->box().name << " ---\n";
    t.Print(std::cout);
  }
  return 0;
}
