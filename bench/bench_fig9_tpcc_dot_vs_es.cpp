// Reproduces Figure 9: ES vs DOT on the TPC-C workload (Box 2) with
// capacity limits on the H-SSD, relative SLA 0.25 with the paper's
// relax-and-retry loop when constraints conflict (§4.5.3; the 21 GB run
// settles at relative SLA ~0.13 in the paper).
// Expected shape: ES and DOT reach almost the same tpmC and TOC, with DOT
// orders of magnitude faster.
//
// Enumerating all 19 TPC-C objects is 3^19 ≈ 1.2e9 layouts; like the paper
// (which could only run ES on reduced instances), the first section
// restricts the enumerated comparison to the nine hottest objects. The
// second section then runs the SAME experiment on the full 19-object
// schema with the exact branch-and-bound search as the ground truth — the
// instance the paper's comparator could never touch, solved exactly by
// pruning >99.99% of the tree (DESIGN.md §5).

#include <functional>
#include <iostream>

#include "bench/bench_common.h"
#include "common/str_util.h"
#include "common/table_printer.h"
#include "dot/dot.h"

namespace {

/// One Figure-9 capacity sweep: `exact` supplies the ground truth (ES on
/// the subset, BnB on the full schema).
void RunSweep(
    const dot::Schema& schema, const char* exact_name,
    const std::function<dot::DotResult(const dot::DotProblem&)>& exact) {
  using namespace dot;
  for (double cap : {-1.0, 21.0, 18.0, 15.0, 12.0}) {
    BoxConfig box = MakeBox2();
    if (cap > 0) box.classes[2].set_capacity_gb(cap);
    auto workload = MakeTpccWorkload(&schema, &box, TpccConfig{});
    Profiler profiler(&schema, &box);
    WorkloadProfiles profiles = profiler.ProfileWorkload(
        *workload, [&](const std::vector<int>& p) {
          Executor executor(workload.get(), ExecutorConfig{});
          return executor.Run(p);
        });
    DotProblem problem;
    problem.schema = &schema;
    problem.box = &box;
    problem.workload = workload.get();
    problem.relative_sla = 0.25;
    problem.profiles = &profiles;
    problem.options.num_threads = 0;

    // The paper's relax-and-repeat loop: lower the SLA until the exact
    // search (the ground truth) finds a feasible solution, then run both
    // at that SLA.
    DotProblem es_problem = problem;
    DotResult es = exact(es_problem);
    while (!es.status.ok() && es_problem.relative_sla > 0.02) {
      es_problem.relative_sla *= 0.9;
      es = exact(es_problem);
    }
    // DOT starts from the SLA the exact search settled on and, like the
    // paper's Figure 2 loop, keeps relaxing if its heuristic walk cannot
    // reach a feasible layout there.
    problem.relative_sla = es_problem.relative_sla;
    DotResult dot_r = OptimizeWithRelaxation(problem, 0.9, 0.02);

    const std::string cap_label =
        cap > 0 ? StrPrintf("%.0f GB", cap) : std::string("No limit");
    std::cout << "\n--- H-SSD cap: " << cap_label << " (rel. SLA: "
              << exact_name << " "
              << FormatSig(es_problem.relative_sla, 2) << ", DOT "
              << FormatSig(problem.relative_sla, 2) << ") ---\n";
    if (!es.status.ok() || !dot_r.status.ok()) {
      std::cout << "infeasible under every tried SLA\n";
      continue;
    }
    TablePrinter t({"method", "tpmC", "TOC (cents/1M txns)", "layouts",
                    "optimize (ms)"});
    t.AddRow({exact_name, StrPrintf("%.0f", es.estimate.tpmc),
              StrPrintf("%.3f", es.toc_cents_per_task * 1e6),
              StrPrintf("%lld", es.layouts_evaluated),
              StrPrintf("%.0f", es.optimize_ms)});
    t.AddRow({"DOT", StrPrintf("%.0f", dot_r.estimate.tpmc),
              StrPrintf("%.3f", dot_r.toc_cents_per_task * 1e6),
              StrPrintf("%lld", dot_r.layouts_evaluated),
              StrPrintf("%.0f", dot_r.optimize_ms)});
    t.Print(std::cout);
    std::cout << StrPrintf(
        "DOT/%s: TOC %.3f, tpmC %.3f, speedup %.0fx\n", exact_name,
        dot_r.toc_cents_per_task / es.toc_cents_per_task,
        dot_r.estimate.tpmc / es.estimate.tpmc,
        es.optimize_ms / std::max(dot_r.optimize_ms, 0.01));
    if (es.nodes_expanded > 0) {
      std::cout << StrPrintf(
          "BnB tree: %lld expanded, %lld bound-pruned, %lld infeasible-"
          "pruned, %lld of %lld layouts cut\n",
          es.nodes_expanded, es.nodes_pruned_bound,
          es.nodes_pruned_infeasible, es.layouts_pruned,
          es.layouts_pruned + es.layouts_evaluated);
    }
  }
}

}  // namespace

int main() {
  using namespace dot;
  std::cout << "=== Figure 9: ES vs DOT, TPC-C on Box 2, H-SSD capacity "
               "limits (9 hottest objects) ===\n";

  Schema full = MakeTpccSchema(300);
  Schema subset = full.Subset({"stock", "pk_stock", "order_line",
                               "pk_order_line", "customer", "pk_customer",
                               "i_customer", "district", "pk_district"});
  RunSweep(subset, "ES", [](const DotProblem& p) {
    return ExactSearch(p, ExactStrategy::kEnumerate);
  });

  std::cout << "\n=== Figure 9 at full scale: exact BnB vs DOT, all "
            << full.NumObjects() << " TPC-C objects (3^"
            << full.NumObjects() << " layouts) ===\n";
  RunSweep(full, "BnB", [](const DotProblem& p) {
    return ExactSearch(p, ExactStrategy::kBranchAndBound);
  });
  return 0;
}
