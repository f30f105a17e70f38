// The summation kernels (common/simd_dispatch.h) carry the bit-identity
// story of the fast scorers: each kernel executes the *pinned blocked
// schedule* exactly, so every optimizer verdict — placements, TOC,
// counters — is a pure function of the problem. Pinned here: (1) each
// kernel against an independent spelling of the schedule, (2) fast == full
// evaluation for OLTP / DSS / HTAP / ensemble models on random placement
// walks, and (3) branch-and-bound == enumeration at 1 / 4 / hardware
// threads, pruning counters bitwise equal across thread counts.

#include "common/simd_dispatch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "catalog/tpcc_schema.h"
#include "catalog/tpch_schema.h"
#include "common/rng.h"
#include "dot/bnb_search.h"
#include "dot/candidate_evaluator.h"
#include "dot/ensemble.h"
#include "dot/optimizer.h"
#include "storage/standard_catalog.h"
#include "workload/dss_workload.h"
#include "workload/htap_workload.h"
#include "workload/scenario.h"
#include "workload/tpcc_workload.h"
#include "workload/tpch_queries.h"

namespace dot {
namespace {

std::vector<int> ThreadCounts() {
  return {1, 4,
          std::max(1, static_cast<int>(std::thread::hardware_concurrency()))};
}

/// An independent spelling of the pinned blocked schedule from the
/// simd_dispatch.h contract: sequential below the threshold; otherwise four
/// lanes over the largest multiple of 4, tail folded into lanes 0..r-1 in
/// order, reduced as (acc0 + acc2) + (acc1 + acc3).
double ReferenceSchedule(const std::vector<double>& x) {
  const int n = static_cast<int>(x.size());
  if (n < kBlockedSumThreshold) {
    double total = 0.0;
    for (int i = 0; i < n; ++i) total += x[static_cast<size_t>(i)];
    return total;
  }
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  const int n4 = n & ~3;
  for (int i = 0; i < n4; i += 4) {
    for (int j = 0; j < 4; ++j) acc[j] += x[static_cast<size_t>(i + j)];
  }
  for (int i = n4; i < n; ++i) acc[i - n4] += x[static_cast<size_t>(i)];
  return (acc[0] + acc[2]) + (acc[1] + acc[3]);
}

std::vector<double> RandomDoubles(Rng* rng, int n) {
  std::vector<double> x(static_cast<size_t>(n));
  for (double& v : x) v = rng->NextUniform(-1e3, 1e3);
  return x;
}

const int kLengths[] = {0, 1, 2, 3, 5, 7, 8, 9, 12, 15, 16, 31, 64, 257, 1000};

TEST(SimdKernelTest, BlockedSumMatchesReferenceSchedule) {
  Rng rng(101);
  for (int n : kLengths) {
    const std::vector<double> x = RandomDoubles(&rng, n);
    EXPECT_EQ(BlockedSum(x.data(), n), ReferenceSchedule(x)) << "n=" << n;
  }
}

TEST(SimdKernelTest, GatherSumMatchesReferenceSchedule) {
  Rng rng(102);
  const std::vector<double> values = RandomDoubles(&rng, 512);
  for (int n : kLengths) {
    std::vector<int> idx(static_cast<size_t>(n));
    std::vector<double> gathered(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      idx[static_cast<size_t>(i)] = static_cast<int>(rng.NextBounded(512));
      gathered[static_cast<size_t>(i)] =
          values[static_cast<size_t>(idx[static_cast<size_t>(i)])];
    }
    EXPECT_EQ(GatherSum(values.data(), idx.data(), n),
              ReferenceSchedule(gathered))
        << "n=" << n;
  }
}

TEST(SimdKernelTest, PlaneGatherSumMatchesReferenceSchedule) {
  Rng rng(103);
  const int num_classes = 4;
  const int num_objects = 40;
  for (int n : kLengths) {
    const std::vector<double> plane = RandomDoubles(&rng, num_classes * n);
    std::vector<int> placement(static_cast<size_t>(num_objects));
    for (int& c : placement) {
      c = static_cast<int>(rng.NextBounded(num_classes));
    }
    std::vector<int> objects(static_cast<size_t>(n));
    std::vector<double> gathered(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      objects[static_cast<size_t>(i)] =
          static_cast<int>(rng.NextBounded(num_objects));
      const int cls =
          placement[static_cast<size_t>(objects[static_cast<size_t>(i)])];
      gathered[static_cast<size_t>(i)] =
          plane[static_cast<size_t>(cls) * static_cast<size_t>(n) +
                static_cast<size_t>(i)];
    }
    EXPECT_EQ(
        PlaneGatherSum(plane.data(), objects.data(), placement.data(), n),
        ReferenceSchedule(gathered))
        << "n=" << n;
  }
}

// ---------------------------------------------------------------------------
// Fast == full, randomized placements, all model families.
// ---------------------------------------------------------------------------

/// Runs `rounds` placements of a deterministic mutation walk through one
/// optimizer and checks fast == full bitwise each round.
void CheckFastEqualsFull(const DotProblem& problem, uint64_t seed,
                         int rounds) {
  DotOptimizer optimizer(problem);
  const int n = problem.schema->NumObjects();
  const int m = problem.box->NumClasses();
  Rng rng(seed);
  std::vector<int> placement(static_cast<size_t>(n), 0);
  for (int round = 0; round < rounds; ++round) {
    if (round % 7 == 0) {
      for (int o = 0; o < n; ++o) {
        placement[static_cast<size_t>(o)] =
            static_cast<int>(rng.NextBounded(static_cast<uint64_t>(m)));
      }
    } else {
      const size_t o = rng.NextBounded(static_cast<uint64_t>(n));
      placement[o] =
          static_cast<int>(rng.NextBounded(static_cast<uint64_t>(m)));
    }
    const Layout layout(problem.schema, problem.box, placement);
    const CandidateEval fast = optimizer.EvaluateQuick(placement);
    const CandidateEval full = optimizer.EvaluateOne(layout);
    const std::string what = "round=" + std::to_string(round);
    EXPECT_EQ(fast.fits, full.fits) << what;
    EXPECT_EQ(fast.feasible, full.feasible) << what;
    EXPECT_EQ(fast.toc, full.toc) << what;
    EXPECT_EQ(fast.cost_cents_per_hour, full.cost_cents_per_hour) << what;
    EXPECT_EQ(fast.violation_gb, full.violation_gb) << what;
  }
}

TEST(KernelParityTest, OltpFastEqualsFull) {
  Schema full = MakeTpccSchema(30);
  Schema schema = full.Subset({"stock", "pk_stock", "order_line",
                               "pk_order_line", "customer", "pk_customer",
                               "i_customer", "district", "pk_district"});
  BoxConfig box = MakeBox2();
  auto workload = MakeTpccWorkload(&schema, &box, TpccConfig{});
  DotProblem problem;
  problem.schema = &schema;
  problem.box = &box;
  problem.workload = workload.get();
  problem.relative_sla = 0.25;
  CheckFastEqualsFull(problem, /*seed=*/0x011f, /*rounds=*/80);
}

TEST(KernelParityTest, DssFastEqualsFull) {
  Schema schema = MakeTpchEsSubsetSchema(20.0);
  BoxConfig box = MakeBox1();
  DssWorkloadModel workload("TPC-H-ES", &schema, &box,
                            MakeTpchSubsetTemplates(), RepeatSequence(11, 3),
                            PlannerConfig{});
  DotProblem problem;
  problem.schema = &schema;
  problem.box = &box;
  problem.workload = &workload;
  problem.relative_sla = 0.5;
  CheckFastEqualsFull(problem, /*seed=*/0xd55, /*rounds=*/80);
}

TEST(KernelParityTest, HtapFastEqualsFull) {
  Schema full = MakeTpccSchema(30);
  Schema schema = full.Subset({"stock", "pk_stock", "order_line",
                               "pk_order_line", "customer", "pk_customer",
                               "orders", "pk_orders"});
  BoxConfig box = MakeBox2();
  HtapBundle bundle = MakeChbenchHtapWorkload(&schema, &box, HtapConfig{});
  DotProblem problem;
  problem.schema = &schema;
  problem.box = &box;
  problem.workload = bundle.htap.get();
  problem.relative_sla = 0.25;
  CheckFastEqualsFull(problem, /*seed=*/0x47a9, /*rounds=*/60);
}

TEST(KernelParityTest, EnsembleFastEqualsFull) {
  Schema schema = MakeTpchEsSubsetSchema(20.0);
  BoxConfig box = MakeBox1();
  DssWorkloadModel workload("TPC-H-ES", &schema, &box,
                            MakeTpchSubsetTemplates(), RepeatSequence(11, 3),
                            PlannerConfig{});
  ScenarioNoise noise;
  noise.num_scenarios = 5;
  noise.io_scale_cv = 0.25;
  noise.count_cv = 0.1;
  noise.seed = 11;
  const ScenarioEnsemble ensemble =
      SampleScenarioEnsemble(schema.NumObjects(), noise);
  DotProblem problem;
  problem.schema = &schema;
  problem.box = &box;
  problem.workload = &workload;
  problem.relative_sla = 0.5;
  problem.ensemble = &ensemble;
  CheckFastEqualsFull(problem, /*seed=*/0xe25, /*rounds=*/40);
}

// ---------------------------------------------------------------------------
// Branch-and-bound == enumeration across thread counts.
// ---------------------------------------------------------------------------

void ExpectSearchIdentical(const DotResult& a, const DotResult& b,
                           const std::string& what) {
  ASSERT_EQ(a.status.code(), b.status.code())
      << what << ": " << a.status.ToString() << " vs " << b.status.ToString();
  EXPECT_EQ(a.placement, b.placement) << what;
  EXPECT_EQ(a.toc_cents_per_task, b.toc_cents_per_task) << what;
  EXPECT_EQ(a.layout_cost_cents_per_hour, b.layout_cost_cents_per_hour)
      << what;
  EXPECT_EQ(a.estimate.tasks_per_hour, b.estimate.tasks_per_hour) << what;
  EXPECT_EQ(a.estimate.tpmc, b.estimate.tpmc) << what;
}

void ExpectSameCounters(const DotResult& a, const DotResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.layouts_evaluated, b.layouts_evaluated) << what;
  EXPECT_EQ(a.nodes_expanded, b.nodes_expanded) << what;
  EXPECT_EQ(a.nodes_pruned_bound, b.nodes_pruned_bound) << what;
  EXPECT_EQ(a.nodes_pruned_infeasible, b.nodes_pruned_infeasible) << what;
  EXPECT_EQ(a.layouts_pruned, b.layouts_pruned) << what;
}

/// Branch-and-bound and the sharded enumeration both equal the full-path
/// enumeration at every thread count, and the search tree itself
/// (placement, TOC, every pruning counter) does not depend on the thread
/// count.
void CheckBnbAcrossThreads(DotProblem problem, const std::string& what) {
  DotProblem full = problem;
  full.options.use_fast_eval = false;
  const DotResult reference = ExactSearch(full, ExactStrategy::kEnumerate);
  bool have_baseline = false;
  DotResult baseline;
  for (int threads : ThreadCounts()) {
    problem.options.num_threads = threads;
    const std::string run = what + " threads=" + std::to_string(threads);
    const DotResult es = ExactSearch(problem, ExactStrategy::kEnumerate);
    ExpectSearchIdentical(es, reference, run + " (enumerate vs full)");
    EXPECT_EQ(es.layouts_evaluated, reference.layouts_evaluated) << run;
    const DotResult bnb = ExactSearch(problem, ExactStrategy::kBranchAndBound);
    ExpectSearchIdentical(bnb, es, run);
    if (!have_baseline) {
      baseline = bnb;
      have_baseline = true;
    } else {
      ExpectSearchIdentical(bnb, baseline, run + " (cross-thread)");
      ExpectSameCounters(bnb, baseline, run + " (cross-thread)");
    }
  }
}

TEST(KernelBnbTest, TpccBnbMatchesEnumerationAtEveryThreadCount) {
  Schema full = MakeTpccSchema(30);
  Schema schema = full.Subset({"stock", "pk_stock", "order_line",
                               "pk_order_line", "customer", "pk_customer",
                               "i_customer", "district", "pk_district"});
  BoxConfig box = MakeBox2();
  auto workload = MakeTpccWorkload(&schema, &box, TpccConfig{});
  DotProblem problem;
  problem.schema = &schema;
  problem.box = &box;
  problem.workload = workload.get();
  problem.relative_sla = 0.25;
  CheckBnbAcrossThreads(problem, "tpcc");
}

TEST(KernelBnbTest, HtapBnbMatchesEnumerationAtEveryThreadCount) {
  Schema full = MakeTpccSchema(30);
  Schema schema = full.Subset({"stock", "pk_stock", "order_line",
                               "pk_order_line", "customer", "pk_customer",
                               "orders", "pk_orders"});
  BoxConfig box = MakeBox2();
  HtapBundle bundle = MakeChbenchHtapWorkload(&schema, &box, HtapConfig{});
  DotProblem problem;
  problem.schema = &schema;
  problem.box = &box;
  problem.workload = bundle.htap.get();
  problem.relative_sla = 0.25;
  CheckBnbAcrossThreads(problem, "htap");
}

}  // namespace
}  // namespace dot
