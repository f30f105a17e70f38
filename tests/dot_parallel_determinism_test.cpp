// The parallel candidate-evaluation engine must be invisible in the
// results: Optimize() and the enumerating ExactSearch at any thread count
// return the same placement, TOC, cost, and evaluation count — bit-identical
// doubles, not approximately equal — because candidates are reduced under a
// total order (TOC, then lexicographically lowest placement), never by
// arrival time.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "catalog/tpcc_schema.h"
#include "catalog/tpch_schema.h"
#include "common/rng.h"
#include "dot/candidate_evaluator.h"
#include "dot/bnb_search.h"
#include "dot/optimizer.h"
#include "dot/provisioner.h"
#include "storage/standard_catalog.h"
#include "workload/dss_workload.h"
#include "workload/htap_workload.h"
#include "workload/profiler.h"
#include "workload/tpch_queries.h"

namespace dot {
namespace {

/// Thread counts the ISSUE pins: serial, a fixed fan-out, and whatever the
/// host reports.
std::vector<int> ThreadCounts() {
  return {1, 4,
          std::max(1, static_cast<int>(std::thread::hardware_concurrency()))};
}

void ExpectIdentical(const DotResult& a, const DotResult& b,
                     const char* what) {
  ASSERT_EQ(a.status.code(), b.status.code()) << what;
  EXPECT_EQ(a.placement, b.placement) << what;
  EXPECT_EQ(a.toc_cents_per_task, b.toc_cents_per_task) << what;
  EXPECT_EQ(a.layout_cost_cents_per_hour, b.layout_cost_cents_per_hour)
      << what;
  EXPECT_EQ(a.layouts_evaluated, b.layouts_evaluated) << what;
  EXPECT_EQ(a.estimate.elapsed_ms, b.estimate.elapsed_ms) << what;
  EXPECT_EQ(a.estimate.tasks_per_hour, b.estimate.tasks_per_hour) << what;
}

/// The §4.4.3 TPC-H ablation instance (8 objects, 3 classes): small enough
/// for ES, rich enough that DOT's move walk takes many accept/reject
/// decisions.
class ParallelDeterminismTest : public ::testing::Test {
 protected:
  ParallelDeterminismTest()
      : schema_(MakeTpchEsSubsetSchema(20.0)),
        box_(MakeBox1()),
        workload_("TPC-H-ES", &schema_, &box_, MakeTpchSubsetTemplates(),
                  RepeatSequence(11, 3), PlannerConfig{}),
        profiler_(&schema_, &box_),
        profiles_(profiler_.ProfileWorkload(
            workload_, [&](const std::vector<int>& p) {
              return workload_.Estimate(p);
            })) {
    problem_.schema = &schema_;
    problem_.box = &box_;
    problem_.workload = &workload_;
    problem_.relative_sla = 0.5;
    problem_.profiles = &profiles_;
  }

  Schema schema_;
  BoxConfig box_;
  DssWorkloadModel workload_;
  Profiler profiler_;
  WorkloadProfiles profiles_;
  DotProblem problem_;
};

TEST_F(ParallelDeterminismTest, OptimizeIsIdenticalAtEveryThreadCount) {
  DotProblem serial = problem_;
  serial.options.num_threads = 1;
  const DotResult baseline = DotOptimizer(serial).Optimize();
  ASSERT_TRUE(baseline.status.ok()) << baseline.status.ToString();
  for (int threads : ThreadCounts()) {
    DotProblem p = problem_;
    p.options.num_threads = threads;
    DotResult r = DotOptimizer(p).Optimize();
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    ExpectIdentical(baseline, r, "Optimize");
  }
}

TEST_F(ParallelDeterminismTest, ExhaustiveIsIdenticalAtEveryThreadCount) {
  DotProblem serial = problem_;
  serial.options.num_threads = 1;
  const DotResult baseline = ExactSearch(serial, ExactStrategy::kEnumerate);
  ASSERT_TRUE(baseline.status.ok()) << baseline.status.ToString();
  EXPECT_EQ(baseline.layouts_evaluated, 6561);  // 3^8, the full space
  for (int threads : ThreadCounts()) {
    DotProblem p = problem_;
    p.options.num_threads = threads;
    DotResult r = ExactSearch(p, ExactStrategy::kEnumerate);
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    ExpectIdentical(baseline, r, "ExhaustiveSearch");
  }
}

TEST_F(ParallelDeterminismTest, ParallelOptimizeStillWithinPaperBandsOfEs) {
  DotProblem p = problem_;
  p.options.num_threads = 4;
  DotResult dot = DotOptimizer(p).Optimize();
  DotResult es = ExactSearch(p, ExactStrategy::kEnumerate);
  ASSERT_TRUE(dot.status.ok());
  ASSERT_TRUE(es.status.ok());
  EXPECT_LE(es.toc_cents_per_task, dot.toc_cents_per_task * (1 + 1e-9));
  EXPECT_LT(dot.toc_cents_per_task, es.toc_cents_per_task * 1.30);
}

TEST_F(ParallelDeterminismTest, ProvisioningIsIdenticalAtEveryThreadCount) {
  // Two options over the same instance at different SLAs; the per-option
  // results and the winner must not depend on the outer fan-out.
  auto make_options = [&] {
    std::vector<ProvisioningOption> options;
    for (double sla : {0.5, 0.25}) {
      ProvisioningOption opt;
      opt.name = "sla-" + std::to_string(sla);
      opt.make_problem = [this, sla] {
        DotProblem p = problem_;
        p.relative_sla = sla;
        return p;
      };
      options.push_back(std::move(opt));
    }
    return options;
  };
  const ProvisioningResult baseline = ProvisionOverOptions(make_options(), 1);
  ASSERT_GE(baseline.best_option, 0);
  for (int threads : ThreadCounts()) {
    ProvisioningResult r = ProvisionOverOptions(make_options(), threads);
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    EXPECT_EQ(r.best_option, baseline.best_option);
    EXPECT_EQ(r.best_name, baseline.best_name);
    ASSERT_EQ(r.per_option.size(), baseline.per_option.size());
    for (size_t i = 0; i < r.per_option.size(); ++i) {
      ExpectIdentical(baseline.per_option[i], r.per_option[i], "per_option");
    }
  }
}

TEST_F(ParallelDeterminismTest, ZeroThreadsResolvesToHardwareConcurrency) {
  DotProblem p = problem_;
  p.options.num_threads = 0;  // auto
  DotResult r = DotOptimizer(p).Optimize();
  ASSERT_TRUE(r.status.ok());
  DotProblem serial = problem_;
  serial.options.num_threads = 1;
  ExpectIdentical(DotOptimizer(serial).Optimize(), r, "auto threads");
}

std::uint64_t Bits(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

void ExpectSameEstimate(const PerfEstimate& a, const PerfEstimate& b) {
  EXPECT_EQ(Bits(a.elapsed_ms), Bits(b.elapsed_ms));
  EXPECT_EQ(Bits(a.tasks_per_hour), Bits(b.tasks_per_hour));
  EXPECT_EQ(Bits(a.tpmc), Bits(b.tpmc));
  EXPECT_EQ(a.num_joins, b.num_joins);
  EXPECT_EQ(a.num_index_nl_joins, b.num_index_nl_joins);
  ASSERT_EQ(a.unit_times_ms.size(), b.unit_times_ms.size());
  for (size_t i = 0; i < a.unit_times_ms.size(); ++i) {
    EXPECT_EQ(Bits(a.unit_times_ms[i]), Bits(b.unit_times_ms[i])) << i;
  }
  ASSERT_EQ(a.io_by_object.size(), b.io_by_object.size());
  for (size_t o = 0; o < a.io_by_object.size(); ++o) {
    for (int k = 0; k < kNumIoTypes; ++k) {
      EXPECT_EQ(Bits(a.io_by_object[o].v[static_cast<size_t>(k)]),
                Bits(b.io_by_object[o].v[static_cast<size_t>(k)]))
          << "object " << o << " io type " << k;
    }
  }
}

/// Full estimates under `io_scale` from 4 threads at once — the epoch
/// planner's pool matrix and the provisioner's fan-out call them this way —
/// each thread walking its own distinct placements several times over, with
/// and without io_by_object, must equal the serial estimates bit for bit:
/// the estimator keeps its per-object I/O in per-call or per-thread
/// scratch, never in shared state.
void ExpectConcurrentEstimatesMatchSerial(const WorkloadModel& model,
                                          int num_objects, int num_classes) {
  constexpr int kThreads = 4;
  constexpr int kPlacementsPerThread = 8;
  constexpr int kRounds = 5;
  Rng rng(0xe57 + static_cast<std::uint64_t>(num_objects));
  std::vector<double> io_scale(static_cast<size_t>(num_objects));
  for (double& s : io_scale) s = 0.5 + 2.0 * rng.NextDouble();
  std::vector<std::vector<int>> placements(kThreads * kPlacementsPerThread);
  for (std::vector<int>& p : placements) {
    p.resize(static_cast<size_t>(num_objects));
    for (int& cls : p) {
      cls = static_cast<int>(
          rng.NextBounded(static_cast<std::uint64_t>(num_classes)));
    }
  }
  // [2 * i + need_io]: placement i without and with io_by_object.
  std::vector<PerfEstimate> serial;
  for (const std::vector<int>& p : placements) {
    for (bool need_io : {false, true}) {
      serial.push_back(model.EstimateWithIoScale(p, io_scale, need_io));
    }
  }

  std::vector<std::vector<PerfEstimate>> concurrent(serial.size());
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = static_cast<size_t>(w); i < placements.size();
             i += kThreads) {
          for (bool need_io : {false, true}) {
            concurrent[2 * i + (need_io ? 1 : 0)].push_back(
                model.EstimateWithIoScale(placements[i], io_scale, need_io));
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(concurrent[i].size(), static_cast<size_t>(kRounds));
    for (const PerfEstimate& est : concurrent[i]) {
      SCOPED_TRACE("placement " + std::to_string(i / 2) +
                   (i % 2 == 1 ? " with io_by_object" : ""));
      ExpectSameEstimate(est, serial[i]);
    }
  }
}

TEST_F(ParallelDeterminismTest, ConcurrentDssEstimatesMatchSerial) {
  ExpectConcurrentEstimatesMatchSerial(workload_, schema_.NumObjects(),
                                       box_.NumClasses());
}

TEST(ConcurrentEstimateTest, HtapEstimatesMatchSerial) {
  const Schema schema = MakeTpccSchema(30);
  const BoxConfig box = MakeBox2();
  const HtapBundle bundle =
      MakeChbenchHtapWorkload(&schema, &box, HtapConfig{});
  ExpectConcurrentEstimatesMatchSerial(*bundle.htap, schema.NumObjects(),
                                       box.NumClasses());
}

TEST(CandidateOrderTest, TieBreaksOnLexicographicallyLowestPlacement) {
  EXPECT_TRUE(BetterCandidate(1.0, {2, 2}, 2.0, {0, 0}));
  EXPECT_FALSE(BetterCandidate(2.0, {0, 0}, 1.0, {2, 2}));
  EXPECT_TRUE(BetterCandidate(1.0, {0, 1}, 1.0, {0, 2}));
  EXPECT_FALSE(BetterCandidate(1.0, {0, 2}, 1.0, {0, 1}));
  EXPECT_FALSE(BetterCandidate(1.0, {0, 1}, 1.0, {0, 1}));
}

TEST(CandidateOrderTest, DecodeLayoutIndexMatchesTheOdometer) {
  // Digit 0 is least significant: index 5 in radix 3 over 3 objects is
  // placement {2, 1, 0}.
  EXPECT_EQ(DecodeLayoutIndex(0, 3, 3), (std::vector<int>{0, 0, 0}));
  EXPECT_EQ(DecodeLayoutIndex(5, 3, 3), (std::vector<int>{2, 1, 0}));
  EXPECT_EQ(DecodeLayoutIndex(26, 3, 3), (std::vector<int>{2, 2, 2}));
}

}  // namespace
}  // namespace dot
