// The TOC-only fast path (per-object device-time tables, the DSS plan
// cache, allocation-free space/cost sums) must be *exactly* identical to
// the full EstimateToc path — bit-identical doubles, not approximately
// equal — for both workload model families, with and without an io_scale
// hint, including after moves that invalidate cached plans. Anything less
// and the two paths could diverge on an accept/reject decision, silently
// changing search results.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/tpcc_schema.h"
#include "catalog/tpch_schema.h"
#include "common/rng.h"
#include "dot/candidate_evaluator.h"
#include "dot/bnb_search.h"
#include "dot/optimizer.h"
#include "dot/solve.h"
#include "storage/standard_catalog.h"
#include "workload/dss_workload.h"
#include "workload/htap_workload.h"
#include "workload/profiler.h"
#include "workload/scenario.h"
#include "workload/tpcc_workload.h"
#include "workload/tpch_queries.h"

namespace dot {
namespace {

std::vector<int> ThreadCounts() {
  return {1, 4,
          std::max(1, static_cast<int>(std::thread::hardware_concurrency()))};
}

void ExpectEvalIdentical(const CandidateEval& fast, const CandidateEval& full,
                         const std::vector<int>& placement) {
  std::string where = "placement:";
  for (int c : placement) where += " " + std::to_string(c);
  EXPECT_EQ(fast.fits, full.fits) << where;
  EXPECT_EQ(fast.feasible, full.feasible) << where;
  EXPECT_EQ(fast.toc, full.toc) << where;
  EXPECT_EQ(fast.cost_cents_per_hour, full.cost_cents_per_hour) << where;
  EXPECT_EQ(fast.violation_gb, full.violation_gb) << where;
}

void ExpectResultIdentical(const DotResult& fast, const DotResult& full,
                           const char* what) {
  ASSERT_EQ(fast.status.code(), full.status.code()) << what;
  EXPECT_EQ(fast.placement, full.placement) << what;
  EXPECT_EQ(fast.toc_cents_per_task, full.toc_cents_per_task) << what;
  EXPECT_EQ(fast.layout_cost_cents_per_hour, full.layout_cost_cents_per_hour)
      << what;
  EXPECT_EQ(fast.layouts_evaluated, full.layouts_evaluated) << what;
  EXPECT_EQ(fast.estimate.elapsed_ms, full.estimate.elapsed_ms) << what;
  EXPECT_EQ(fast.estimate.tasks_per_hour, full.estimate.tasks_per_hour)
      << what;
  EXPECT_EQ(fast.estimate.tpmc, full.estimate.tpmc) << what;
  ASSERT_EQ(fast.estimate.unit_times_ms.size(),
            full.estimate.unit_times_ms.size())
      << what;
  for (size_t i = 0; i < fast.estimate.unit_times_ms.size(); ++i) {
    EXPECT_EQ(fast.estimate.unit_times_ms[i],
              full.estimate.unit_times_ms[i])
        << what << " unit " << i;
  }
}

/// Compares EvaluateQuick against EvaluateOne on `rounds` random placements
/// drawn from a random walk (single-object mutations, so consecutive
/// placements share most of their signature — the plan cache's hit pattern
/// — while still moving footprint objects, which forces invalidation).
void CheckRandomizedEquivalence(const DotProblem& problem, uint64_t seed,
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
      placement[o] = static_cast<int>(rng.NextBounded(
          static_cast<uint64_t>(m)));
    }
    const Layout layout(problem.schema, problem.box, placement);
    ExpectEvalIdentical(optimizer.EvaluateQuick(placement),
                        optimizer.EvaluateOne(layout), placement);
  }
  // The walk above must have exercised the cache in both directions.
  if (problem.workload->sla_kind() == SlaKind::kPerQueryResponseTime) {
    EXPECT_GT(optimizer.plan_cache_hits(), 0);
    EXPECT_GT(optimizer.plan_cache_misses(), 0);
  }
}

class DssFastEvalTest : public ::testing::Test {
 protected:
  DssFastEvalTest()
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

TEST_F(DssFastEvalTest, RandomizedPlacementsMatchFullPathExactly) {
  CheckRandomizedEquivalence(problem_, /*seed=*/0x5eed, /*rounds=*/300);
}

TEST_F(DssFastEvalTest, RandomizedPlacementsMatchWithIoScaleHint) {
  DotProblem p = problem_;
  std::vector<double> scale(static_cast<size_t>(schema_.NumObjects()), 1.0);
  for (size_t o = 0; o < scale.size(); ++o) {
    scale[o] = 0.5 + 0.25 * static_cast<double>(o % 5);
  }
  p.io_scale_hint = scale;
  CheckRandomizedEquivalence(p, /*seed=*/0xfeed, /*rounds=*/150);
}

TEST_F(DssFastEvalTest, MovingATouchedObjectInvalidatesTheCachedPlan) {
  DotOptimizer optimizer(problem_);

  std::vector<int> placement =
      UniformPlacement(schema_.NumObjects(), box_.MostExpensiveClass());
  const Layout base(&schema_, &box_, placement);
  ExpectEvalIdentical(optimizer.EvaluateQuick(placement),
                      optimizer.EvaluateOne(base), placement);
  const long long misses_before = optimizer.plan_cache_misses();

  // Move lineitem (in the footprint of most subset templates): every
  // template that touches it must re-plan, and the fast verdict must track
  // the full path through the changed plans.
  const int lineitem = schema_.FindObject("lineitem");
  ASSERT_GE(lineitem, 0);
  for (int cls = 0; cls < box_.NumClasses(); ++cls) {
    placement[static_cast<size_t>(lineitem)] = cls;
    const Layout moved(&schema_, &box_, placement);
    ExpectEvalIdentical(optimizer.EvaluateQuick(placement),
                        optimizer.EvaluateOne(moved), placement);
  }
  EXPECT_GT(optimizer.plan_cache_misses(), misses_before);

  // Returning to an already-seen signature must hit, not re-plan.
  const long long misses_after = optimizer.plan_cache_misses();
  placement[static_cast<size_t>(lineitem)] = box_.MostExpensiveClass();
  const Layout back(&schema_, &box_, placement);
  ExpectEvalIdentical(optimizer.EvaluateQuick(placement),
                      optimizer.EvaluateOne(back), placement);
  EXPECT_EQ(optimizer.plan_cache_misses(), misses_after);
}

TEST_F(DssFastEvalTest, OptimizeMatchesSlowPathAtEveryThreadCount) {
  // use_fast_eval=false forces every candidate through the full path, so
  // result equality here proves the fast path scored every committed
  // candidate exactly as the full path would have.
  DotProblem slow = problem_;
  slow.options.use_fast_eval = false;
  slow.options.num_threads = 1;
  const DotResult full = DotOptimizer(slow).Optimize();
  ASSERT_TRUE(full.status.ok()) << full.status.ToString();
  for (int threads : ThreadCounts()) {
    DotProblem fast = problem_;
    fast.options.use_fast_eval = true;
    fast.options.num_threads = threads;
    const DotResult r = DotOptimizer(fast).Optimize();
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    ExpectResultIdentical(r, full, "Optimize fast vs full");
  }
}

TEST_F(DssFastEvalTest, ExhaustiveMatchesSlowPathAtEveryThreadCount) {
  DotProblem slow = problem_;
  slow.options.use_fast_eval = false;
  slow.options.num_threads = 1;
  const DotResult full = ExactSearch(slow, ExactStrategy::kEnumerate);
  ASSERT_TRUE(full.status.ok()) << full.status.ToString();
  for (int threads : ThreadCounts()) {
    DotProblem fast = problem_;
    fast.options.use_fast_eval = true;
    fast.options.num_threads = threads;
    const DotResult r = ExactSearch(fast, ExactStrategy::kEnumerate);
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    ExpectResultIdentical(r, full, "ExhaustiveSearch fast vs full");
    // The cursor walk resolves almost every template probe from the cache:
    // each template's signature space is tiny next to the full M^N space.
    EXPECT_GT(r.plan_cache_hits, r.plan_cache_misses);
  }
}

TEST_F(DssFastEvalTest, MismatchedTargetsOverrideFallsBackToFullPath) {
  // A throughput-kind override on a DSS workload is degenerate but legal:
  // every candidate is infeasible (tpmc stays 0). The fast path must step
  // aside (its scorers assume caps of the matching kind), not abort.
  PerfTargets throughput_targets;
  throughput_targets.kind = SlaKind::kThroughput;
  throughput_targets.min_tpmc = 1.0;
  DotProblem p = problem_;
  p.targets_override = &throughput_targets;
  const DotResult r = DotOptimizer(p).Optimize();
  EXPECT_FALSE(r.status.ok());
}

TEST(DssUnusedTemplateTest, TemplatesOutsideTheSequenceAreNeverPlanned) {
  // A template list larger than the run sequence: the fast path must skip
  // the unused tail exactly like the full path does (no planner calls, no
  // footprint resolution) and still agree bit-for-bit.
  Schema schema = MakeTpchEsSubsetSchema(20.0);
  BoxConfig box = MakeBox1();
  std::vector<QuerySpec> templates = MakeTpchSubsetTemplates();
  const size_t num_used = templates.size();
  templates.push_back(templates.front());  // never referenced below
  DssWorkloadModel workload("TPC-H-unused", &schema, &box,
                            std::move(templates),
                            RepeatSequence(static_cast<int>(num_used), 2),
                            PlannerConfig{});
  Profiler profiler(&schema, &box);
  WorkloadProfiles profiles = profiler.ProfileWorkload(
      workload,
      [&](const std::vector<int>& p) { return workload.Estimate(p); });

  DotProblem problem;
  problem.schema = &schema;
  problem.box = &box;
  problem.workload = &workload;
  problem.relative_sla = 0.5;
  problem.profiles = &profiles;
  CheckRandomizedEquivalence(problem, /*seed=*/0x17, /*rounds=*/60);
}

void ExpectSameQuickPerf(const QuickPerf& a, const QuickPerf& b,
                         const std::string& where) {
  EXPECT_EQ(a.elapsed_ms, b.elapsed_ms) << where;
  EXPECT_EQ(a.tasks_per_hour, b.tasks_per_hour) << where;
  EXPECT_EQ(a.tpmc, b.tpmc) << where;
  EXPECT_EQ(a.sla_ok, b.sla_ok) << where;
}

/// Seeded random depth-first walk of one bound cursor: Assign a random
/// unassigned object to a random class, ProbeClasses one, or Unassign the
/// most recent (LIFO). The depth drifts up and then bounces below the
/// leaves, so whole footprints are re-completed with repeating keys (the
/// DSS cursor memo's hit path). After every step Optimistic must equal,
/// bit for bit, a fresh cursor that assigned the same prefix in the same
/// order; at every leaf it must equal Score, which never reads a cursor
/// memo.
void CheckRandomCursorWalk(const FastScorer& scorer, int n, int m,
                           uint64_t seed, int steps) {
  Rng rng(seed);
  std::unique_ptr<FastScorer::BoundCursor> cursor = scorer.MakeBoundCursor();
  std::vector<int> placement(static_cast<size_t>(n), 0);
  std::vector<int> order;  // assigned objects, in Assign order
  std::vector<int> unassigned(static_cast<size_t>(n));
  for (int o = 0; o < n; ++o) unassigned[static_cast<size_t>(o)] = o;
  std::vector<unsigned char> mask(static_cast<size_t>(m));
  std::vector<QuickPerf> out(static_cast<size_t>(m));
  std::vector<double> tp_den(static_cast<size_t>(m));

  // Replays `order` (plus `extra` on class `extra_cls`, when >= 0) on a
  // fresh cursor.
  auto fresh = [&](int extra, int extra_cls) {
    std::unique_ptr<FastScorer::BoundCursor> c = scorer.MakeBoundCursor();
    std::vector<int> p = placement;
    for (int o : order) c->Assign(o, p);
    if (extra >= 0) {
      p[static_cast<size_t>(extra)] = extra_cls;
      c->Assign(extra, p);
    }
    return c->Optimistic(p);
  };
  int leaves = 0;
  for (int step = 0; step < steps; ++step) {
    const std::string where = "seed " + std::to_string(seed) + " step " +
                              std::to_string(step) + " depth " +
                              std::to_string(order.size());
    const uint64_t r = rng.NextBounded(10);
    if (!unassigned.empty() && (order.empty() || r < 5)) {
      const size_t pick = rng.NextBounded(unassigned.size());
      const int o = unassigned[pick];
      unassigned.erase(unassigned.begin() + static_cast<long>(pick));
      placement[static_cast<size_t>(o)] =
          static_cast<int>(rng.NextBounded(static_cast<uint64_t>(m)));
      cursor->Assign(o, placement);
      order.push_back(o);
    } else if (!unassigned.empty() && r < 7) {
      const int o = unassigned[rng.NextBounded(unassigned.size())];
      for (int c = 0; c < m; ++c) {
        mask[static_cast<size_t>(c)] = rng.NextBounded(4) != 0 ? 1 : 0;
      }
      const int saved = placement[static_cast<size_t>(o)];
      cursor->ProbeClasses(o, placement, m, mask.data(), out.data(),
                           tp_den.data());
      placement[static_cast<size_t>(o)] = saved;
      for (int c = 0; c < m; ++c) {
        if (mask[static_cast<size_t>(c)] == 0) continue;
        const QuickPerf want = fresh(o, c);
        EXPECT_EQ(out[static_cast<size_t>(c)].sla_ok, want.sla_ok)
            << where << " probe class " << c;
        if (tp_den[static_cast<size_t>(c)] == 1.0) {
          EXPECT_EQ(out[static_cast<size_t>(c)].tasks_per_hour,
                    want.tasks_per_hour)
              << where << " probe class " << c;
        }
      }
    } else {
      const int o = order.back();
      order.pop_back();
      cursor->Unassign(o);
      unassigned.push_back(o);
    }
    const QuickPerf got = cursor->Optimistic(placement);
    ExpectSameQuickPerf(got, fresh(-1, 0), where + " vs fresh cursor");
    if (static_cast<int>(order.size()) == n) {
      ++leaves;
      ExpectSameQuickPerf(got, scorer.Score(placement), where + " vs Score");
    }
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(leaves, steps / 20) << "the walk should keep reaching leaves";
}

/// Full TPC-H (16 objects): most templates' footprints have more than
/// kDenseCacheMaxEntries placements on a 3-class box, so their exact
/// times come from the cursor memo or a compiled run. `modified` selects
/// the 5-template modified workload (x20) instead of the 22 originals (x3).
struct TpchCursorInstance {
  Schema schema = MakeTpchSchema(20.0);
  BoxConfig box;
  std::unique_ptr<DssWorkloadModel> workload;

  explicit TpchCursorInstance(BoxConfig b, bool modified = false)
      : box(std::move(b)) {
    workload = std::make_unique<DssWorkloadModel>(
        "TPC-H", &schema, &box,
        modified ? MakeModifiedTpchTemplates() : MakeTpchTemplates(),
        modified ? RepeatSequence(5, 20) : RepeatSequence(22, 3),
        PlannerConfig{});
  }

  DotProblem Problem() const {
    DotProblem p;
    p.schema = &schema;
    p.box = &box;
    p.workload = workload.get();
    p.relative_sla = 0.5;
    return p;
  }

  void Walk(const DotProblem& problem, uint64_t seed) const {
    DotOptimizer optimizer(problem);
    ASSERT_NE(optimizer.scorer(), nullptr);
    CheckRandomCursorWalk(*optimizer.scorer(), schema.NumObjects(),
                          box.NumClasses(), seed, /*steps=*/1000);
  }
};

std::vector<double> CursorWalkIoScale(int n) {
  std::vector<double> scale(static_cast<size_t>(n));
  for (int o = 0; o < n; ++o) {
    scale[static_cast<size_t>(o)] = 0.6 + 0.2 * static_cast<double>(o % 4);
  }
  return scale;
}

/// Random partial assignments of one bound cursor, each Assign followed by
/// Tighten the way branch-and-bound descends. At the deepest point
/// Optimistic() must bound Score over sampled completions (elapsed no
/// larger, throughput no smaller, an SLA miss only when every sample
/// misses), a full assignment must score exactly, and each Unassign must
/// restore Optimistic() to its bits before that Assign. Returns how many
/// Tighten calls raised the bound.
int CheckTightenedBounds(const FastScorer& scorer, int n, int m,
                         uint64_t seed, int trials) {
  Rng rng(seed);
  const std::unique_ptr<FastScorer::BoundCursor> cursor =
      scorer.MakeBoundCursor();
  int raised = 0;
  for (int trial = 0; trial < trials; ++trial) {
    const std::string where =
        "seed " + std::to_string(seed) + " trial " + std::to_string(trial);
    cursor->Reset();
    std::vector<int> order(static_cast<size_t>(n));
    for (int o = 0; o < n; ++o) order[static_cast<size_t>(o)] = o;
    for (int i = n - 1; i > 0; --i) {
      std::swap(order[static_cast<size_t>(i)],
                order[rng.NextBounded(static_cast<uint64_t>(i) + 1)]);
    }
    // Every fifth trial runs to a leaf; the rest stop at least two objects
    // deep, where Tighten can fire.
    const int depth =
        trial % 5 == 0
            ? n
            : 2 + static_cast<int>(
                      rng.NextBounded(static_cast<uint64_t>(n) - 2));
    std::vector<int> placement(static_cast<size_t>(n), 0);
    std::vector<QuickPerf> path = {cursor->Optimistic(placement)};
    for (int i = 0; i < depth; ++i) {
      const int o = order[static_cast<size_t>(i)];
      placement[static_cast<size_t>(o)] =
          static_cast<int>(rng.NextBounded(static_cast<uint64_t>(m)));
      cursor->Assign(o, placement);
      if (cursor->Tighten(placement)) ++raised;
      path.push_back(cursor->Optimistic(placement));
    }
    const QuickPerf bound = path.back();
    if (depth == n) {
      ExpectSameQuickPerf(bound, scorer.Score(placement), where + " leaf");
    } else {
      std::vector<int> completion = placement;
      for (int sample = 0; sample < 6; ++sample) {
        for (int i = depth; i < n; ++i) {
          completion[static_cast<size_t>(order[static_cast<size_t>(i)])] =
              static_cast<int>(rng.NextBounded(static_cast<uint64_t>(m)));
        }
        const QuickPerf exact = scorer.Score(completion);
        EXPECT_LE(bound.elapsed_ms, exact.elapsed_ms) << where;
        if (bound.tasks_per_hour > 0) {
          EXPECT_GE(bound.tasks_per_hour, exact.tasks_per_hour) << where;
        }
        if (!bound.sla_ok) {
          EXPECT_FALSE(exact.sla_ok) << where;
        }
      }
    }
    for (int i = depth; i-- > 0;) {
      cursor->Unassign(order[static_cast<size_t>(i)]);
      ExpectSameQuickPerf(cursor->Optimistic(placement),
                          path[static_cast<size_t>(i)],
                          where + " after Unassign at depth " +
                              std::to_string(i));
    }
    if (::testing::Test::HasFailure()) return raised;
  }
  return raised;
}

TEST(DssCursorWalkTest, RandomWalksMatchFreshCursorsAndScore) {
  int boxes = 0;
  for (const BoxConfig& box : {MakeBox1(), MakeBox2()}) {
    SCOPED_TRACE("box " + std::to_string(++boxes));
    const TpchCursorInstance inst(box);
    bool memoized = false;
    for (const CompiledTemplate& program : inst.workload->compiled()) {
      double placements = 1.0;
      for (size_t i = 0; i < program.footprint().size(); ++i) {
        placements *= box.NumClasses();
      }
      memoized = memoized ||
                 placements > DssWorkloadModel::kDenseCacheMaxEntries;
    }
    EXPECT_TRUE(memoized) << "no template reaches the cursor memo";
    inst.Walk(inst.Problem(), /*seed=*/0xc0 + static_cast<uint64_t>(boxes));
    DotProblem scaled = inst.Problem();
    scaled.io_scale_hint = CursorWalkIoScale(inst.schema.NumObjects());
    inst.Walk(scaled, /*seed=*/0xd0 + static_cast<uint64_t>(boxes));
  }
}

TEST(DssCursorWalkTest, EnsembleCursorMatchesFreshCursorsAndScore) {
  const TpchCursorInstance inst(MakeBox1());
  const int n = inst.schema.NumObjects();
  ScenarioEnsemble ensemble;
  for (int k = 0; k < 3; ++k) {
    Scenario sc;
    if (k > 0) {
      sc.io_scale = CursorWalkIoScale(n);
      for (double& s : sc.io_scale) s *= 0.8 + 0.3 * k;
    }
    ensemble.scenarios.push_back(sc);
  }
  DotProblem problem = inst.Problem();
  problem.ensemble = &ensemble;
  inst.Walk(problem, /*seed=*/0xe3);

  // The ensemble cursor forwards Tighten to every child scorer.
  DotOptimizer optimizer(problem);
  ASSERT_NE(optimizer.scorer(), nullptr);
  EXPECT_GT(CheckTightenedBounds(*optimizer.scorer(), n,
                                 inst.box.NumClasses(), /*seed=*/0xe7,
                                 /*trials=*/40),
            0);
}

TEST(DssTightenTest, TightenedBoundsStayAdmissibleAndUnassignRestoresThem) {
  // Full TPC-H on both boxes, with no hint, a uniform one and a skewed one
  // (a quarter of the factors 0), at planning concurrency 1 and 30.
  const Schema schema = MakeTpchSchema(20.0);
  const int n = schema.NumObjects();
  int boxes = 0;
  for (const BoxConfig& box : {MakeBox1(), MakeBox2()}) {
    ++boxes;
    for (double concurrency : {1.0, 30.0}) {
      PlannerConfig config;
      config.concurrency = concurrency;
      const DssWorkloadModel workload("TPC-H", &schema, &box,
                                      MakeTpchTemplates(),
                                      RepeatSequence(22, 3), config);
      for (int hint = 0; hint < 3; ++hint) {
        const std::string what =
            "box " + std::to_string(boxes) + " concurrency " +
            std::to_string(concurrency) + " hint " + std::to_string(hint);
        SCOPED_TRACE(what);
        Rng rng(static_cast<uint64_t>(boxes * 100 + hint) +
                static_cast<uint64_t>(concurrency));
        DotProblem problem;
        problem.schema = &schema;
        problem.box = &box;
        problem.workload = &workload;
        problem.relative_sla = 0.5;
        if (hint == 1) {
          problem.io_scale_hint.assign(static_cast<size_t>(n),
                                       rng.NextUniform(0.5, 2.0));
        } else if (hint == 2) {
          problem.io_scale_hint.resize(static_cast<size_t>(n));
          for (double& s : problem.io_scale_hint) {
            s = rng.NextBounded(4) == 0 ? 0.0 : rng.NextUniform(0.0, 3.0);
          }
        }
        DotOptimizer optimizer(problem);
        ASSERT_NE(optimizer.scorer(), nullptr);
        const int raised =
            CheckTightenedBounds(*optimizer.scorer(), n, box.NumClasses(),
                                 rng.NextUint64(), /*trials=*/40);
        EXPECT_GT(raised, 0) << "Tighten never raised a bound";
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(HtapTightenTest, TightenedBoundsStayAdmissibleAndUnassignRestoresThem) {
  // The HTAP cursor forwards Tighten to its DSS side: the CH-benCH mix on
  // the shared TPC-C objects, on both boxes, at a light and a heavy
  // analytic load, with no hint and with a skewed one.
  const Schema schema = MakeTpccSchema(300).Subset(
      {"stock", "pk_stock", "order_line", "pk_order_line", "customer",
       "pk_customer", "orders", "pk_orders"});
  const int n = schema.NumObjects();
  int raised = 0;
  int boxes = 0;
  for (const BoxConfig& box : {MakeBox1(), MakeBox2()}) {
    ++boxes;
    for (double rho : {8.0, 64.0}) {
      HtapConfig config;
      config.analytics_streams = rho;
      const HtapBundle bundle = MakeChbenchHtapWorkload(&schema, &box, config);
      for (int hint = 0; hint < 2; ++hint) {
        SCOPED_TRACE("box " + std::to_string(boxes) + " rho " +
                     std::to_string(rho) + " hint " + std::to_string(hint));
        DotProblem problem;
        problem.schema = &schema;
        problem.box = &box;
        problem.workload = bundle.htap.get();
        problem.relative_sla = 0.3;
        if (hint == 1) problem.io_scale_hint = CursorWalkIoScale(n);
        DotOptimizer optimizer(problem);
        ASSERT_NE(optimizer.scorer(), nullptr);
        raised += CheckTightenedBounds(
            *optimizer.scorer(), n, box.NumClasses(),
            /*seed=*/static_cast<uint64_t>(boxes * 1000 + hint) +
                static_cast<uint64_t>(rho),
            /*trials=*/40);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
  EXPECT_GT(raised, 0) << "Tighten never raised an HTAP bound";
}

/// Seeded random DOT-style walk of one move walk: each step moves one
/// object group (every member to a random class, so some members may keep
/// theirs) and then either commits it unpriced, prices it and commits, or
/// prices it and rejects. Every Price must equal, bit for bit, a fresh
/// Score of the candidate, and the committed placement is priced with an
/// empty move at the end.
void CheckRandomMoveWalk(const FastScorer& scorer, const Schema& schema,
                         int m, uint64_t seed, int steps) {
  const std::vector<ObjectGroup> groups = schema.MakeGroups();
  Rng rng(seed);
  std::vector<int> committed(static_cast<size_t>(schema.NumObjects()),
                             m - 1);
  const std::unique_ptr<FastScorer::MoveWalk> walk =
      scorer.MakeMoveWalk(committed);
  int unpriced_commits = 0;
  int priced_commits = 0;
  for (int step = 0; step < steps; ++step) {
    const std::string where =
        "seed " + std::to_string(seed) + " step " + std::to_string(step);
    const std::vector<int>& moved =
        groups[rng.NextBounded(groups.size())].members;
    std::vector<int> candidate = committed;
    for (int o : moved) {
      candidate[static_cast<size_t>(o)] =
          static_cast<int>(rng.NextBounded(static_cast<uint64_t>(m)));
    }
    const uint64_t r = rng.NextBounded(4);
    if (r != 0) {
      ExpectSameQuickPerf(walk->Price(candidate, moved),
                          scorer.Score(candidate), where);
    }
    if (r <= 1) {
      walk->Commit(candidate, moved);
      committed = candidate;
      (r == 0 ? unpriced_commits : priced_commits) += 1;
    }
    if (::testing::Test::HasFailure()) return;
  }
  ExpectSameQuickPerf(walk->Price(committed, {}), scorer.Score(committed),
                      "seed " + std::to_string(seed) + " final");
  EXPECT_GT(unpriced_commits, 0);
  EXPECT_GT(priced_commits, 0);
}

TEST(DssMoveWalkTest, RandomGroupMovesMatchScore) {
  int instance = 0;
  for (const bool modified : {false, true}) {
    for (const BoxConfig& box : {MakeBox1(), MakeBox2()}) {
      ++instance;
      SCOPED_TRACE(std::string(modified ? "modified" : "original") +
                   " TPC-H, box " + std::to_string(instance));
      const TpchCursorInstance inst(box, modified);
      for (const bool scaled : {false, true}) {
        DotProblem problem = inst.Problem();
        if (scaled) {
          problem.io_scale_hint = CursorWalkIoScale(inst.schema.NumObjects());
        }
        DotOptimizer optimizer(problem);
        ASSERT_NE(optimizer.scorer(), nullptr);
        const uint64_t seed =
            0xa0 + 2 * static_cast<uint64_t>(instance) + (scaled ? 1 : 0);
        CheckRandomMoveWalk(*optimizer.scorer(), inst.schema,
                            box.NumClasses(), seed, /*steps=*/400);
      }
    }
  }
}

/// Seeded random DOT-style walk that asks Bound before every Price: the
/// bound must be admissible (elapsed no larger, throughput no smaller,
/// an SLA miss only when Price misses too). Moves are committed priced,
/// committed unpriced (after Bound alone) or rejected, so Bound runs
/// against committed maxima that both kinds of Commit refreshed. Returns
/// how many bounds were tight enough to matter: an SLA miss, or a
/// throughput bound below the committed placement's.
int CheckRandomMoveBounds(const FastScorer& scorer, const Schema& schema,
                          int m, uint64_t seed, int steps) {
  const std::vector<ObjectGroup> groups = schema.MakeGroups();
  Rng rng(seed);
  std::vector<int> committed(static_cast<size_t>(schema.NumObjects()),
                             m - 1);
  const std::unique_ptr<FastScorer::MoveWalk> walk =
      scorer.MakeMoveWalk(committed);
  int tight = 0;
  for (int step = 0; step < steps; ++step) {
    const std::string where =
        "seed " + std::to_string(seed) + " step " + std::to_string(step);
    const std::vector<int>& moved =
        groups[rng.NextBounded(groups.size())].members;
    std::vector<int> candidate = committed;
    for (int o : moved) {
      candidate[static_cast<size_t>(o)] =
          static_cast<int>(rng.NextBounded(static_cast<uint64_t>(m)));
    }
    const QuickPerf bound = walk->Bound(candidate, moved);
    const QuickPerf exact = scorer.Score(candidate);
    EXPECT_LE(bound.elapsed_ms, exact.elapsed_ms) << where;
    if (bound.tasks_per_hour > 0) {
      EXPECT_GE(bound.tasks_per_hour, exact.tasks_per_hour) << where;
    }
    if (!bound.sla_ok) {
      EXPECT_FALSE(exact.sla_ok) << where;
    }
    if (!bound.sla_ok ||
        (bound.tasks_per_hour > 0 &&
         bound.tasks_per_hour < scorer.Score(committed).tasks_per_hour)) {
      ++tight;
    }
    const uint64_t r = rng.NextBounded(4);
    if (r != 0) {
      ExpectSameQuickPerf(walk->Price(candidate, moved), exact, where);
    }
    if (r <= 1) {
      walk->Commit(candidate, moved);
      committed = candidate;
    }
    if (::testing::Test::HasFailure()) return tight;
  }
  return tight;
}

/// One instance of the move-walk sweeps: a full TPC-H problem at SLA 0.5
/// with profiles, how it was drawn, and a seed of its own.
struct SweepInstance {
  DotProblem problem;
  bool modified = false;
  double concurrency = 1.0;
  int hint = 0;
  uint64_t seed = 0;
};

/// Calls `check` on original and modified TPC-H on both boxes, at planning
/// concurrency 1 and 30, each with no hint, a uniform one and a skewed one
/// (a quarter of the factors 0), stopping at the first failure.
template <typename Check>
void ForEachSweepInstance(Check check) {
  const Schema schema = MakeTpchSchema(20.0);
  const int n = schema.NumObjects();
  int instance = 0;
  for (const bool modified : {false, true}) {
    int boxes = 0;
    for (const BoxConfig& box : {MakeBox1(), MakeBox2()}) {
      ++boxes;
      for (double concurrency : {1.0, 30.0}) {
        PlannerConfig config;
        config.concurrency = concurrency;
        const DssWorkloadModel workload(
            "TPC-H", &schema, &box,
            modified ? MakeModifiedTpchTemplates() : MakeTpchTemplates(),
            modified ? RepeatSequence(5, 20) : RepeatSequence(22, 3), config);
        const WorkloadProfiles profiles =
            Profiler(&schema, &box)
                .ProfileWorkload(workload, [&](const std::vector<int>& p) {
                  return workload.Estimate(p);
                });
        for (int hint = 0; hint < 3; ++hint) {
          SCOPED_TRACE(std::string(modified ? "modified" : "original") +
                       " TPC-H, box " + std::to_string(boxes) +
                       ", concurrency " + std::to_string(concurrency) +
                       ", hint " + std::to_string(hint));
          SweepInstance inst;
          inst.modified = modified;
          inst.concurrency = concurrency;
          inst.hint = hint;
          Rng rng(static_cast<uint64_t>(++instance) * 7919);
          inst.problem.schema = &schema;
          inst.problem.box = &box;
          inst.problem.workload = &workload;
          inst.problem.relative_sla = 0.5;
          inst.problem.profiles = &profiles;
          if (hint == 1) {
            inst.problem.io_scale_hint.assign(static_cast<size_t>(n),
                                              rng.NextUniform(0.5, 2.0));
          } else if (hint == 2) {
            inst.problem.io_scale_hint.resize(static_cast<size_t>(n));
            for (double& s : inst.problem.io_scale_hint) {
              s = rng.NextBounded(4) == 0 ? 0.0 : rng.NextUniform(0.0, 3.0);
            }
          }
          inst.seed = rng.NextUint64();
          check(inst);
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
}

TEST(DssMoveWalkTest, BoundsAreAdmissible) {
  ForEachSweepInstance([](const SweepInstance& inst) {
    DotOptimizer optimizer(inst.problem);
    ASSERT_NE(optimizer.scorer(), nullptr);
    EXPECT_GT(CheckRandomMoveBounds(*optimizer.scorer(), *inst.problem.schema,
                                    inst.problem.box->NumClasses(), inst.seed,
                                    /*steps=*/300),
              0)
        << "no bound was tight enough to gate a move";
  });
}

/// Runs Procedure 1 on `problem` gated (the fast path) and ungated (the
/// full path, which has no bound): placement, TOC bits, status and the
/// count of judged layouts must agree. The full path prices every move
/// that fits, so the moves it does not price are the over-capacity ones;
/// the fast walk's priced and gated moves plus those make up every
/// candidate after L0. Returns the fast walk's result.
DotResult ExpectGatedWalkMatchesFullPath(DotProblem problem) {
  DotProblem full = problem;
  full.options.use_fast_eval = false;
  problem.options.use_fast_eval = true;
  const DotResult slow = DotOptimizer(full).Walk();
  const DotResult fast = DotOptimizer(problem).Walk();
  EXPECT_EQ(fast.status.code(), slow.status.code());
  EXPECT_EQ(fast.placement, slow.placement);
  EXPECT_EQ(fast.toc_cents_per_task, slow.toc_cents_per_task);
  EXPECT_EQ(fast.layout_cost_cents_per_hour, slow.layout_cost_cents_per_hour);
  EXPECT_EQ(fast.layouts_evaluated, slow.layouts_evaluated);
  EXPECT_EQ(slow.moves_gated, 0);
  const long long over_capacity =
      slow.layouts_evaluated - 1 - slow.moves_priced;
  EXPECT_EQ(fast.moves_priced + fast.moves_gated + over_capacity,
            fast.layouts_evaluated - 1);
  return fast;
}

TEST(DssMoveWalkTest, GatedWalkMatchesUngatedFullPath) {
  ForEachSweepInstance([](const SweepInstance& inst) {
    const DotResult gated = ExpectGatedWalkMatchesFullPath(inst.problem);
    ASSERT_TRUE(gated.status.ok()) << gated.status.ToString();
    EXPECT_GT(gated.moves_priced, 0);
    if (!inst.modified && inst.concurrency == 1.0 && inst.hint == 0) {
      // The paper's setting gates on both boxes.
      EXPECT_GT(gated.moves_gated, 0);
    }
    // The ablations: Procedure 1's keep-every-feasible rule gates on the
    // SLA alone, and per-object moves change one object at a time.
    DotProblem any_feasible = inst.problem;
    any_feasible.options.acceptance = MoveAcceptance::kAnyFeasible;
    ExpectGatedWalkMatchesFullPath(any_feasible);
    DotProblem per_object = inst.problem;
    per_object.options.group_objects = false;
    ExpectGatedWalkMatchesFullPath(per_object);
  });
}

TEST(DssMoveWalkTest, OverCapacityStartMatchesSlowPath) {
  // A premium-class cap below the database size makes L0 over capacity, so
  // the walk keeps unpriced candidates while it shrinks the violation.
  BoxConfig box = MakeBox1();
  const int premium = box.MostExpensiveClass();
  TpchCursorInstance inst(box);
  inst.box.classes[static_cast<size_t>(premium)].set_capacity_gb(
      0.5 * inst.schema.TotalSizeGb());
  const Layout l0 = Layout::Uniform(&inst.schema, &inst.box, premium);
  ASSERT_GT(l0.CapacityViolationGb(), 0.0);
  Profiler profiler(&inst.schema, &inst.box);
  const WorkloadProfiles profiles = profiler.ProfileWorkload(
      *inst.workload,
      [&](const std::vector<int>& p) { return inst.workload->Estimate(p); });
  for (const bool scaled : {false, true}) {
    SCOPED_TRACE(scaled ? "io_scale hint" : "no hint");
    DotProblem slow = inst.Problem();
    slow.relative_sla = 0.25;
    slow.profiles = &profiles;
    if (scaled) {
      slow.io_scale_hint = CursorWalkIoScale(inst.schema.NumObjects());
    }
    DotProblem fast = slow;
    slow.options.use_fast_eval = false;
    fast.options.use_fast_eval = true;
    const DotResult full = DotOptimizer(slow).Optimize();
    ASSERT_TRUE(full.status.ok()) << full.status.ToString();
    ExpectResultIdentical(DotOptimizer(fast).Optimize(), full,
                          "Optimize fast vs full, over-capacity L0");
  }
}

TEST(DssMoveWalkTest, GatedWalkMatchesFullPathFromOverCapacityStarts) {
  // Premium-class caps below the database size make L0 over capacity: the
  // walk must price every move until it fits and meets the SLA, since the
  // violation rescue keeps moves a bound would reject. The first instance
  // is OverCapacityStartMatchesSlowPath's; on the second, a gate that also
  // fired over capacity would end the walk with another verdict.
  struct Capped {
    BoxConfig box;
    double cap_share;
    double relative_sla;
  };
  int instance = 0;
  for (const Capped& capped :
       {Capped{MakeBox1(), 0.5, 0.25}, Capped{MakeBox2(), 0.8, 0.5}}) {
    SCOPED_TRACE("capped instance " + std::to_string(++instance));
    TpchCursorInstance inst(capped.box);
    const int premium = inst.box.MostExpensiveClass();
    inst.box.classes[static_cast<size_t>(premium)].set_capacity_gb(
        capped.cap_share * inst.schema.TotalSizeGb());
    Profiler profiler(&inst.schema, &inst.box);
    const WorkloadProfiles profiles = profiler.ProfileWorkload(
        *inst.workload,
        [&](const std::vector<int>& p) { return inst.workload->Estimate(p); });
    for (const bool scaled : {false, true}) {
      SCOPED_TRACE(scaled ? "io_scale hint" : "no hint");
      DotProblem problem = inst.Problem();
      problem.relative_sla = capped.relative_sla;
      problem.profiles = &profiles;
      if (scaled) {
        problem.io_scale_hint = CursorWalkIoScale(inst.schema.NumObjects());
      }
      const DotResult gated = ExpectGatedWalkMatchesFullPath(problem);
      // Some moves were over capacity; a walk that reached a feasible
      // layout gated after it.
      EXPECT_LT(gated.moves_priced + gated.moves_gated,
                gated.layouts_evaluated - 1);
      if (gated.status.ok()) {
        EXPECT_GT(gated.moves_gated, 0);
      }
    }
  }
}

/// Full TPC-H on Box 1 with its profiles, for exact solves that seed from
/// the walk.
struct ExactTpchInstance {
  Schema schema = MakeTpchSchema(20.0);
  BoxConfig box = MakeBox1();
  std::unique_ptr<DssWorkloadModel> workload = MakeWorkload();
  WorkloadProfiles profiles =
      Profiler(&schema, &box)
          .ProfileWorkload(*workload, [this](const std::vector<int>& p) {
            return workload->Estimate(p);
          });

  std::unique_ptr<DssWorkloadModel> MakeWorkload() const {
    return std::make_unique<DssWorkloadModel>(
        "TPC-H", &schema, &box, MakeTpchTemplates(), RepeatSequence(22, 3),
        PlannerConfig{});
  }

  SolveResult SolveExact(const DssWorkloadModel& model,
                         std::vector<double> hint = {}) const {
    DotProblem problem;
    problem.schema = &schema;
    problem.box = &box;
    problem.workload = &model;
    problem.relative_sla = 0.5;
    problem.profiles = &profiles;
    problem.io_scale_hint = std::move(hint);
    SolveSpec spec;
    spec.method = SolveMethod::kExact;
    return Solve(problem, spec);
  }
};

void ExpectSameExactSolve(const SolveResult& got, const SolveResult& want) {
  ASSERT_TRUE(got.status.ok()) << got.status.ToString();
  ASSERT_TRUE(want.status.ok()) << want.status.ToString();
  EXPECT_EQ(got.placement, want.placement);
  EXPECT_EQ(got.toc_cents_per_task, want.toc_cents_per_task);
  EXPECT_EQ(got.provenance.layouts_evaluated,
            want.provenance.layouts_evaluated);
  EXPECT_EQ(got.provenance.nodes_expanded, want.provenance.nodes_expanded);
  EXPECT_EQ(got.provenance.nodes_pruned_bound,
            want.provenance.nodes_pruned_bound);
  EXPECT_EQ(got.provenance.nodes_pruned_infeasible,
            want.provenance.nodes_pruned_infeasible);
  EXPECT_EQ(got.provenance.layouts_pruned, want.provenance.layouts_pruned);
}

TEST(DssModelFloorsTest, ConcurrentSolvesShareOneBuildOfTheModelFloors) {
  // Several threads build scorers on one fresh model at once; the first
  // demand builds the model's floors, and every solve reads that one
  // build: its storage, and the values a fresh model builds, with the
  // node counters of a one-thread solve on a fresh model.
  const ExactTpchInstance inst;
  const SolveResult want = inst.SolveExact(*inst.workload);
  const std::unique_ptr<DssWorkloadModel> shared = inst.MakeWorkload();
  constexpr int kThreads = 4;
  std::vector<SolveResult> got(kThreads);
  std::vector<const double*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      got[static_cast<size_t>(i)] = inst.SolveExact(*shared);
      seen[static_cast<size_t>(i)] = shared->UnscaledFloors().cond.data();
    });
  }
  for (std::thread& t : threads) t.join();
  const DssWorkloadModel::Floors fresh = inst.MakeWorkload()->BuildFloors({});
  EXPECT_EQ(shared->UnscaledFloors().by_template, fresh.by_template);
  EXPECT_EQ(shared->UnscaledFloors().cond, fresh.cond);
  for (int i = 0; i < kThreads; ++i) {
    SCOPED_TRACE("thread " + std::to_string(i));
    EXPECT_EQ(seen[static_cast<size_t>(i)],
              shared->UnscaledFloors().cond.data());
    ExpectSameExactSolve(got[static_cast<size_t>(i)], want);
  }
}

TEST(DssModelFloorsTest, HintedSolveLeavesTheModelFloorsUnscaled) {
  // A hinted solve builds its own scaled floors; an unscaled solve after
  // it on the same model must match one on a fresh model.
  const ExactTpchInstance inst;
  std::vector<double> hint(static_cast<size_t>(inst.schema.NumObjects()));
  for (size_t o = 0; o < hint.size(); ++o) {
    hint[o] = o % 4 == 0 ? 0.0 : 0.5 + 0.5 * static_cast<double>(o % 3);
  }
  const std::unique_ptr<DssWorkloadModel> used = inst.MakeWorkload();
  const SolveResult hinted = inst.SolveExact(*used, hint);
  ASSERT_TRUE(hinted.status.ok()) << hinted.status.ToString();
  ExpectSameExactSolve(inst.SolveExact(*used),
                       inst.SolveExact(*inst.MakeWorkload()));
}


class OltpFastEvalTest : public ::testing::Test {
 protected:
  OltpFastEvalTest()
      : schema_(MakeTpccSchema(300)),
        box_(MakeBox2()),
        workload_(MakeTpccWorkload(&schema_, &box_, TpccConfig{})),
        profiler_(&schema_, &box_),
        profiles_(profiler_.ProfileWorkload(
            *workload_, [&](const std::vector<int>& p) {
              return workload_->Estimate(p);
            })) {
    problem_.schema = &schema_;
    problem_.box = &box_;
    problem_.workload = workload_.get();
    problem_.relative_sla = 0.25;
    problem_.profiles = &profiles_;
  }

  Schema schema_;
  BoxConfig box_;
  std::unique_ptr<OltpWorkloadModel> workload_;
  Profiler profiler_;
  WorkloadProfiles profiles_;
  DotProblem problem_;
};

TEST_F(OltpFastEvalTest, RandomizedPlacementsMatchFullPathExactly) {
  CheckRandomizedEquivalence(problem_, /*seed=*/0xabcd, /*rounds=*/300);
}

TEST_F(OltpFastEvalTest, RandomizedPlacementsMatchWithIoScaleHint) {
  DotProblem p = problem_;
  std::vector<double> scale(static_cast<size_t>(schema_.NumObjects()), 1.0);
  for (size_t o = 0; o < scale.size(); ++o) {
    scale[o] = 0.75 + 0.5 * static_cast<double>(o % 3);
  }
  p.io_scale_hint = scale;
  CheckRandomizedEquivalence(p, /*seed=*/0xdcba, /*rounds=*/150);
}

TEST_F(OltpFastEvalTest, OptimizeMatchesSlowPathAtEveryThreadCount) {
  DotProblem slow = problem_;
  slow.options.use_fast_eval = false;
  slow.options.num_threads = 1;
  const DotResult full = DotOptimizer(slow).Optimize();
  ASSERT_TRUE(full.status.ok()) << full.status.ToString();
  for (int threads : ThreadCounts()) {
    DotProblem fast = problem_;
    fast.options.use_fast_eval = true;
    fast.options.num_threads = threads;
    const DotResult r = DotOptimizer(fast).Optimize();
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    ExpectResultIdentical(r, full, "Optimize fast vs full (OLTP)");
    // OLTP has no plan cache; the counters must stay silent.
    EXPECT_EQ(r.plan_cache_hits, 0);
    EXPECT_EQ(r.plan_cache_misses, 0);
  }
}

}  // namespace
}  // namespace dot
