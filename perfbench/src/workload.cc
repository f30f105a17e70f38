#include "workload.h"

#include <utility>

namespace perfbench {

uint64_t SeedRng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double SeedRng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

std::vector<int> SeedRng::Permutation(int n) {
  std::vector<int> p(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) p[static_cast<size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    std::swap(p[static_cast<size_t>(i)],
              p[static_cast<size_t>(Next() % static_cast<uint64_t>(i + 1))]);
  }
  return p;
}

std::vector<double> SeedRng::Stratified(int k, double lo, double hi) {
  std::vector<double> strata(static_cast<size_t>(k));
  for (int j = 0; j < k; ++j) {
    strata[static_cast<size_t>(j)] =
        lo + (hi - lo) * (j + Uniform()) / static_cast<double>(k);
  }
  std::vector<double> out(static_cast<size_t>(k));
  const std::vector<int> order = Permutation(k);
  for (int j = 0; j < k; ++j) {
    out[static_cast<size_t>(j)] = strata[static_cast<size_t>(order[j])];
  }
  return out;
}

const std::vector<LayerMetricDef> kLayerMetrics = {
    {"dot.solve_ms", "ms"},
    {"dot.layouts_evaluated", "count"},
    {"dot.nodes_expanded", "count"},
    {"dot.nodes_pruned_bound", "count"},
    {"dot.nodes_pruned_infeasible", "count"},
    {"dot.nodes_per_s", "1/s"},
    {"dot.plan_cache_hit_ratio", "fraction"},
    {"dot.arena_bytes_peak", "bytes"},
    {"dot.pipeline_rounds", "count"},
    {"workload.scorer_build_us", "us"},
    {"workload.score_ns", "ns"},
    {"workload.bound_probe_ns", "ns"},
    {"workload.estimate_us", "us"},
    {"workload.profile_ms", "ms"},
    {"query.plan_query_us", "us"},
    {"common.kernel_plane_gather_sum_ns", "ns"},
    {"common.kernel_level", "level"},
    {"storage.layout_cost_ns", "ns"},
    {"storage.migration_estimate_us", "us"},
    {"catalog.fingerprint_us", "us"},
    {"exec.executor_run_us", "us"},
    {"exec.trace_record_ms", "ms"},
    {"exec.replay_ms", "ms"},
    {"advisor.quiet_window_us", "us"},
    {"advisor.replan_window_ms", "ms"},
    {"advisor.replans_per_day", "count"},
    {"advisor.migrations_per_day", "count"},
    {"advisor.layouts_per_replan", "count"},
    {"fleet.plan_ms", "ms"},
    {"fleet.price_iterations", "count"},
    {"fleet.exchange_moves", "count"},
    {"fleet.improve_moves", "count"},
    {"fleet.pool_builds", "count"},
    {"fleet.pool_cache_hits", "count"},
    {"fleet.layouts_evaluated", "count"},
};

}  // namespace perfbench
