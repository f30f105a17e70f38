#include "fleet/fleet_planner.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "catalog/schema.h"
#include "common/clock.h"
#include "common/thread_pool.h"
#include "dot/bnb_search.h"
#include "dot/candidate_evaluator.h"
#include "dot/optimizer.h"
#include "workload/workload.h"

namespace dot {

namespace {

/// Relative tolerance of the fleet-wide feasibility checks: fair shares
/// are computed as B·w_i with Σ w_i = 1, so re-summing the shares can
/// drift from B by ULPs; a selection must not flip infeasible over that.
constexpr double kFleetFeasTol = 1e-9;
constexpr double kEps = 1e-12;

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// One step of a 64-bit multiplicative hash: fold `v` into `h`. Cheap on
/// purpose (the roster pass hashes one identity per tenant); fold the high
/// half down before using the result as a bucket index.
uint64_t Mix(uint64_t h, uint64_t v) {
  return (h ^ v) * 0x9E3779B97F4A7C15ull;
}

/// The pool cache key: everything the pool's scores depend on. Same key =>
/// same pool, by the FleetConfig::share_pools contract. Doubles compare by
/// bit pattern; pointer-keyed inputs (targets_override, profiles) share
/// only on pointer identity — conservative, never wrong. The name and the
/// hint are views into the tenant's problem, so a key allocates nothing;
/// the roster outlives every key built from it.
struct PoolKey {
  uint64_t fingerprint;  ///< p.schema->Fingerprint()
  std::string_view workload_name;
  uint64_t relative_sla;
  bool discrete;
  uint64_t alpha;
  uint64_t tail_percentile;
  uint64_t tail_latency_cv;
  const double* hint;
  size_t hint_size;
  const PerfTargets* targets_override;
  /// Only when the pool build runs DOT's Procedure 1 (kSearch + kDot);
  /// null otherwise.
  const WorkloadProfiles* profiles;

  PoolKey(const DotProblem& p, uint64_t schema_fingerprint,
          bool key_profiles)
      : fingerprint(schema_fingerprint),
        workload_name(p.workload->name()),
        relative_sla(Bits(p.relative_sla)),
        discrete(p.cost_model.discrete),
        alpha(Bits(p.cost_model.alpha)),
        tail_percentile(Bits(p.tail_sla.percentile)),
        tail_latency_cv(Bits(p.tail_sla.latency_cv)),
        hint(p.io_scale_hint.data()),
        hint_size(p.io_scale_hint.size()),
        targets_override(p.targets_override),
        profiles(key_profiles ? p.profiles : nullptr) {}

  bool operator==(const PoolKey& o) const {
    return fingerprint == o.fingerprint &&
           workload_name == o.workload_name &&
           relative_sla == o.relative_sla && discrete == o.discrete &&
           alpha == o.alpha && tail_percentile == o.tail_percentile &&
           tail_latency_cv == o.tail_latency_cv &&
           hint_size == o.hint_size &&
           (hint_size == 0 ||
            std::memcmp(hint, o.hint, hint_size * sizeof(double)) == 0) &&
           targets_override == o.targets_override && profiles == o.profiles;
  }

  struct Hash {
    size_t operator()(const PoolKey& k) const {
      uint64_t h = Mix(k.fingerprint,
                       std::hash<std::string_view>()(k.workload_name));
      h = Mix(h, k.relative_sla);
      h = Mix(h, k.discrete ? 1 : 0);
      h = Mix(h, k.alpha);
      h = Mix(h, k.tail_percentile);
      h = Mix(h, k.tail_latency_cv);
      h = Mix(h, k.hint_size);
      for (size_t o = 0; o < k.hint_size; ++o) h = Mix(h, Bits(k.hint[o]));
      h = Mix(h, reinterpret_cast<uintptr_t>(k.targets_override));
      h = Mix(h, reinterpret_cast<uintptr_t>(k.profiles));
      return static_cast<size_t>(h ^ (h >> 32));
    }
  };
};

/// Whether two tenant problems share an identity: exactly the pointers and
/// bit patterns the roster checks, ValidateProblem and PoolKey read —
/// schema, box, workload, targets_override, profiles, ensemble, where the
/// io_scale_hint is stored, the relative and tail SLAs, and the cost model.
/// (ValidateProblem reads the ensemble objective only under an ensemble,
/// which the roster refuses first.) Problems with one identity get the same
/// verdict and the same pool key, so the roster pass checks and keys each
/// distinct identity once. A hint is identified by its storage, which also
/// fixes its length and entries: distinct live vectors never share
/// storage, so two copies of one hint are two identities, checked twice
/// and keyed to one pool (PoolKey compares entries).
const double* HintStorage(const DotProblem& p) {
  return p.io_scale_hint.empty() ? nullptr : p.io_scale_hint.data();
}

bool SameIdentity(const DotProblem& a, const DotProblem& b) {
  return a.schema == b.schema && a.box == b.box && a.workload == b.workload &&
         a.targets_override == b.targets_override &&
         a.profiles == b.profiles && a.ensemble == b.ensemble &&
         HintStorage(a) == HintStorage(b) &&
         Bits(a.relative_sla) == Bits(b.relative_sla) &&
         Bits(a.tail_sla.percentile) == Bits(b.tail_sla.percentile) &&
         Bits(a.tail_sla.latency_cv) == Bits(b.tail_sla.latency_cv) &&
         a.cost_model.discrete == b.cost_model.discrete &&
         Bits(a.cost_model.alpha) == Bits(b.cost_model.alpha);
}

/// Hashes the identity fields that tell a roster's problems apart in
/// practice; problems with one identity hash equal, and SameIdentity
/// settles the rest. Each field is mixed in on its own: a roster that
/// allocates every tenant's schema and workload side by side makes
/// schema ^ workload nearly constant.
uint64_t IdentityHash(const DotProblem& p) {
  uint64_t h = Mix(0, reinterpret_cast<uintptr_t>(p.schema));
  h = Mix(h, reinterpret_cast<uintptr_t>(p.workload));
  h = Mix(h, Bits(p.relative_sla));
  h = Mix(h, reinterpret_cast<uintptr_t>(HintStorage(p)));
  return h ^ (h >> 32);
}

/// The distinct tenant problems of a roster, by identity, in
/// first-occurrence order.
struct RosterProblems {
  std::vector<int> of_tenant;     ///< tenant -> problem id
  std::vector<int> first_tenant;  ///< problem id -> first tenant with it
};

/// The one roster pass, behind ValidateFleetRoster and FleetPlanner::Plan:
/// groups the tenants by problem identity and checks each distinct problem
/// once, on its first tenant. The first failing tenant in roster order is
/// the first tenant of the first failing identity, so the status names the
/// tenant a per-tenant walk would.
Status ScanRoster(const std::vector<FleetTenant>& tenants,
                  const BoxConfig* box, const FleetConfig& config,
                  RosterProblems* out) {
  if (tenants.empty()) return Status::InvalidArgument("fleet has no tenants");
  const bool runs_dot = config.pool_mode == FleetPoolMode::kSearch &&
                        config.search == EpochSearch::kDot;
  // Problem ids by identity hash: open addressing over a power-of-two slot
  // table of at least twice the roster's size (-1 = empty), probed
  // linearly, so it never fills and never grows. A tenant costs one hash
  // and, when its problem was seen before, about one identity comparison.
  size_t mask = 1;
  while (mask < 2 * tenants.size()) mask <<= 1;
  std::vector<int> slots(mask--, -1);
  std::vector<uint64_t> hashes;  // problem id -> its identity hash
  out->of_tenant.resize(tenants.size());
  out->first_tenant.clear();
  for (size_t i = 0; i < tenants.size(); ++i) {
    const FleetTenant& t = tenants[i];
    const uint64_t h = IdentityHash(t.problem);
    size_t s = h & mask;
    for (; slots[s] >= 0; s = (s + 1) & mask) {
      const size_t id = static_cast<size_t>(slots[s]);
      const size_t first = static_cast<size_t>(out->first_tenant[id]);
      if (hashes[id] == h && SameIdentity(t.problem, tenants[first].problem)) {
        break;
      }
    }
    if (slots[s] >= 0) {
      out->of_tenant[i] = slots[s];
      continue;
    }
    slots[s] = out->of_tenant[i] = static_cast<int>(hashes.size());
    hashes.push_back(h);
    out->first_tenant.push_back(static_cast<int>(i));
    if (t.problem.box != box) {
      return Status::InvalidArgument(
          "tenant " + t.name +
          " references a different box than the fleet problem");
    }
    if (t.problem.ensemble != nullptr) {
      return Status::InvalidArgument(
          "tenant " + t.name +
          " carries a scenario ensemble; fleet mode is point-forecast");
    }
    const Status st = ValidateProblem(t.problem);
    if (!st.ok()) {
      return Status::InvalidArgument("tenant " + t.name + ": " +
                                     st.message());
    }
    if (runs_dot && t.problem.profiles == nullptr) {
      return Status::InvalidArgument(
          "tenant " + t.name +
          " has no profiles; EpochSearch::kDot pools need them");
    }
  }
  return Status::OK();
}

/// One shared candidate pool: the tenant's feasible frontier, sorted under
/// the BetterCandidate order (toc, then lexicographically lowest
/// placement), so index 0 is the solo optimum and ties anywhere resolve
/// to the lowest index.
struct TenantPool {
  Status status = Status::OK();
  std::vector<std::vector<int>> placements;
  std::vector<double> toc;
  std::vector<double> cost;
  /// Flattened [candidate * num_classes + class] space, GB.
  std::vector<double> space;
  /// The build's counters: its solo search's, plus one layout evaluated
  /// per scored candidate.
  SearchStats stats;

  int size() const { return static_cast<int>(placements.size()); }
};

/// A pool build's feasible candidates as flat rows: TOC, cost, the
/// candidate's rank in lexicographic placement order, and (in a parallel
/// array) its per-class space. A placement vector is materialized only for
/// the rows that survive the dominance prune.
struct PoolRows {
  struct Row {
    double toc;
    double cost;
    long long rank;
  };
  const std::vector<double>& sizes_gb;  ///< the tenant schema's, by id
  size_t num_classes;
  std::vector<Row> rows;
  std::vector<double> space;  ///< [row * num_classes + class], GB

  /// Keeps `placement`, of lexicographic rank `rank`, as a row when its
  /// evaluation is feasible. Space sums in object-id order, the order
  /// Layout::SpaceByClass uses, so the sums are bit-identical to it.
  void Add(const CandidateEval& eval, const std::vector<int>& placement,
           long long rank) {
    if (!eval.feasible) return;
    rows.push_back({eval.toc, eval.cost_cents_per_hour, rank});
    const size_t at = space.size();
    space.resize(at + num_classes, 0.0);
    for (size_t o = 0; o < sizes_gb.size(); ++o) {
      space[at + static_cast<size_t>(placement[o])] += sizes_gb[o];
    }
  }
};

TenantPool BuildPool(const DotProblem& tenant_problem,
                     const SearchOptions& options, const FleetConfig& config) {
  TenantPool out;
  // One engine setup per fleet run; the pool build itself is serial (the
  // planner parallelizes across distinct pools, into distinct slots).
  DotProblem p = tenant_problem;
  p.options = options;
  p.options.num_threads = 1;
  const int n = p.schema->NumObjects();
  const int m = p.box->NumClasses();

  // One optimizer per pool: the solo search and the candidate scoring
  // below share its targets and its scorer. Every candidate is scored on
  // the TOC fast path, bit-identical to the full estimate.
  const DotOptimizer optimizer(p);
  PoolRows scored{p.schema->sizes_gb(), static_cast<size_t>(m), {}, {}};
  std::vector<std::vector<int>> candidates;  // kSearch, lexicographic
  if (config.pool_mode == FleetPoolMode::kEnumerate) {
    const Result<long long> space =
        GuardedLayoutSpaceSize(n, m, config.max_pool_layouts);
    if (!space.ok()) {
      out.status = space.status();
      return out;
    }
    // One odometer placement walks the M^N space in lexicographic order
    // (the last object rolls fastest), so a layout's scan index is its
    // rank.
    std::vector<int> placement(static_cast<size_t>(n), 0);
    for (long long rank = 0; rank < space.value(); ++rank) {
      scored.Add(optimizer.EvaluateQuick(placement), placement, rank);
      for (int o = n - 1; o >= 0; --o) {
        if (++placement[static_cast<size_t>(o)] < m) break;
        placement[static_cast<size_t>(o)] = 0;
      }
    }
    out.stats.layouts_evaluated = space.value();
  } else {
    // The ReprovisionPlanner seeding path (solo optimum), plus the M
    // uniform layouts as deterministic downgrade/upgrade anchors.
    out.stats = AppendSoloCandidate(optimizer, config.search, &candidates);
    for (int cls = 0; cls < m; ++cls) {
      std::vector<int> uniform(static_cast<size_t>(n), cls);
      if (std::find(candidates.begin(), candidates.end(), uniform) ==
          candidates.end()) {
        candidates.push_back(std::move(uniform));
      }
    }
    std::sort(candidates.begin(), candidates.end());
    for (size_t rank = 0; rank < candidates.size(); ++rank) {
      scored.Add(optimizer.EvaluateQuick(candidates[rank]), candidates[rank],
                 static_cast<long long>(rank));
    }
    out.stats.layouts_evaluated += static_cast<long long>(candidates.size());
  }
  // The placement of a kept row: the candidate itself, or the rank decoded
  // with the last object as the least significant digit.
  auto placement_of = [&](long long rank) {
    if (config.pool_mode == FleetPoolMode::kSearch) {
      return candidates[static_cast<size_t>(rank)];
    }
    std::vector<int> placement(static_cast<size_t>(n), 0);
    for (int o = n - 1; o >= 0; --o) {
      placement[static_cast<size_t>(o)] = static_cast<int>(rank % m);
      rank /= m;
    }
    return placement;
  };

  // The feasible rows in BetterCandidate order: rank order is
  // lexicographic placement order.
  std::vector<size_t> order(scored.rows.size());
  for (size_t r = 0; r < order.size(); ++r) order[r] = r;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const PoolRows::Row& ra = scored.rows[a];
    const PoolRows::Row& rb = scored.rows[b];
    if (ra.toc != rb.toc) return ra.toc < rb.toc;
    return ra.rank < rb.rank;
  });

  // Dominance prune over (toc, cost, per-class space): a candidate
  // survives only if no earlier (hence no-worse-TOC) candidate weakly
  // dominates it on cost and every class. Exact all-equal ties keep the
  // earlier — lexicographically lower — placement, which is the fleet's
  // determinism tie-break.
  const size_t mm = static_cast<size_t>(m);
  for (size_t r : order) {
    const PoolRows::Row& row = scored.rows[r];
    const double* used = &scored.space[r * mm];
    bool dominated = false;
    for (size_t k = 0; k < out.cost.size() && !dominated; ++k) {
      if (out.cost[k] > row.cost) continue;
      bool covers = true;
      for (size_t j = 0; j < mm; ++j) {
        if (out.space[k * mm + j] > used[j]) {
          covers = false;
          break;
        }
      }
      dominated = covers;
    }
    if (dominated) continue;
    out.placements.push_back(placement_of(row.rank));
    out.toc.push_back(row.toc);
    out.cost.push_back(row.cost);
    out.space.insert(out.space.end(), used, used + mm);
  }
  return out;
}

/// The built pools and each tenant's pool id. Every per-candidate quantity
/// depends on the pool alone (plus the shared prices, or the round-start
/// totals), so the planner computes it once per pool id and hands it to
/// the tenants through `tenant_pool`.
struct SharedPools {
  std::vector<TenantPool> pools;
  std::vector<int> tenant_pool;

  size_t pool_of(size_t tenant) const {
    return static_cast<size_t>(tenant_pool[tenant]);
  }
  const TenantPool& of(size_t tenant) const { return pools[pool_of(tenant)]; }
};

/// Fleet totals of one selection, accumulated in tenant-index order — the
/// ONE implementation of the FleetPlan accounting contract.
struct FleetTotals {
  double toc = 0.0;
  double cost = 0.0;
  std::vector<double> used;
};

FleetTotals ComputeTotals(const std::vector<int>& choice,
                          const SharedPools& fleet, int num_classes) {
  FleetTotals t;
  t.used.assign(static_cast<size_t>(num_classes), 0.0);
  for (size_t i = 0; i < choice.size(); ++i) {
    const TenantPool& pool = fleet.of(i);
    const size_t c = static_cast<size_t>(choice[i]);
    t.toc += pool.toc[c];
    t.cost += pool.cost[c];
    for (int j = 0; j < num_classes; ++j) {
      t.used[static_cast<size_t>(j)] +=
          pool.space[c * static_cast<size_t>(num_classes) +
                     static_cast<size_t>(j)];
    }
  }
  return t;
}

/// The tenant-level selection of a per-pool one: every tenant of pool p
/// takes candidate `pool_arg[p]`.
std::vector<int> TenantSelection(const SharedPools& fleet,
                                 const std::vector<int>& pool_arg) {
  std::vector<int> choice(fleet.tenant_pool.size());
  for (size_t i = 0; i < choice.size(); ++i) {
    choice[i] = pool_arg[fleet.pool_of(i)];
  }
  return choice;
}

/// The totals of every per-pool selection one Plan call has asked for.
/// A selection's totals are computed once, in tenant order, on its first
/// request; a later request returns them, bit-identical to a recount (the
/// same addends in the same order). The price loop revisits a handful of
/// selections over its iterations, so this turns one O(N·M) pass per
/// iteration into one per distinct selection. References stay valid for
/// the memo's lifetime.
class SelectionMemo {
 public:
  SelectionMemo(const SharedPools& fleet, int num_classes)
      : fleet_(fleet), num_classes_(num_classes) {}

  const FleetTotals& Totals(const std::vector<int>& pool_arg) {
    const auto slot = totals_.try_emplace(pool_arg);
    if (slot.second) {
      slot.first->second = ComputeTotals(TenantSelection(fleet_, pool_arg),
                                         fleet_, num_classes_);
    }
    return slot.first->second;
  }

 private:
  const SharedPools& fleet_;
  int num_classes_;
  std::map<std::vector<int>, FleetTotals> totals_;
};

bool FleetFeasible(const FleetTotals& t, const FleetConstraints& c) {
  if (c.budget_cents_per_hour > 0.0 &&
      t.cost > c.budget_cents_per_hour * (1.0 + kFleetFeasTol)) {
    return false;
  }
  for (size_t j = 0; j < c.capacity_gb.size(); ++j) {
    if (t.used[j] > c.capacity_gb[j] * (1.0 + kFleetFeasTol)) return false;
  }
  return true;
}

/// Normalized total violation: 0 iff FleetFeasible. The repair pass's
/// potential function — every applied exchange strictly decreases it.
double Violation(const FleetTotals& t, const FleetConstraints& c) {
  double v = 0.0;
  if (c.budget_cents_per_hour > 0.0) {
    const double cap = c.budget_cents_per_hour * (1.0 + kFleetFeasTol);
    if (t.cost > cap) v += (t.cost - cap) / std::max(cap, kEps);
  }
  for (size_t j = 0; j < c.capacity_gb.size(); ++j) {
    const double cap = c.capacity_gb[j] * (1.0 + kFleetFeasTol);
    if (t.used[j] > cap) v += (t.used[j] - cap) / std::max(cap, kEps);
  }
  return v;
}

/// `t` with one tenant moved from candidate `from` to `to`, written into
/// `out` (a reused buffer: scoring a move allocates nothing).
void ApplyMove(const FleetTotals& t, const TenantPool& pool, int from, int to,
               int num_classes, FleetTotals* out) {
  *out = t;
  const size_t f = static_cast<size_t>(from);
  const size_t c = static_cast<size_t>(to);
  out->toc += pool.toc[c] - pool.toc[f];
  out->cost += pool.cost[c] - pool.cost[f];
  for (int j = 0; j < num_classes; ++j) {
    out->used[static_cast<size_t>(j)] +=
        pool.space[c * static_cast<size_t>(num_classes) +
                   static_cast<size_t>(j)] -
        pool.space[f * static_cast<size_t>(num_classes) +
                   static_cast<size_t>(j)];
  }
}

/// One candidate move of the repair or improvement pass, ordered by `key`
/// (smaller first), ties by (tenant, candidate) index.
struct Move {
  double key = 0.0;
  int tenant = 0;
  int candidate = 0;
};

/// Builds a round's move list in (key, tenant, candidate) order. A move's
/// key depends only on the tenant's pool, its current candidate and the
/// round-start totals, so keys are computed once per (pool id, current
/// candidate) group — filled lazily through a dense per-pool slot table.
/// The distinct keys (at most one per group move) are then sorted and
/// ranked, and each tenant's copy of its group's moves is placed by a
/// stable counting sort over the ranks in tenant order: equal keys keep
/// tenant order and, within a tenant, candidate order. The list is
/// element for element the one a per-tenant scan and a comparison sort
/// build, at O(G·K log(G·K) + S) for G groups of K candidates and S moves
/// instead of O(S log S).
class MoveCollector {
 public:
  explicit MoveCollector(const SharedPools& fleet) : fleet_(fleet) {
    size_t slots = 0;
    for (const TenantPool& pool : fleet.pools) {
      first_slot_.push_back(slots);
      slots += static_cast<size_t>(pool.size());
    }
    group_of_slot_.resize(slots);
  }

  /// `key_of(pool, cur, c, &key)` says whether moving a tenant of `pool`
  /// from `cur` to `c` is a move this round, and with which key.
  template <typename KeyFn>
  const std::vector<Move>& Collect(const std::vector<int>& choice,
                                   KeyFn key_of) {
    std::fill(group_of_slot_.begin(), group_of_slot_.end(), -1);
    group_begin_.assign(1, 0);
    group_tenants_.clear();
    group_moves_.clear();
    tenant_group_.resize(choice.size());
    for (size_t i = 0; i < choice.size(); ++i) {
      const size_t pid = fleet_.pool_of(i);
      const int cur = choice[i];
      int& group = group_of_slot_[first_slot_[pid] + static_cast<size_t>(cur)];
      if (group < 0) {
        const TenantPool& pool = fleet_.pools[pid];
        for (int c = 0; c < pool.size(); ++c) {
          Move mv;
          mv.candidate = c;
          if (c != cur && key_of(pool, cur, c, &mv.key)) {
            group_moves_.push_back(mv);
          }
        }
        group = static_cast<int>(group_tenants_.size());
        group_begin_.push_back(group_moves_.size());
        group_tenants_.push_back(0);
      }
      tenant_group_[i] = group;
      ++group_tenants_[static_cast<size_t>(group)];
    }

    // Rank the distinct keys (== keys share a rank) and size each rank's
    // bucket: a group's move appears once per tenant of the group.
    keys_.clear();
    for (const Move& mv : group_moves_) keys_.push_back(mv.key);
    std::sort(keys_.begin(), keys_.end());
    keys_.erase(std::unique(keys_.begin(), keys_.end()), keys_.end());
    rank_.resize(group_moves_.size());
    bucket_.assign(keys_.size() + 1, 0);
    for (size_t g = 0; g < group_tenants_.size(); ++g) {
      for (size_t k = group_begin_[g]; k < group_begin_[g + 1]; ++k) {
        const double key = group_moves_[k].key;
        rank_[k] = static_cast<size_t>(
            std::lower_bound(keys_.begin(), keys_.end(), key) - keys_.begin());
        bucket_[rank_[k] + 1] += group_tenants_[g];
      }
    }
    for (size_t r = 1; r < bucket_.size(); ++r) bucket_[r] += bucket_[r - 1];

    moves_.resize(bucket_.back());
    for (size_t i = 0; i < choice.size(); ++i) {
      const size_t g = static_cast<size_t>(tenant_group_[i]);
      for (size_t k = group_begin_[g]; k < group_begin_[g + 1]; ++k) {
        Move& out = moves_[bucket_[rank_[k]]++];
        out = group_moves_[k];
        out.tenant = static_cast<int>(i);
      }
    }
    return moves_;
  }

 private:
  const SharedPools& fleet_;
  std::vector<size_t> first_slot_;     ///< pool id -> its first slot
  std::vector<int> group_of_slot_;     ///< slot -> group, -1 = unscored
  std::vector<size_t> group_begin_;    ///< group -> first move; + end
  std::vector<size_t> group_tenants_;  ///< group -> tenants in it
  std::vector<Move> group_moves_;      ///< every group's moves, in order
  std::vector<int> tenant_group_;      ///< tenant -> group
  std::vector<double> keys_;           ///< distinct keys, ascending
  std::vector<size_t> rank_;           ///< group move -> rank of its key
  std::vector<size_t> bucket_;         ///< rank -> next output slot
  std::vector<Move> moves_;
};

/// Deterministic greedy exchange: walk tenants onto candidates that
/// strictly reduce the violation, cheapest ΔTOC per unit of violation
/// removed first, ties by (tenant, candidate) index. Batch rounds — all
/// improving moves are collected and ordered once (MoveCollector), then
/// re-checked and applied sequentially — keep a round near-linear in the
/// collected moves instead of re-sorting after every apply. Returns true
/// when the selection is feasible.
bool ExchangeRepair(const SharedPools& fleet,
                    const FleetConstraints& constraints, int num_classes,
                    std::vector<int>* choice, FleetTotals* totals,
                    int* moves_applied) {
  constexpr int kMaxRounds = 64;
  MoveCollector collector(fleet);
  FleetTotals next;
  for (int round = 0; round < kMaxRounds; ++round) {
    double viol = Violation(*totals, constraints);
    if (viol <= 0.0) return true;
    const double round_viol = viol;
    const std::vector<Move>& moves = collector.Collect(
        *choice, [&](const TenantPool& pool, int cur, int c, double* key) {
          ApplyMove(*totals, pool, cur, c, num_classes, &next);
          const double dv = Violation(next, constraints) - round_viol;
          if (dv >= -kEps) return false;
          *key = (pool.toc[static_cast<size_t>(c)] -
                  pool.toc[static_cast<size_t>(cur)]) /
                 (-dv);
          return true;
        });
    if (moves.empty()) return false;
    bool applied_any = false;
    for (const Move& mv : moves) {
      const size_t i = static_cast<size_t>(mv.tenant);
      const int cur = (*choice)[i];
      if (cur == mv.candidate) continue;
      ApplyMove(*totals, fleet.of(i), cur, mv.candidate, num_classes, &next);
      const double dv = Violation(next, constraints) - viol;
      if (dv >= -kEps) continue;  // stale after earlier applies
      (*choice)[i] = mv.candidate;
      *totals = next;
      viol += dv;
      ++*moves_applied;
      applied_any = true;
      if (viol <= 0.0) break;
    }
    // Kill incremental drift before the feasibility verdict: totals are
    // re-accumulated in the contract order.
    *totals = ComputeTotals(*choice, fleet, num_classes);
    if (Violation(*totals, constraints) <= 0.0) return true;
    if (!applied_any) return false;
  }
  return false;
}

/// Deterministic greedy improvement: moves that strictly lower a tenant's
/// TOC while the fleet stays feasible, best ΔTOC first, ties by (tenant,
/// candidate). Monotone in Σ TOC, so it terminates; it can only tighten
/// the never-lose guarantee.
void ImprovementPass(const SharedPools& fleet,
                     const FleetConstraints& constraints, int num_classes,
                     std::vector<int>* choice, FleetTotals* totals,
                     int* moves_applied) {
  constexpr int kMaxRounds = 64;
  MoveCollector collector(fleet);
  FleetTotals next;
  for (int round = 0; round < kMaxRounds; ++round) {
    const std::vector<Move>& moves = collector.Collect(
        *choice, [&](const TenantPool& pool, int cur, int c, double* key) {
          const double dt = pool.toc[static_cast<size_t>(c)] -
                            pool.toc[static_cast<size_t>(cur)];
          if (dt >= 0.0) return false;
          ApplyMove(*totals, pool, cur, c, num_classes, &next);
          if (!FleetFeasible(next, constraints)) return false;
          *key = dt;
          return true;
        });
    if (moves.empty()) return;
    bool applied_any = false;
    for (const Move& mv : moves) {
      const size_t i = static_cast<size_t>(mv.tenant);
      const TenantPool& pool = fleet.of(i);
      const int cur = (*choice)[i];
      if (cur == mv.candidate) continue;
      const double dt = pool.toc[static_cast<size_t>(mv.candidate)] -
                        pool.toc[static_cast<size_t>(cur)];
      if (dt >= 0.0) continue;
      ApplyMove(*totals, pool, cur, mv.candidate, num_classes, &next);
      if (!FleetFeasible(next, constraints)) continue;
      (*choice)[i] = mv.candidate;
      *totals = next;
      ++*moves_applied;
      applied_any = true;
    }
    *totals = ComputeTotals(*choice, fleet, num_classes);
    if (!applied_any) return;
  }
}

/// argmin over the pool of toc + λ·cost + Σ_j μ_j·space_j; strict compare,
/// so ties keep the lower index.
int PricedArgmin(const TenantPool& pool, bool budget_active, double lambda,
                 bool capacity_active, const std::vector<double>& mu,
                 int num_classes) {
  const size_t m = static_cast<size_t>(num_classes);
  int arg = 0;
  double best = std::numeric_limits<double>::infinity();
  for (int c = 0; c < pool.size(); ++c) {
    const size_t row = static_cast<size_t>(c);
    double value = pool.toc[row];
    if (budget_active) value += lambda * pool.cost[row];
    for (size_t j = 0; capacity_active && j < m; ++j) {
      value += mu[j] * pool.space[row * m + j];
    }
    if (value < best) {
      best = value;
      arg = c;
    }
  }
  return arg;
}

/// The independent baseline's pick from one pool under a fair share
/// `weight` of the fleet constraints: the best (first, pools being
/// toc-sorted) candidate within the share, or -1 when none fits.
int FairShareFit(const TenantPool& pool, const FleetConstraints& cons,
                 double weight, int num_classes) {
  const double budget_share =
      cons.budget_cents_per_hour > 0.0
          ? cons.budget_cents_per_hour * weight * (1.0 + kFleetFeasTol)
          : std::numeric_limits<double>::infinity();
  const size_t m = static_cast<size_t>(num_classes);
  for (int c = 0; c < pool.size(); ++c) {
    const size_t row = static_cast<size_t>(c);
    if (pool.cost[row] > budget_share) continue;
    bool fits = true;
    for (size_t j = 0; j < cons.capacity_gb.size(); ++j) {
      const double cap_share =
          cons.capacity_gb[j] * weight * (1.0 + kFleetFeasTol);
      if (pool.space[row * m + j] > cap_share) {
        fits = false;
        break;
      }
    }
    if (fits) return c;
  }
  return -1;
}

}  // namespace

Status ValidateFleetConfig(const FleetConfig& config, const BoxConfig& box) {
  if (config.price_iterations < 1) {
    return Status::InvalidArgument(
        "FleetConfig::price_iterations must be >= 1");
  }
  if (config.max_pool_layouts < 1) {
    return Status::InvalidArgument(
        "FleetConfig::max_pool_layouts must be >= 1");
  }
  const FleetConstraints& cons = config.constraints;
  if (std::isnan(cons.budget_cents_per_hour)) {
    return Status::InvalidArgument(
        "FleetConstraints::budget_cents_per_hour is NaN");
  }
  if (!cons.capacity_gb.empty() &&
      static_cast<int>(cons.capacity_gb.size()) != box.NumClasses()) {
    return Status::InvalidArgument(
        "FleetConstraints::capacity_gb must be empty or have one entry "
        "per storage class");
  }
  for (double cap : cons.capacity_gb) {
    if (std::isnan(cap) || cap < 0.0) {
      return Status::InvalidArgument(
          "FleetConstraints::capacity_gb entries must be non-negative "
          "numbers");
    }
  }
  return Status::OK();
}

Status ValidateFleetRoster(const std::vector<FleetTenant>& tenants,
                           const BoxConfig* box, const FleetConfig& config) {
  RosterProblems problems;
  return ScanRoster(tenants, box, config, &problems);
}

FleetPlanner::FleetPlanner(const DotProblem& problem, FleetConfig config)
    : box_(problem.box),
      ensemble_(problem.ensemble),
      options_(problem.options),
      config_(std::move(config)) {}

FleetPlan FleetPlanner::Plan(const std::vector<FleetTenant>& tenants) const {
  const double start_ms = NowMs();
  FleetPlan plan;
  if (box_ == nullptr) {
    plan.status = Status::InvalidArgument("FleetPlanner has no box");
    return plan;
  }
  if (ensemble_ != nullptr) {
    plan.status = Status::InvalidArgument(
        "ensemble mode is single-shot; fleet tenants are point forecasts");
    return plan;
  }
  const int m = box_->NumClasses();
  plan.used_gb.assign(static_cast<size_t>(m), 0.0);
  plan.capacity_price.assign(static_cast<size_t>(m), 0.0);
  plan.status = ValidateFleetConfig(config_, *box_);
  RosterProblems problems;
  if (plan.status.ok()) {
    plan.status = ScanRoster(tenants, box_, config_, &problems);
  }
  if (!plan.status.ok()) return plan;
  const int num_tenants = static_cast<int>(tenants.size());

  // --- Pool assignment, once per distinct tenant problem: first-occurrence
  // order over cache keys, so pool ids — and everything downstream — are
  // independent of threading. Problems come in first-tenant order, so a
  // key's first problem holds its first tenant. Each distinct schema is
  // fingerprinted once.
  SharedPools fleet;
  std::vector<int> pool_reference;  // pool id -> first tenant index
  if (config_.share_pools) {
    std::unordered_map<PoolKey, int, PoolKey::Hash> key_to_pool;
    std::unordered_map<const Schema*, uint64_t> fingerprints;
    fingerprints.reserve(problems.first_tenant.size());
    const bool key_profiles = config_.pool_mode == FleetPoolMode::kSearch &&
                              config_.search == EpochSearch::kDot;
    std::vector<int> problem_pool;
    problem_pool.reserve(problems.first_tenant.size());
    for (int first : problems.first_tenant) {
      const DotProblem& p = tenants[static_cast<size_t>(first)].problem;
      const auto fp = fingerprints.try_emplace(p.schema, 0);
      if (fp.second) fp.first->second = p.schema->Fingerprint();
      const int next_id = static_cast<int>(pool_reference.size());
      const auto slot = key_to_pool.try_emplace(
          PoolKey(p, fp.first->second, key_profiles), next_id);
      if (slot.second) pool_reference.push_back(first);
      problem_pool.push_back(slot.first->second);
    }
    fleet.tenant_pool.resize(static_cast<size_t>(num_tenants));
    for (size_t i = 0; i < fleet.tenant_pool.size(); ++i) {
      fleet.tenant_pool[i] =
          problem_pool[static_cast<size_t>(problems.of_tenant[i])];
    }
  } else {
    for (int i = 0; i < num_tenants; ++i) {
      fleet.tenant_pool.push_back(i);
      pool_reference.push_back(i);
    }
  }
  const int num_pools = static_cast<int>(pool_reference.size());
  plan.pool_builds = num_pools;
  plan.pool_cache_hits = num_tenants - num_pools;

  // --- Build the distinct pools, fanned out into distinct slots.
  fleet.pools.resize(static_cast<size_t>(num_pools));
  ThreadPool threads(options_.num_threads);
  threads.ParallelFor(0, num_pools, [&](int64_t pid) {
    fleet.pools[static_cast<size_t>(pid)] = BuildPool(
        tenants[static_cast<size_t>(
                    pool_reference[static_cast<size_t>(pid)])]
            .problem,
        options_, config_);
  });
  for (int pid = 0; pid < num_pools; ++pid) {
    const TenantPool& pool = fleet.pools[static_cast<size_t>(pid)];
    if (!pool.status.ok()) {
      plan.status = pool.status;
      return plan;
    }
    if (pool.size() == 0) {
      plan.status = Status::Infeasible(
          "tenant " +
          tenants[static_cast<size_t>(
                      pool_reference[static_cast<size_t>(pid)])]
              .name +
          " has no feasible layout for its own capacity and SLA");
      return plan;
    }
    plan.Add(pool.stats);
  }

  const FleetConstraints& cons = config_.constraints;
  const bool budget_active = cons.budget_cents_per_hour > 0.0;
  const bool capacity_active = !cons.capacity_gb.empty();

  // --- The zero-price selection: every tenant's solo optimum (pool[0]).
  // Its Σ TOC lower-bounds every selection, so if it is feasible it is THE
  // fleet optimum over the pools. Every selection below — solo, baseline,
  // each price iterate — gives all tenants of a pool one candidate, so its
  // totals come from the memo.
  SelectionMemo memo(fleet, m);
  const std::vector<int> solo(static_cast<size_t>(num_pools), 0);
  const FleetTotals& solo_totals = memo.Totals(solo);

  // --- The fleet's cost floor: every tenant on its pool's cheapest
  // candidate (summed in tenant-index order, like every total). Below it
  // no selection exists, so callers can sweep budgets from min_cost to the
  // solo cost.
  std::vector<double> pool_cheapest(static_cast<size_t>(num_pools), 0.0);
  for (int pid = 0; pid < num_pools; ++pid) {
    const TenantPool& pool = fleet.pools[static_cast<size_t>(pid)];
    pool_cheapest[static_cast<size_t>(pid)] =
        *std::min_element(pool.cost.begin(), pool.cost.end());
  }
  for (size_t i = 0; i < fleet.tenant_pool.size(); ++i) {
    plan.min_cost_cents_per_hour += pool_cheapest[fleet.pool_of(i)];
  }

  // --- Independent fair-share baseline: tenant i provisions alone on a
  // share of the budget and capacity proportional to its minimum spend
  // (its cheapest candidate's cost) — the share a per-tenant operator
  // would have to sell it. Minimum-spend weights make the baseline
  // feasible whenever any selection is (share_i >= cheapest_i once the
  // budget covers Σ cheapest), so never-lose is a live comparison across
  // the whole feasible budget range, not a vacuous one. The weight, and so
  // the pick, is the same for every tenant of a pool.
  const double total_cheapest = plan.min_cost_cents_per_hour;
  std::vector<int> baseline(static_cast<size_t>(num_pools), -1);
  plan.independent_feasible = true;
  for (int pid = 0; pid < num_pools; ++pid) {
    const TenantPool& pool = fleet.pools[static_cast<size_t>(pid)];
    const double w =
        total_cheapest > 0.0
            ? pool_cheapest[static_cast<size_t>(pid)] / total_cheapest
            : 1.0 / num_tenants;
    int pick = FairShareFit(pool, cons, w, m);
    if (pick < 0) {
      // No candidate fits this pool's share: the baseline itself is
      // infeasible. Report its totals over the cheapest candidate
      // (deterministic: lowest cost, ties by toc order = index).
      plan.independent_feasible = false;
      pick = static_cast<int>(
          std::min_element(pool.cost.begin(), pool.cost.end()) -
          pool.cost.begin());
    }
    baseline[static_cast<size_t>(pid)] = pick;
  }
  const FleetTotals& baseline_totals = memo.Totals(baseline);
  plan.independent_toc_cents_per_task = baseline_totals.toc;
  plan.independent_cost_cents_per_hour = baseline_totals.cost;

  // --- Decide the fleet selection.
  std::vector<int> choice;
  FleetTotals totals;
  bool feasible = false;

  if (FleetFeasible(solo_totals, cons)) {
    // Unconstrained (or slack) fleet: the solo optima win outright, and
    // with no coupling this reproduces dot::Solve per tenant bit for bit.
    choice = TenantSelection(fleet, solo);
    totals = solo_totals;
    feasible = true;
  } else {
    // --- Lagrangian price decomposition. Prices are normalized so that
    // one unit of relative over-subscription moves the objective by about
    // one solo Σ TOC; the harmonic step keeps updates deterministic.
    double lambda = 0.0;
    std::vector<double> mu(static_cast<size_t>(m), 0.0);
    const double lambda_unit =
        solo_totals.toc / std::max(solo_totals.cost, kEps);
    std::vector<double> mu_unit(static_cast<size_t>(m), 0.0);
    for (int j = 0; j < m; ++j) {
      mu_unit[static_cast<size_t>(j)] =
          solo_totals.toc /
          std::max(solo_totals.used[static_cast<size_t>(j)], kEps);
    }
    // The loop's state is the per-pool argmin; no tenant-level selection
    // is built until one leaves the loop.
    std::vector<int> pool_arg(static_cast<size_t>(num_pools), 0);
    std::vector<int> best_feasible;  // per pool; empty = none yet
    double best_feasible_toc = 0.0;
    for (int r = 1; r <= config_.price_iterations; ++r) {
      // One argmin per pool (every tenant of a pool sees the same prices),
      // into distinct slots; small fan-outs run inline.
      threads.ParallelForChunked(0, num_pools, 256, [&](int64_t pid) {
        pool_arg[static_cast<size_t>(pid)] =
            PricedArgmin(fleet.pools[static_cast<size_t>(pid)],
                         budget_active, lambda, capacity_active, mu, m);
      });
      const FleetTotals& t = memo.Totals(pool_arg);
      if (FleetFeasible(t, cons) &&
          (best_feasible.empty() || t.toc < best_feasible_toc)) {
        best_feasible = pool_arg;
        best_feasible_toc = t.toc;
      }
      const double step = 1.0 / r;
      if (budget_active) {
        const double g = (t.cost - cons.budget_cents_per_hour) /
                         std::max(cons.budget_cents_per_hour, kEps);
        lambda = std::max(0.0, lambda + step * lambda_unit * g);
      }
      for (int j = 0; capacity_active && j < m; ++j) {
        const double cap = cons.capacity_gb[static_cast<size_t>(j)];
        const double g =
            (t.used[static_cast<size_t>(j)] - cap) / std::max(cap, kEps);
        mu[static_cast<size_t>(j)] = std::max(
            0.0, mu[static_cast<size_t>(j)] +
                     step * mu_unit[static_cast<size_t>(j)] * g);
      }
      plan.price_iterations_run = r;
    }
    plan.budget_price = lambda;
    plan.capacity_price = mu;

    // --- Repair the final relaxation selection, then pick the best of
    // {repaired, best price-feasible, independent baseline} — fixed
    // precedence on exact ties, so the choice is deterministic and the
    // never-lose guarantee is structural.
    std::vector<int> repaired = TenantSelection(fleet, pool_arg);
    FleetTotals repaired_totals = memo.Totals(pool_arg);
    const bool repaired_ok =
        ExchangeRepair(fleet, cons, m, &repaired, &repaired_totals,
                       &plan.exchange_moves);
    if (repaired_ok) {
      choice = repaired;
      totals = repaired_totals;
      feasible = true;
    }
    if (!best_feasible.empty()) {
      const FleetTotals& t = memo.Totals(best_feasible);
      if (!feasible || t.toc < totals.toc) {
        choice = TenantSelection(fleet, best_feasible);
        totals = t;
        feasible = true;
      }
    }
    if (plan.independent_feasible &&
        FleetFeasible(baseline_totals, cons) &&
        (!feasible || baseline_totals.toc < totals.toc)) {
      choice = TenantSelection(fleet, baseline);
      totals = baseline_totals;
      feasible = true;
    }
  }

  if (!feasible) {
    plan.status = Status::Infeasible(
        "no candidate selection satisfies the fleet budget and capacity");
    plan.plan_ms = NowMs() - start_ms;
    return plan;
  }

  // --- Reclaim slack: greedy TOC improvement, feasibility-preserving.
  ImprovementPass(fleet, cons, m, &choice, &totals, &plan.improve_moves);

  plan.fell_back_to_baseline = plan.independent_feasible &&
                               choice == TenantSelection(fleet, baseline);
  plan.tenants.resize(static_cast<size_t>(num_tenants));
  for (int i = 0; i < num_tenants; ++i) {
    const TenantPool& pool = fleet.of(static_cast<size_t>(i));
    const size_t c = static_cast<size_t>(choice[static_cast<size_t>(i)]);
    FleetTenantChoice& out = plan.tenants[static_cast<size_t>(i)];
    out.placement = pool.placements[c];
    out.toc_cents_per_task = pool.toc[c];
    out.cost_cents_per_hour = pool.cost[c];
    out.pool_id = fleet.tenant_pool[static_cast<size_t>(i)];
    out.candidate = static_cast<int>(c);
  }
  plan.total_toc_cents_per_task = totals.toc;
  plan.total_cost_cents_per_hour = totals.cost;
  plan.used_gb = totals.used;
  plan.plan_ms = NowMs() - start_ms;
  return plan;
}

}  // namespace dot
