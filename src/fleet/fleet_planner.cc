#include "fleet/fleet_planner.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "catalog/schema.h"
#include "common/check.h"
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
};

/// A fleet total in exact integer arithmetic (CountFleet).
__extension__ typedef __int128 Wide;

/// The quantities of a pool row, in CountFleet's order: TOC, cost, then
/// the space of each storage class.
constexpr size_t kToc = 0;
constexpr size_t kCost = 1;
constexpr size_t kSpace = 2;

/// A fleet selection as pool counts: count[CountFleet::Row(p, c)] tenants
/// of pool p sit on candidate c, and each pool's counts sum to its size.
/// `total` holds the selection's exact totals, one per quantity.
struct CountSelection {
  std::vector<int> count;
  std::vector<Wide> total;
};

/// The fleet's arithmetic over count selections. Once per plan, every pool
/// row's quantities are quantized to int64, rounded up, at one
/// power-of-two scale per quantity that puts its largest magnitude in
/// [2^61, 2^62). A selection's totals, Σ count · value in __int128, are
/// then exact: independent of grouping and tenant order, and free of drift.
/// A cap no selection can reach is inactive and never quantized; an active
/// cap is quantized down and shrunk by the worst relative rounding of the
/// tenant-order double sums the plan reports, so totals that pass
/// Feasible() report within the FleetConstraints.
class CountFleet {
 public:
  CountFleet(const SharedPools& fleet, const FleetConstraints& cons,
             int num_classes)
      : fleet_(fleet),
        width_(kSpace + static_cast<size_t>(num_classes)),
        exponent_(width_, 0),
        cap_(width_, 0),
        cap_norm_(width_, 0.0) {
    const size_t num_pools = fleet.pools.size();
    size_.assign(num_pools, 0);
    for (int p : fleet.tenant_pool) ++size_[static_cast<size_t>(p)];
    const size_t m = static_cast<size_t>(num_classes);
    auto value = [&](const TenantPool& pool, size_t c, size_t d) {
      return d == kToc    ? pool.toc[c]
             : d == kCost ? pool.cost[c]
                          : pool.space[c * m + d - kSpace];
    };
    // The pools' rows, the largest magnitude of each quantity, and its
    // reach: the largest total any selection can have.
    std::vector<double> largest(width_, 0.0);
    std::vector<double> reach(width_, 0.0);
    row_begin_.assign(1, 0);
    for (size_t p = 0; p < num_pools; ++p) {
      const TenantPool& pool = fleet.pools[p];
      row_begin_.push_back(row_begin_.back() + static_cast<size_t>(pool.size()));
      for (size_t d = 0; d < width_; ++d) {
        double pool_largest = 0.0;
        for (size_t c = 0; c < static_cast<size_t>(pool.size()); ++c) {
          pool_largest = std::max(pool_largest, value(pool, c, d));
        }
        largest[d] = std::max(largest[d], pool_largest);
        reach[d] += static_cast<double>(size_[p]) * pool_largest;
      }
    }
    for (size_t d = 0; d < width_; ++d) {
      if (largest[d] > 0.0) exponent_[d] = 61 - std::ilogb(largest[d]);
    }
    q_.resize(row_begin_.back() * width_);
    for (size_t p = 0; p < num_pools; ++p) {
      const TenantPool& pool = fleet.pools[p];
      for (size_t c = 0; c < static_cast<size_t>(pool.size()); ++c) {
        for (size_t d = 0; d < width_; ++d) {
          q_[Row(p, static_cast<int>(c)) * width_ + d] = static_cast<int64_t>(
              std::ceil(std::ldexp(value(pool, c, d), exponent_[d])));
        }
      }
    }

    // A tenant-order sum of N non-negative doubles is within a relative
    // (N-1)·ε/2, to first order, of its exact value (ε = DBL_EPSILON);
    // `drift` covers that with room for the cap's own rounding below.
    const double drift = 2.0 * static_cast<double>(fleet.tenant_pool.size()) *
                         std::numeric_limits<double>::epsilon();
    auto add_cap = [&](size_t d, double limit) {
      const double cap = limit * (1.0 + kFleetFeasTol);
      if (!(cap < reach[d] * (1.0 + drift))) return;  // unreachable
      active_.push_back(d);
      cap_[d] = static_cast<Wide>(
          std::floor(std::ldexp(cap / (1.0 + drift), exponent_[d])));
      cap_norm_[d] = std::max(cap, kEps);
    };
    if (cons.budget_cents_per_hour > 0.0) {
      add_cap(kCost, cons.budget_cents_per_hour);
    }
    for (size_t j = 0; j < cons.capacity_gb.size(); ++j) {
      add_cap(kSpace + j, cons.capacity_gb[j]);
    }
  }

  size_t width() const { return width_; }
  size_t num_pools() const { return size_.size(); }
  int pool_rows(size_t p) const { return fleet_.pools[p].size(); }
  double toc(size_t p, int c) const {
    return fleet_.pools[p].toc[static_cast<size_t>(c)];
  }
  size_t Row(size_t p, int c) const {
    return row_begin_[p] + static_cast<size_t>(c);
  }

  /// The totals of the selection that puts every tenant of pool p on
  /// candidate pool_arg[p], into `out` (width() entries).
  void Totals(const std::vector<int>& pool_arg, Wide* out) const {
    std::fill(out, out + width_, Wide{0});
    for (size_t p = 0; p < pool_arg.size(); ++p) {
      const int64_t* q = &q_[Row(p, pool_arg[p]) * width_];
      for (size_t d = 0; d < width_; ++d) {
        out[d] += static_cast<Wide>(size_[p]) * q[d];
      }
    }
  }

  /// That selection as counts: one non-zero entry per pool.
  CountSelection Select(const std::vector<int>& pool_arg) const {
    CountSelection s;
    s.count.assign(row_begin_.back(), 0);
    for (size_t p = 0; p < pool_arg.size(); ++p) {
      s.count[Row(p, pool_arg[p])] = size_[p];
    }
    s.total.resize(width_);
    Totals(pool_arg, s.total.data());
    return s;
  }

  /// `t` with one tenant of pool p moved from candidate `from` to `to`,
  /// into `out`.
  void Step(const Wide* t, size_t p, int from, int to, Wide* out) const {
    const int64_t* a = &q_[Row(p, from) * width_];
    const int64_t* c = &q_[Row(p, to) * width_];
    for (size_t d = 0; d < width_; ++d) out[d] = t[d] + (c[d] - a[d]);
  }

  /// Total `d`, rounded to double.
  double Value(const Wide* t, size_t d) const {
    return std::ldexp(static_cast<double>(t[d]), -exponent_[d]);
  }

  bool Feasible(const Wide* t) const {
    for (size_t d : active_) {
      if (t[d] > cap_[d]) return false;
    }
    return true;
  }

  /// Normalized total violation: 0 iff Feasible. The repair pass's
  /// potential function — every applied exchange strictly decreases it.
  double Violation(const Wide* t) const {
    double v = 0.0;
    for (size_t d : active_) {
      if (t[d] > cap_[d]) {
        v += std::ldexp(static_cast<double>(t[d] - cap_[d]), -exponent_[d]) /
             cap_norm_[d];
      }
    }
    return v;
  }

 private:
  const SharedPools& fleet_;
  size_t width_;
  std::vector<int> size_;          ///< pool -> tenants in it
  std::vector<size_t> row_begin_;  ///< pool -> its first row; + end
  std::vector<int64_t> q_;         ///< [row * width + quantity]
  std::vector<int> exponent_;      ///< quantity -> scale 2^exponent
  std::vector<size_t> active_;     ///< the constrained quantities
  std::vector<Wide> cap_;          ///< quantity -> quantized cap
  std::vector<double> cap_norm_;   ///< quantity -> violation denominator
};

/// A group move of the repair or improvement pass: tenants of `pool` from
/// candidate `from` to candidate `to`, ordered by `key` (smaller first),
/// ties by (pool, from, to).
struct GroupMove {
  double key;
  int pool;
  int from;
  int to;

  bool operator<(const GroupMove& o) const {
    return std::tie(key, pool, from, to) <
           std::tie(o.key, o.pool, o.from, o.to);
  }
};

/// One round of group moves: every occupied (pool, from) scored against
/// every other candidate at the round's starting totals, then applied in
/// (key, pool, from, to) order, each to as many of the tenants that
/// started the round on `from` as pass the per-tenant test one after
/// another. A tenant moves at most once per round, so k tenants of a pool
/// move as k one-tenant pools of the same problem would.
class MoveRound {
 public:
  explicit MoveRound(const CountFleet& f) : f_(f), next_(f.width()) {}

  /// `key_of(p, from, to, next, &key)` — `next` being the totals after one
  /// tenant moves — says whether the move is one this round, and with
  /// which key.
  template <typename KeyFn>
  void Collect(const CountSelection& s, KeyFn key_of) {
    moves_.clear();
    movable_ = s.count;
    for (size_t p = 0; p < f_.num_pools(); ++p) {
      for (int from = 0; from < f_.pool_rows(p); ++from) {
        if (s.count[f_.Row(p, from)] == 0) continue;
        for (int to = 0; to < f_.pool_rows(p); ++to) {
          if (to == from) continue;
          f_.Step(s.total.data(), p, from, to, next_.data());
          double key = 0.0;
          if (key_of(p, from, to, next_.data(), &key)) {
            moves_.push_back({key, static_cast<int>(p), from, to});
          }
        }
      }
    }
    std::sort(moves_.begin(), moves_.end());
  }

  /// Applies the collected moves; `accept(next)` is the per-tenant test.
  /// Returns whether any tenant moved.
  template <typename AcceptFn>
  bool Apply(CountSelection* s, AcceptFn accept, int* moves_applied) {
    bool moved = false;
    for (const GroupMove& mv : moves_) {
      const size_t p = static_cast<size_t>(mv.pool);
      for (int& left = movable_[f_.Row(p, mv.from)]; left > 0; --left) {
        f_.Step(s->total.data(), p, mv.from, mv.to, next_.data());
        if (!accept(next_.data())) break;
        --s->count[f_.Row(p, mv.from)];
        ++s->count[f_.Row(p, mv.to)];
        std::copy(next_.begin(), next_.end(), s->total.begin());
        ++*moves_applied;
        moved = true;
      }
    }
    return moved;
  }

 private:
  const CountFleet& f_;
  std::vector<Wide> next_;
  std::vector<GroupMove> moves_;
  std::vector<int> movable_;  ///< [CountFleet::Row(p, c)]
};

constexpr int kMaxMoveRounds = 64;

/// Deterministic greedy exchange: moves tenants onto candidates that
/// strictly reduce the violation, cheapest ΔTOC per unit of violation
/// removed first; a tenant passes while it lowers the violation by more
/// than kEps. Returns true when the selection is feasible.
bool ExchangeRepair(const CountFleet& f, CountSelection* s,
                    int* moves_applied) {
  MoveRound round(f);
  for (int r = 0; r < kMaxMoveRounds; ++r) {
    double viol = f.Violation(s->total.data());
    if (viol <= 0.0) return true;
    round.Collect(*s, [&](size_t p, int from, int to, const Wide* next,
                          double* key) {
      const double dv = f.Violation(next) - viol;
      if (dv >= -kEps) return false;
      *key = (f.toc(p, to) - f.toc(p, from)) / (-dv);
      return true;
    });
    auto lowers_violation = [&](const Wide* next) {
      const double after = f.Violation(next);
      if (after - viol >= -kEps) return false;
      viol = after;
      return true;
    };
    if (!round.Apply(s, lowers_violation, moves_applied)) return false;
  }
  return f.Violation(s->total.data()) <= 0.0;
}

/// Deterministic greedy improvement: moves that strictly lower a tenant's
/// TOC while the fleet stays feasible, best ΔTOC first. Monotone in Σ TOC,
/// so it terminates; it can only tighten the never-lose guarantee. It
/// stops at a round with no such move for any single tenant.
void ImprovementPass(const CountFleet& f, CountSelection* s,
                     int* moves_applied) {
  MoveRound round(f);
  auto feasible = [&](const Wide* next) { return f.Feasible(next); };
  for (int r = 0; r < kMaxMoveRounds; ++r) {
    round.Collect(*s, [&](size_t p, int from, int to, const Wide* next,
                          double* key) {
      *key = f.toc(p, to) - f.toc(p, from);
      return *key < 0.0 && f.Feasible(next);
    });
    if (!round.Apply(s, feasible, moves_applied)) return;
  }
}

/// Writes a count selection out tenant by tenant: within each pool, the
/// tenants in roster order take candidates in ascending candidate order.
/// The plan's totals are tenant-order sums of the emitted bills (the
/// FleetPlan accounting contract).
void Emit(const SharedPools& fleet, const CountFleet& f,
          const std::vector<int>& count, int num_classes, FleetPlan* plan) {
  const size_t m = static_cast<size_t>(num_classes);
  std::vector<int> cursor(fleet.pools.size(), -1);  // pool -> candidate
  std::vector<int> left(fleet.pools.size(), 0);     // tenants it still takes
  plan->tenants.resize(fleet.tenant_pool.size());
  plan->total_toc_cents_per_task = 0.0;
  plan->total_cost_cents_per_hour = 0.0;
  plan->used_gb.assign(m, 0.0);
  for (size_t i = 0; i < fleet.tenant_pool.size(); ++i) {
    const size_t p = fleet.pool_of(i);
    while (left[p] == 0) left[p] = count[f.Row(p, ++cursor[p])];
    --left[p];
    const TenantPool& pool = fleet.pools[p];
    const size_t c = static_cast<size_t>(cursor[p]);
    FleetTenantChoice& out = plan->tenants[i];
    out.placement = pool.placements[c];
    out.toc_cents_per_task = pool.toc[c];
    out.cost_cents_per_hour = pool.cost[c];
    out.pool_id = static_cast<int>(p);
    out.candidate = cursor[p];
    plan->total_toc_cents_per_task += pool.toc[c];
    plan->total_cost_cents_per_hour += pool.cost[c];
    for (size_t j = 0; j < m; ++j) plan->used_gb[j] += pool.space[c * m + j];
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
  const CountFleet counts(fleet, cons, m);

  // --- The zero-price selection: every tenant's solo optimum (pool[0]).
  // Its Σ TOC lower-bounds every selection, so if it is feasible it is THE
  // fleet optimum over the pools.
  const CountSelection solo =
      counts.Select(std::vector<int>(static_cast<size_t>(num_pools), 0));

  // --- The fleet's cost floor: every tenant on its pool's cheapest
  // candidate (summed in tenant-index order, like every reported total).
  // Below it no selection exists, so callers can sweep budgets from
  // min_cost to the solo cost.
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
  for (size_t i = 0; i < fleet.tenant_pool.size(); ++i) {
    const size_t p = fleet.pool_of(i);
    const size_t c = static_cast<size_t>(baseline[p]);
    plan.independent_toc_cents_per_task += fleet.pools[p].toc[c];
    plan.independent_cost_cents_per_hour += fleet.pools[p].cost[c];
  }
  const CountSelection base = counts.Select(baseline);
  const bool base_feasible =
      plan.independent_feasible && counts.Feasible(base.total.data());

  // --- Decide the fleet selection, on counts and exact totals.
  CountSelection choice;
  bool feasible = false;

  if (counts.Feasible(solo.total.data())) {
    // Unconstrained (or slack) fleet: the solo optima win outright, and
    // with no coupling this reproduces dot::Solve per tenant bit for bit.
    choice = solo;
    feasible = true;
  } else {
    // --- Lagrangian price decomposition. Prices are normalized so that
    // one unit of relative over-subscription moves the objective by about
    // one solo Σ TOC; the harmonic step keeps updates deterministic.
    const double solo_toc = counts.Value(solo.total.data(), kToc);
    double lambda = 0.0;
    std::vector<double> mu(static_cast<size_t>(m), 0.0);
    const double lambda_unit =
        solo_toc / std::max(counts.Value(solo.total.data(), kCost), kEps);
    std::vector<double> mu_unit(static_cast<size_t>(m), 0.0);
    for (int j = 0; j < m; ++j) {
      mu_unit[static_cast<size_t>(j)] =
          solo_toc /
          std::max(counts.Value(solo.total.data(),
                                kSpace + static_cast<size_t>(j)),
                   kEps);
    }
    // The loop's state is the per-pool argmin and its totals.
    std::vector<int> pool_arg(static_cast<size_t>(num_pools), 0);
    std::vector<Wide> t(counts.width());
    std::vector<int> best_feasible;  // per pool; empty = none yet
    Wide best_feasible_toc = 0;
    for (int r = 1; r <= config_.price_iterations; ++r) {
      // One argmin per pool (every tenant of a pool sees the same prices),
      // into distinct slots; small fan-outs run inline.
      threads.ParallelForChunked(0, num_pools, 256, [&](int64_t pid) {
        pool_arg[static_cast<size_t>(pid)] =
            PricedArgmin(fleet.pools[static_cast<size_t>(pid)],
                         budget_active, lambda, capacity_active, mu, m);
      });
      counts.Totals(pool_arg, t.data());
      if (counts.Feasible(t.data()) &&
          (best_feasible.empty() || t[kToc] < best_feasible_toc)) {
        best_feasible = pool_arg;
        best_feasible_toc = t[kToc];
      }
      const double step = 1.0 / r;
      if (budget_active) {
        const double g =
            (counts.Value(t.data(), kCost) - cons.budget_cents_per_hour) /
            std::max(cons.budget_cents_per_hour, kEps);
        lambda = std::max(0.0, lambda + step * lambda_unit * g);
      }
      for (int j = 0; capacity_active && j < m; ++j) {
        const double cap = cons.capacity_gb[static_cast<size_t>(j)];
        const double g =
            (counts.Value(t.data(), kSpace + static_cast<size_t>(j)) - cap) /
            std::max(cap, kEps);
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
    CountSelection repaired = counts.Select(pool_arg);
    if (ExchangeRepair(counts, &repaired, &plan.exchange_moves)) {
      choice = std::move(repaired);
      feasible = true;
    }
    if (!best_feasible.empty() &&
        (!feasible || best_feasible_toc < choice.total[kToc])) {
      choice = counts.Select(best_feasible);
      feasible = true;
    }
    if (base_feasible && (!feasible || base.total[kToc] < choice.total[kToc])) {
      choice = base;
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
  ImprovementPass(counts, &choice, &plan.improve_moves);

  // --- Emit once. Never-lose holds on the reported tenant-order sums: when
  // rounding puts them above a feasible baseline's, the baseline goes out.
  Emit(fleet, counts, choice.count, m, &plan);
  if (base_feasible && plan.total_toc_cents_per_task >
                           plan.independent_toc_cents_per_task) {
    choice = base;
    Emit(fleet, counts, choice.count, m, &plan);
  }
  plan.fell_back_to_baseline =
      plan.independent_feasible && choice.count == base.count;
  // The quantized caps leave room for the reported sums' rounding.
  DOT_CHECK(!budget_active || plan.total_cost_cents_per_hour <=
                                  cons.budget_cents_per_hour *
                                      (1.0 + kFleetFeasTol))
      << "fleet cost " << plan.total_cost_cents_per_hour;
  for (size_t j = 0; j < cons.capacity_gb.size(); ++j) {
    DOT_CHECK(plan.used_gb[j] <= cons.capacity_gb[j] * (1.0 + kFleetFeasTol))
        << "fleet class " << j << " at " << plan.used_gb[j] << " GB";
  }
  plan.plan_ms = NowMs() - start_ms;
  return plan;
}

}  // namespace dot
