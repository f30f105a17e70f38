#include "workload/dss_workload.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <string>

#include "common/check.h"
#include "common/simd_dispatch.h"
#include "common/units.h"

namespace dot {

namespace {

/// Footprints above this many placements get no cache: M^|footprint| grows
/// fast, and 8192 doubles (64 KiB) per template is where the dense array
/// stops paying for itself. Their probes run the compiled program.
constexpr std::int64_t kDenseCacheMaxEntries = 8192;

/// Empty-slot sentinel for dense cache entries: an all-ones bit pattern
/// (a quiet NaN with a payload a compiled run can never produce — plan
/// times are finite).
constexpr std::uint64_t kEmptyCacheSlot = ~std::uint64_t{0};

/// The DSS fast path. Per template it runs the model's compiled program,
/// behind a dense cache keyed by the placement restricted to the
/// template's footprint; scoring a candidate is T probes plus a fixed-order
/// sum over the run sequence. Cache values are deterministic functions of
/// their key, so concurrent fill-in (and any thread interleaving) cannot
/// change a score.
class DssFastScorer : public FastScorer {
 public:
  DssFastScorer(const DssWorkloadModel* model, const BoxConfig* box,
                std::vector<double> io_scale,
                const std::vector<double>& query_caps_ms,
                double sla_tolerance)
      : model_(model), box_(box), io_scale_(std::move(io_scale)) {
    const auto& templates = model_->templates();
    const auto& sequence = model_->sequence();
    DOT_CHECK(query_caps_ms.size() == sequence.size())
        << "caps/sequence arity mismatch";

    // Per-template response-time threshold: the tightest cap over the
    // template's sequence entries, tolerance-adjusted exactly the way
    // MeetsTargets adjusts each entry's cap. Comparing one template time
    // against the min cap is equivalent to comparing every entry (entries
    // of the same template share one time), so verdicts match the full
    // path's entry-by-entry check.
    thresholds_.assign(templates.size(),
                       std::numeric_limits<double>::infinity());
    for (size_t i = 0; i < sequence.size(); ++i) {
      double& thr = thresholds_[static_cast<size_t>(sequence[i])];
      thr = std::min(thr, query_caps_ms[i]);
    }
    for (double& thr : thresholds_) thr = thr * (1 + sla_tolerance);

    // Templates the sequence never runs are never planned (the full path
    // skips them too): empty footprint, no cache, time pinned to 0.
    used_.assign(templates.size(), false);
    seq_count_.assign(templates.size(), 0);
    for (int idx : sequence) {
      used_[static_cast<size_t>(idx)] = true;
      seq_count_[static_cast<size_t>(idx)] += 1;
    }

    const int num_objects = model_->schema().NumObjects();
    num_classes_ = box_->NumClasses();
    templates_by_object_.assign(static_cast<size_t>(num_objects), {});
    footprints_.resize(templates.size());
    dense_.resize(templates.size());
    fp_offsets_.reserve(templates.size() + 1);
    fp_offsets_.push_back(0);
    for (size_t t = 0; t < templates.size(); ++t) {
      if (used_[t]) {
        footprints_[t] = model_->compiled()[t].footprint();
        for (int o : footprints_[t]) {
          templates_by_object_[static_cast<size_t>(o)].push_back(
              static_cast<int>(t));
        }
        // Small footprints get a dense lock-free cache: one slot per
        // placement of the footprint, indexed by the base-M key the probe
        // computes. Values are deterministic functions of the key, so a
        // racing first-wins fill stores the same bits either way.
        std::int64_t entries = 1;
        for (size_t i = 0; i < footprints_[t].size(); ++i) {
          entries *= num_classes_;
          if (entries > kDenseCacheMaxEntries) break;
        }
        if (entries <= kDenseCacheMaxEntries) {
          dense_[t] = std::make_unique<std::atomic<std::uint64_t>[]>(
              static_cast<size_t>(entries));
          for (std::int64_t i = 0; i < entries; ++i) {
            dense_[t][static_cast<size_t>(i)].store(
                kEmptyCacheSlot, std::memory_order_relaxed);
          }
        }
      }
      fp_objects_.insert(fp_objects_.end(), footprints_[t].begin(),
                         footprints_[t].end());
      fp_offsets_.push_back(static_cast<int>(fp_objects_.size()));
    }

    floors_.assign(templates.size(), 0.0);
    cond_floors_.resize(templates.size());
  }

  /// Branch-and-bound floors, built on first demand (MakeBoundCursor /
  /// ObjectTimeSpreadMs) so plain DOT runs — which construct this scorer
  /// on every optimization — never pay the ~|templates|·|footprint|·M
  /// extra compiled runs. call_once makes the first demand safe from
  /// concurrent subtree tasks and enumeration shards.
  ///
  /// Each template's program runs with objects on the optimistic column
  /// (CompiledTemplate::optimistic_class(): per I/O type the minimum
  /// latency anchors over the real classes). The program picks the
  /// cheapest access path / join method per step against those devices,
  /// so the resulting time lower-bounds the template's time under *every*
  /// real placement (each candidate's device time only grows on a real
  /// device, and the per-step minimum is taken over the same candidate
  /// set). Two granularities:
  ///
  ///   * floors_[t]: every footprint object optimistic — the
  ///     unconditional floor;
  ///   * cond_floors_[t][i·M + c]: footprint object i pinned to its real
  ///     class c, the rest optimistic — a floor over every completion
  ///     that places that object there. The bound cursor keeps, per
  ///     incomplete template, the max of the conditionals of its assigned
  ///     objects (a max of admissible lower bounds is itself admissible),
  ///     which lets a response-time cap kill a subtree the moment one hot
  ///     object lands on a slow device.
  ///
  /// All floors are deflated by kBoundSafety because the chosen plan tree
  /// — and therefore the summation order — can differ from the real
  /// placement's.
  ///
  /// With a non-empty io_scale the reported time is the *scaled* time of
  /// the plan chosen on *unscaled* costs, which the optimistic argmin
  /// does not bound; the floors stay at 0 (still admissible, just loose).
  void EnsureFloors() const {
    std::call_once(floors_once_, [this] {
      if (!io_scale_.empty()) return;
      const int num_objects = model_->schema().NumObjects();
      const int m = num_classes_;
      std::vector<int> probe(static_cast<size_t>(num_objects), m);
      for (size_t t = 0; t < footprints_.size(); ++t) {
        if (!used_[t]) continue;
        const CompiledTemplate& program = model_->compiled()[t];
        floors_[t] = program.Run(probe.data()).time_ms * (1 - kBoundSafety);
        const std::vector<int>& fp = footprints_[t];
        cond_floors_[t].assign(fp.size() * static_cast<size_t>(m), 0.0);
        for (size_t i = 0; i < fp.size(); ++i) {
          for (int c = 0; c < m; ++c) {
            probe[static_cast<size_t>(fp[i])] = c;
            cond_floors_[t][i * static_cast<size_t>(m) +
                            static_cast<size_t>(c)] =
                program.Run(probe.data()).time_ms * (1 - kBoundSafety);
          }
          probe[static_cast<size_t>(fp[i])] = m;
        }
      }
    });
  }

  QuickPerf Score(const std::vector<int>& placement) const override {
    // Per-thread scratch: sized once, then reused allocation-free.
    static thread_local std::vector<double> times;
    times.resize(footprints_.size());
    CacheTally tally;
    for (size_t t = 0; t < footprints_.size(); ++t) {
      times[t] = TemplateTime(static_cast<int>(t), placement, tally);
    }
    FlushTally(tally);
    return ScoreFromTimes(times.data());
  }

  std::unique_ptr<FastScorer::BoundCursor> MakeBoundCursor() const override {
    EnsureFloors();
    return std::make_unique<BoundCursor>(this);
  }

  double ObjectTimeSpreadMs(int object) const override {
    EnsureFloors();
    // How much this object's placement can move the guaranteed elapsed
    // time: the spread of its conditional floors across classes, weighted
    // by each template's run-sequence multiplicity. Ordering hint only.
    double spread = 0.0;
    const int m = box_->NumClasses();
    for (int t : templates_by_object_[static_cast<size_t>(object)]) {
      const std::vector<double>& cond =
          cond_floors_[static_cast<size_t>(t)];
      if (cond.empty()) continue;
      const std::vector<int>& fp = footprints_[static_cast<size_t>(t)];
      for (size_t i = 0; i < fp.size(); ++i) {
        if (fp[i] != object) continue;
        double lo = cond[i * static_cast<size_t>(m)];
        double hi = lo;
        for (int c = 1; c < m; ++c) {
          const double v =
              cond[i * static_cast<size_t>(m) + static_cast<size_t>(c)];
          lo = std::min(lo, v);
          hi = std::max(hi, v);
        }
        spread += seq_count_[static_cast<size_t>(t)] * (hi - lo);
        break;
      }
    }
    return spread;
  }

  long long cache_hits() const override {
    return hits_.load(std::memory_order_relaxed);
  }
  long long cache_misses() const override {
    return misses_.load(std::memory_order_relaxed);
  }

 private:
  /// Partial-placement walker for the exact search: a template
  /// contributes the tightest applicable floor — the max of the
  /// conditional floors of its already-assigned objects — until every
  /// footprint object is assigned, then its exact (cached) time. At a leaf
  /// every template is exact and Optimistic() is ScoreFromTimes over
  /// exactly the values Score would compute — bit-identical by
  /// construction.
  class BoundCursor : public FastScorer::BoundCursor {
   public:
    explicit BoundCursor(const DssFastScorer* scorer) : scorer_(scorer) {
      Reset();
    }

    void Reset() override {
      times_ = scorer_->floors_;
      unassigned_.resize(scorer_->footprints_.size());
      for (size_t t = 0; t < unassigned_.size(); ++t) {
        unassigned_[t] = static_cast<int>(scorer_->footprints_[t].size());
      }
      cls_.assign(scorer_->templates_by_object_.size(), -1);
    }

    void Assign(int object_id, const std::vector<int>& placement) override {
      const int c = placement[static_cast<size_t>(object_id)];
      cls_[static_cast<size_t>(object_id)] = c;
      CacheTally tally;
      for (int t :
           scorer_->templates_by_object_[static_cast<size_t>(object_id)]) {
        if (--unassigned_[static_cast<size_t>(t)] == 0) {
          times_[static_cast<size_t>(t)] =
              scorer_->TemplateTime(t, placement, tally);
        } else {
          // Still incomplete: raise the floor with this object's
          // conditional (a running max is exact on the LIFO path because
          // Unassign recomputes from scratch).
          times_[static_cast<size_t>(t)] =
              std::max(times_[static_cast<size_t>(t)],
                       CondFloor(t, object_id, c));
        }
      }
      scorer_->FlushTally(tally);
    }

    void Unassign(int object_id) override {
      cls_[static_cast<size_t>(object_id)] = -1;
      for (int t :
           scorer_->templates_by_object_[static_cast<size_t>(object_id)]) {
        unassigned_[static_cast<size_t>(t)] += 1;
        times_[static_cast<size_t>(t)] = IncompleteFloor(t);
      }
    }

    QuickPerf Optimistic(const std::vector<int>& placement) const override {
      (void)placement;  // the per-template times already reflect it
      return scorer_->ScoreFromTimes(times_.data());
    }

   private:
    double CondFloor(int t, int object_id, int c) const {
      const std::vector<double>& cond =
          scorer_->cond_floors_[static_cast<size_t>(t)];
      if (cond.empty()) return 0.0;  // io_scale: floors disabled
      const std::vector<int>& fp =
          scorer_->footprints_[static_cast<size_t>(t)];
      const int m = scorer_->box_->NumClasses();
      for (size_t i = 0; i < fp.size(); ++i) {
        if (fp[i] == object_id) {
          return cond[i * static_cast<size_t>(m) + static_cast<size_t>(c)];
        }
      }
      return 0.0;
    }

    double IncompleteFloor(int t) const {
      double lb = scorer_->floors_[static_cast<size_t>(t)];
      const std::vector<double>& cond =
          scorer_->cond_floors_[static_cast<size_t>(t)];
      if (cond.empty()) return lb;
      const std::vector<int>& fp =
          scorer_->footprints_[static_cast<size_t>(t)];
      const int m = scorer_->box_->NumClasses();
      for (size_t i = 0; i < fp.size(); ++i) {
        const int c = cls_[static_cast<size_t>(fp[i])];
        if (c >= 0) {
          lb = std::max(
              lb, cond[i * static_cast<size_t>(m) + static_cast<size_t>(c)]);
        }
      }
      return lb;
    }

    const DssFastScorer* scorer_;
    std::vector<double> times_;
    std::vector<int> unassigned_;
    std::vector<int> cls_;  ///< assigned class per object, -1 = unassigned
  };

  /// Per-call hit/miss tallies: one atomic flush per scoring call instead
  /// of one RMW per probe (the probes themselves are a handful of ns, so a
  /// shared-counter fetch_add per probe dominated the dense path). Counts
  /// stay exact, so the DotResult cache counters are unchanged.
  struct CacheTally {
    long long hits = 0;
    long long misses = 0;
  };

  void FlushTally(const CacheTally& tally) const {
    if (tally.hits > 0) {
      hits_.fetch_add(tally.hits, std::memory_order_relaxed);
    }
    if (tally.misses > 0) {
      misses_.fetch_add(tally.misses, std::memory_order_relaxed);
    }
  }

  /// Estimated time of template `t`: a dense-cache hit, or a compiled
  /// run (the one miss path).
  double TemplateTime(int t, const std::vector<int>& placement,
                      CacheTally& tally) const {
    // An unused template has an empty footprint range (and time 0); a
    // dense-cached one costs the base-M key loop plus one relaxed load.
    const size_t ti = static_cast<size_t>(t);
    const int begin = fp_offsets_[ti];
    const int end = fp_offsets_[ti + 1];
    if (begin == end) return 0.0;  // never runs in the sequence
    std::atomic<std::uint64_t>* dense = dense_[ti].get();
    std::atomic<std::uint64_t>* slot = nullptr;
    if (dense != nullptr) {
      const int m = num_classes_;
      const int* p = placement.data();
      std::int64_t key = 0;
      for (int i = begin; i < end; ++i) {
        key = key * m + p[fp_objects_[static_cast<size_t>(i)]];
      }
      slot = &dense[static_cast<size_t>(key)];
      const std::uint64_t bits = slot->load(std::memory_order_relaxed);
      if (bits != kEmptyCacheSlot) {
        tally.hits += 1;
        double time_ms;
        std::memcpy(&time_ms, &bits, sizeof(time_ms));
        return time_ms;
      }
    }
    const double time_ms = PlanTime(t, placement);
    tally.misses += 1;
    if (slot != nullptr) {
      std::uint64_t out;
      std::memcpy(&out, &time_ms, sizeof(out));
      slot->store(out, std::memory_order_relaxed);
    }
    return time_ms;
  }

  /// Uncached time: exactly the per-template arithmetic of
  /// DssWorkloadModel::EstimateWithIoScale, through the compiled program.
  double PlanTime(int t, const std::vector<int>& placement) const {
    const CompiledTemplate& program =
        model_->compiled()[static_cast<size_t>(t)];
    if (io_scale_.empty()) return program.Run(placement.data()).time_ms;
    // Per-thread scratch: sized once, then reused allocation-free.
    static thread_local ObjectIoMap io;
    io.assign(io_scale_.size(), IoVector{});
    const double cpu_ms = program.Run(placement.data(), io.data()).cpu_ms;
    for (size_t o = 0; o < io.size(); ++o) io[o] *= io_scale_[o];
    return IoTimeShareMs(io, placement, *box_, model_->concurrency()) +
           cpu_ms;
  }

  /// The sequence walk and SLA verdict, shared by Score and the cursor.
  QuickPerf ScoreFromTimes(const double* time_by_template) const {
    QuickPerf qp;
    qp.sla_ok = true;
    for (size_t t = 0; t < thresholds_.size(); ++t) {
      if (time_by_template[t] > thresholds_[t]) {
        qp.sla_ok = false;
        break;
      }
    }
    // Pinned-schedule gather over the run sequence — the same schedule
    // (and the same per-template addends) the full estimate sums with.
    const std::vector<int>& sequence = model_->sequence();
    qp.elapsed_ms = GatherSum(time_by_template, sequence.data(),
                              static_cast<int>(sequence.size()));
    if (qp.elapsed_ms > 0) {
      qp.tasks_per_hour = static_cast<double>(sequence.size()) /
                          (qp.elapsed_ms / kMsPerHour);
    }
    return qp;
  }

  const DssWorkloadModel* model_;
  const BoxConfig* box_;
  std::vector<double> io_scale_;
  std::vector<bool> used_;               ///< template appears in sequence
  std::vector<int> seq_count_;           ///< occurrences in the sequence
  std::vector<double> thresholds_;       ///< per template, +inf if unused
  std::vector<std::vector<int>> footprints_;  ///< empty if unused
  std::vector<std::vector<int>> templates_by_object_;
  /// Lazily built by EnsureFloors (mutable + once_flag: construction cost
  /// is confined to runs that actually branch-and-bound).
  mutable std::once_flag floors_once_;
  mutable std::vector<double> floors_;  ///< deflated per-template bounds
  /// Deflated conditional floors, [t][footprint_pos · M + class]; empty
  /// per template when floors are disabled (io_scale) or the template is
  /// unused.
  mutable std::vector<std::vector<double>> cond_floors_;
  /// Flat probe-side state. A probe touches only these arrays plus the
  /// slot itself.
  int num_classes_ = 0;
  std::vector<int> fp_offsets_;  ///< CSR offsets into fp_objects_, T+1
  std::vector<int> fp_objects_;  ///< concatenated footprints (empty if unused)
  /// Per template, footprints with at most kDenseCacheMaxEntries
  /// placements: one atomic double-as-bits slot per base-M key,
  /// kEmptyCacheSlot when unfilled; null = no cache. Lock-free: a probe is
  /// one relaxed load, a fill one relaxed store of a value any racing
  /// filler would compute identically.
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>[]>> dense_;
  mutable std::atomic<long long> hits_{0};
  mutable std::atomic<long long> misses_{0};
};

}  // namespace

DssWorkloadModel::DssWorkloadModel(std::string name, const Schema* schema,
                                   const BoxConfig* box,
                                   std::vector<QuerySpec> templates,
                                   std::vector<int> sequence,
                                   PlannerConfig planner_config)
    : name_(std::move(name)),
      schema_(schema),
      box_(box),
      templates_(std::move(templates)),
      sequence_(std::move(sequence)),
      seq_count_(templates_.size(), 0),
      planner_(schema, box, planner_config) {
  DOT_CHECK(!templates_.empty()) << "DSS workload needs query templates";
  compiled_ =
      CompiledTemplate::Compile(*schema_, *box_, planner_config, templates_);
  DOT_CHECK(!sequence_.empty()) << "DSS workload needs a run sequence";
  for (int idx : sequence_) {
    DOT_CHECK(idx >= 0 && idx < static_cast<int>(templates_.size()))
        << "sequence references unknown template " << idx;
    seq_count_[static_cast<size_t>(idx)] += 1;
  }
}

Plan DssWorkloadModel::PlanTemplate(int template_idx,
                                    const std::vector<int>& placement) const {
  DOT_CHECK(template_idx >= 0 &&
            template_idx < static_cast<int>(templates_.size()));
  return planner_.PlanQuery(templates_[static_cast<size_t>(template_idx)],
                            placement);
}

PerfEstimate DssWorkloadModel::Estimate(
    const std::vector<int>& placement) const {
  return EstimateWithIoScale(placement, {});
}

PerfEstimate DssWorkloadModel::EstimateWithIoScale(
    const std::vector<int>& placement, const std::vector<double>& io_scale,
    bool need_io_by_object) const {
  DOT_CHECK(io_scale.empty() ||
            static_cast<int>(io_scale.size()) == schema_->NumObjects())
      << "io_scale arity mismatch";
  PerfEstimate est;
  est.unit_times_ms.reserve(sequence_.size());

  // Plan each distinct template once (skipping templates the sequence never
  // runs); replicate per the run sequence.
  std::vector<Plan> plans;
  std::vector<double> plan_times;
  plans.reserve(templates_.size());
  plan_times.reserve(templates_.size());
  for (size_t t = 0; t < templates_.size(); ++t) {
    if (seq_count_[t] == 0) {
      plans.emplace_back();
      plan_times.push_back(0.0);
      continue;
    }
    Plan plan = planner_.PlanQuery(templates_[t], placement);
    double time_ms = plan.time_ms;
    if (!io_scale.empty()) {
      ObjectIoMap scaled = plan.io_by_object;
      for (size_t o = 0; o < scaled.size(); ++o) scaled[o] *= io_scale[o];
      time_ms =
          IoTimeShareMs(scaled, placement, *box_, concurrency()) +
          plan.cpu_ms;
      plan.io_by_object = std::move(scaled);
    }
    plan_times.push_back(time_ms);
    plans.push_back(std::move(plan));
  }

  for (int idx : sequence_) {
    est.unit_times_ms.push_back(plan_times[static_cast<size_t>(idx)]);
  }
  // Same gather (addends and schedule) as the fast scorer's ScoreFromTimes.
  est.elapsed_ms = GatherSum(plan_times.data(), sequence_.data(),
                             static_cast<int>(sequence_.size()));

  // Each distinct plan's I/O and join census enter `count` times; multiply
  // once instead of re-accumulating per sequence entry.
  if (need_io_by_object) {
    est.io_by_object.assign(static_cast<size_t>(schema_->NumObjects()),
                            IoVector{});
  }
  for (size_t t = 0; t < templates_.size(); ++t) {
    const int count = seq_count_[t];
    if (count == 0) continue;
    est.num_joins += count * plans[t].num_joins;
    est.num_index_nl_joins += count * plans[t].num_index_nl_joins;
    if (need_io_by_object) {
      AccumulateScaledIo(est.io_by_object, plans[t].io_by_object, count);
    }
  }

  if (est.elapsed_ms > 0) {
    est.tasks_per_hour =
        static_cast<double>(sequence_.size()) / (est.elapsed_ms / kMsPerHour);
  }
  return est;
}

std::unique_ptr<FastScorer> DssWorkloadModel::MakeFastScorer(
    const std::vector<double>& io_scale,
    const std::vector<double>& query_caps_ms, double min_tpmc,
    double sla_tolerance) const {
  (void)min_tpmc;  // response-time SLA: only the per-entry caps apply
  DOT_CHECK(io_scale.empty() ||
            static_cast<int>(io_scale.size()) == schema_->NumObjects())
      << "io_scale arity mismatch";
  return std::make_unique<DssFastScorer>(this, box_, io_scale, query_caps_ms,
                                         sla_tolerance);
}

}  // namespace dot
