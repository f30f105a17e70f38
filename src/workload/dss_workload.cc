#include "workload/dss_workload.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/simd_dispatch.h"
#include "common/units.h"

namespace dot {

namespace {

/// Slots of a bound cursor's memo (16 bytes each, 256 KiB per cursor that
/// uses one). On a full TPC-H Box 1 solve, 4 K slots left about a third
/// more compiled runs than 16 K (76 K vs 58 K per solve).
constexpr int kCursorMemoBits = 14;

/// Slots of a move walk's memo (16 KiB). A walk is built per optimization
/// and its memo zeroed on first use; at 16 K slots that zeroing alone was
/// about an eighth of a tpch-pipeline op.
constexpr int kWalkMemoBits = 10;

/// A direct-mapped memo of exact template times, private to one bound
/// cursor or move walk, keyed by the (footprint key, template) tag: a hit
/// returns the bits RunTemplate returned for that tag. The slots are
/// allocated on first use, so an owner that never prices a memoized
/// template (all of HTAP's DSS side) never pays for them. Being private,
/// it needs no synchronization, and no thread interleaving can reach it.
class TemplateMemo {
 public:
  struct Slot {
    std::uint64_t tag = 0;  ///< key · T + t + 1; 0 = empty
    double time_ms = 0.0;
  };

  explicit TemplateMemo(int bits) : bits_(bits) {}

  /// The one slot `tag` maps to (Fibonacci hashing: the top bits of
  /// tag · 2^64/φ).
  Slot& SlotFor(std::uint64_t tag) {
    if (slots_ == nullptr) {
      slots_ = std::make_unique<Slot[]>(size_t{1} << bits_);
    }
    return slots_[static_cast<size_t>((tag * 0x9E3779B97F4A7C15ull) >>
                                      (64 - bits_))];
  }

 private:
  int bits_;
  std::unique_ptr<Slot[]> slots_;  ///< null until first use
};

/// A scorer's dense-cache slots: one block for every template.
using DenseBlock = std::unique_ptr<std::atomic<std::uint64_t>[]>;

/// The most recently freed dense block, which the next scorer reuses when
/// it is large enough. A scorer is built per optimization; a block (172 KiB
/// on original TPC-H) allocated and freed per tpch-pipeline op or
/// tpch-exact solve left glibc trimming and regrowing the heap, or mapping
/// and unmapping the block, so its pages faulted in again every time
/// (DESIGN.md §4). At most one block outlives its scorer. Never destroyed,
/// so a scorer destroyed during static destruction can still return one.
struct SpareDenseBlock {
  std::mutex mu;
  DenseBlock block;
  size_t slots = 0;

  static SpareDenseBlock& Get() {
    static SpareDenseBlock* spare = new SpareDenseBlock;
    return *spare;
  }
};

/// A block of at least `slots` zeroed slots; *capacity receives its size.
DenseBlock TakeDenseBlock(size_t slots, size_t* capacity) {
  DenseBlock block;
  {
    SpareDenseBlock& spare = SpareDenseBlock::Get();
    std::lock_guard<std::mutex> lock(spare.mu);
    if (spare.block != nullptr && spare.slots >= slots) {
      block = std::move(spare.block);
      *capacity = spare.slots;
    }
  }
  if (block == nullptr) {
    *capacity = slots;
    return std::make_unique<std::atomic<std::uint64_t>[]>(slots);
  }
  // The same bytes value-initialization writes: every slot empty.
  std::memset(static_cast<void*>(block.get()), 0,
              slots * sizeof(std::atomic<std::uint64_t>));
  return block;
}

/// Keeps `block` as the spare unless the spare is at least as large.
void GiveDenseBlock(DenseBlock block, size_t capacity) {
  SpareDenseBlock& spare = SpareDenseBlock::Get();
  std::lock_guard<std::mutex> lock(spare.mu);
  if (spare.block == nullptr || spare.slots < capacity) {
    spare.block = std::move(block);
    spare.slots = capacity;
  }
}

/// The DSS fast path. Per template it runs the model's compiled program,
/// behind a dense cache keyed by the placement restricted to the
/// template's footprint; scoring a candidate is T probes plus a fixed-order
/// sum over the run sequence, and pricing a move in the DOT walk re-probes
/// only the templates the move touches. Cache values are deterministic
/// functions of their key, so concurrent fill-in (and any thread
/// interleaving) cannot change a score.
class DssFastScorer : public FastScorer {
 public:
  DssFastScorer(const DssWorkloadModel* model, const BoxConfig& box,
                std::vector<double> io_scale,
                const std::vector<double>& query_caps_ms,
                double sla_tolerance)
      : model_(model),
        io_scale_(std::move(io_scale)),
        fp_(model->footprints()) {
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

    const size_t num_templates = templates.size();
    num_classes_ = box.NumClasses();
    dense_.assign(num_templates, nullptr);
    memo_eligible_.assign(num_templates, 0);
    std::vector<size_t> dense_at(num_templates, 0);  ///< 1 + offset; 0 = none
    size_t dense_slots = 0;
    for (size_t t = 0; t < num_templates; ++t) {
      // Templates the sequence never runs are never planned (the full path
      // skips them too): empty footprint, no cache, time pinned to 0.
      const size_t fp_size =
          static_cast<size_t>(fp_.offsets[t + 1] - fp_.offsets[t]);
      if (fp_size == 0) continue;
      // Small footprints get a dense lock-free cache: one slot per
      // placement of the footprint, indexed by the base-M key the probe
      // computes, value-initialized to the empty 0. Values are
      // deterministic functions of the key, so a racing first-wins fill
      // stores the same bits either way. Larger ones go to the bound
      // cursors' and move walks' private memos when the memo tag
      // (key · T + t + 1) fits in 64 bits.
      std::int64_t entries = 1;
      for (size_t i = 0; i < fp_size; ++i) {
        entries *= num_classes_;
        if (entries > DssWorkloadModel::kDenseCacheMaxEntries) break;
      }
      if (entries <= DssWorkloadModel::kDenseCacheMaxEntries) {
        dense_at[t] = dense_slots + 1;
        dense_slots += static_cast<size_t>(entries);
      } else {
        // Every tag key · T + t + 1 is at most T · M^|footprint|; under
        // 2^63 (a 2x margin over rounding in pow) it fits in 64 bits.
        const double tags = static_cast<double>(num_templates) *
                            std::pow(num_classes_, fp_size);
        memo_eligible_[t] = tags < 0x1p63;
      }
    }
    dense_slots_ = TakeDenseBlock(dense_slots, &dense_capacity_);
    for (size_t t = 0; t < num_templates; ++t) {
      if (dense_at[t] != 0) dense_[t] = dense_slots_.get() + (dense_at[t] - 1);
    }
  }

  /// Floors for the exact search and the walk's gate (DESIGN.md §5),
  /// resolved on first demand (MakeBoundCursor, ObjectTimeSpreadMs,
  /// MoveWalk::Bound) under call_once, which makes the first demand safe
  /// from concurrent enumeration shards. Unscaled, they are the model's
  /// UnscaledFloors, built once per model. With an io_scale they are this
  /// scorer's own BuildFloors(io_scale) — RunScaled floors of the scaled
  /// re-price — at T · (1 + |fp| · M) program runs.
  ///
  /// Each template's program runs with objects on the optimistic column
  /// (CompiledTemplate::optimistic_class(): per I/O type the minimum
  /// latency anchors over the real classes). The program picks the
  /// cheapest access path / join method per step against those devices,
  /// so the resulting time lower-bounds the template's time under *every*
  /// real placement (each candidate's device time only grows on a real
  /// device, and the per-step minimum is taken over the same candidate
  /// set). A conditional floor pins one footprint object to a real class:
  /// a floor over every placement that puts the object there. The bound
  /// cursor keeps, per incomplete template, the max of the conditionals of
  /// its assigned objects (a max of admissible lower bounds is itself
  /// admissible), which lets a response-time cap kill a subtree the moment
  /// one hot object lands on a slow device; the move walk's Bound takes
  /// that max over a touched template's whole footprint.
  ///
  /// The same argument covers any probe whose entries are real classes or
  /// the optimistic column: the cursor's Tighten runs it with every
  /// assigned footprint object pinned (FloorOf).
  const DssWorkloadModel::Floors& EnsureFloors() const {
    std::call_once(floors_once_, [this] {
      if (io_scale_.empty()) {
        floors_ = &model_->UnscaledFloors();
      } else {
        own_floors_ = model_->BuildFloors(io_scale_);
        floors_ = &own_floors_;
      }
    });
    return *floors_;
  }

  ~DssFastScorer() override {
    GiveDenseBlock(std::move(dense_slots_), dense_capacity_);
  }

  QuickPerf Score(const std::vector<int>& placement) const override {
    // Per-thread scratch: sized once, then reused allocation-free.
    static thread_local std::vector<double> times;
    times.resize(thresholds_.size());
    CacheTally tally;
    for (size_t t = 0; t < thresholds_.size(); ++t) {
      times[t] = TemplateTime(static_cast<int>(t), placement, tally);
    }
    FlushTally(tally);
    return ScoreFromTimes(times.data());
  }

  std::unique_ptr<FastScorer::BoundCursor> MakeBoundCursor() const override {
    EnsureFloors();
    return std::make_unique<BoundCursor>(this);
  }

  std::unique_ptr<FastScorer::MoveWalk> MakeMoveWalk(
      const std::vector<int>& start) const override {
    return std::make_unique<MoveWalk>(this, start);
  }

  double ObjectTimeSpreadMs(int object) const override {
    EnsureFloors();
    // How much this object's placement can move the guaranteed elapsed
    // time: the spread of its conditional floors across classes, weighted
    // by each template's run-sequence multiplicity. Ordering hint only.
    double spread = 0.0;
    const int m = num_classes_;
    for (int r = fp_.row_offsets[static_cast<size_t>(object)];
         r < fp_.row_offsets[static_cast<size_t>(object) + 1]; ++r) {
      const FloorRow& row = fp_.rows[static_cast<size_t>(r)];
      const double* cond = CondRow(row.k);
      double lo = cond[0];
      double hi = lo;
      for (int c = 1; c < m; ++c) {
        lo = std::min(lo, cond[c]);
        hi = std::max(hi, cond[c]);
      }
      spread += model_->seq_count()[static_cast<size_t>(row.t)] * (hi - lo);
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
  /// One (template, footprint position) pair of an object: `k` indexes
  /// fp_.objects and the conditional-floor rows.
  using FloorRow = DssWorkloadModel::FootprintIndex::Row;

  /// Per-call hit/miss tallies: one atomic flush per scoring call instead
  /// of one RMW per probe (the probes themselves are a handful of ns, so a
  /// shared-counter fetch_add per probe dominated the dense path). Counts
  /// stay exact, so the DotResult cache counters are unchanged.
  struct CacheTally {
    long long hits = 0;
    long long misses = 0;
  };

  /// Partial-placement walker for the exact search: a template
  /// contributes the tightest applicable floor — the max of the
  /// conditional floors of its already-assigned objects — until every
  /// footprint object is assigned, then its exact time. At a leaf every
  /// template is exact and Optimistic() is ScoreFromTimes over exactly the
  /// values Score would compute — bit-identical by construction.
  ///
  /// Assign and Unassign cost O(templates the object touches). Assign
  /// pushes each touched template's old time on an undo stack and
  /// Unassign pops them back, so backtracking restores the very bits the
  /// path held (a max over the same floors is the same value). This is
  /// why the LIFO order is checked, not assumed.
  ///
  /// Tighten raises each incomplete template of the most recently
  /// assigned object that has at least two assigned objects to its
  /// compiled floor with all of them pinned (a probe with every assigned
  /// class and the optimistic column elsewhere). It touches only rows
  /// that object's Assign pushed, so its Unassign restores them too.
  /// Assign and Unassign do no extra work for it: probes and enumeration,
  /// which replay them without tightening, pay nothing.
  ///
  /// Templates the dense cache cannot hold complete through the cursor's
  /// private TemplateMemo.
  class BoundCursor : public FastScorer::BoundCursor {
   public:
    explicit BoundCursor(const DssFastScorer* scorer)
        : scorer_(scorer), memo_(kCursorMemoBits) {
      undo_.reserve(scorer_->fp_.rows.size());
      assigned_.reserve(scorer_->fp_.row_offsets.size());
      Reset();
    }

    void Reset() override {
      times_ = scorer_->floors_->by_template;
      unassigned_.resize(times_.size());
      for (size_t t = 0; t < unassigned_.size(); ++t) {
        unassigned_[t] = scorer_->fp_.offsets[t + 1] - scorer_->fp_.offsets[t];
      }
      undo_.clear();
      assigned_.clear();
    }

    void Assign(int object_id, const std::vector<int>& placement) override {
      const int c = placement[static_cast<size_t>(object_id)];
      assigned_.push_back(object_id);
      CacheTally tally;
      for (int r = scorer_->fp_.row_offsets[static_cast<size_t>(object_id)];
           r < scorer_->fp_.row_offsets[static_cast<size_t>(object_id) + 1];
           ++r) {
        const FloorRow& row = scorer_->fp_.rows[static_cast<size_t>(r)];
        double& time = times_[static_cast<size_t>(row.t)];
        undo_.push_back(time);
        if (--unassigned_[static_cast<size_t>(row.t)] == 0) {
          time = scorer_->MemoTime(memo_, row.t, placement, tally);
        } else {
          // Still incomplete: raise the floor with this object's
          // conditional.
          time = std::max(time, scorer_->CondRow(row.k)[c]);
        }
      }
      scorer_->FlushTally(tally);
    }

    void Unassign(int object_id) override {
      DOT_CHECK(!assigned_.empty() && assigned_.back() == object_id)
          << "BoundCursor::Unassign(" << object_id
          << ") is not the most recent Assign";
      assigned_.pop_back();
      for (int r = scorer_->fp_.row_offsets[static_cast<size_t>(object_id) + 1];
           r-- > scorer_->fp_.row_offsets[static_cast<size_t>(object_id)];) {
        const int t = scorer_->fp_.rows[static_cast<size_t>(r)].t;
        times_[static_cast<size_t>(t)] = undo_.back();
        undo_.pop_back();
        unassigned_[static_cast<size_t>(t)] += 1;
      }
    }

    QuickPerf Optimistic(const std::vector<int>& placement) const override {
      (void)placement;  // the per-template times already reflect it
      return scorer_->ScoreFromTimes(times_.data());
    }

    bool Tighten(const std::vector<int>& placement) override {
      if (assigned_.empty()) return false;
      // Per-thread scratch, like Score's: a member would grow every
      // cursor, and a larger DSS cursor once measurably slowed
      // htap-advisor, which builds one per HTAP cursor (DESIGN.md §5).
      static thread_local std::vector<int> probe;
      probe.assign(scorer_->fp_.row_offsets.size() - 1, scorer_->num_classes_);
      for (int a : assigned_) {
        probe[static_cast<size_t>(a)] = placement[static_cast<size_t>(a)];
      }
      const size_t o = static_cast<size_t>(assigned_.back());
      bool raised = false;
      for (int r = scorer_->fp_.row_offsets[o];
           r < scorer_->fp_.row_offsets[o + 1]; ++r) {
        const int t = scorer_->fp_.rows[static_cast<size_t>(r)].t;
        const size_t ti = static_cast<size_t>(t);
        const int left = unassigned_[ti];
        // Complete templates are exact; with one object assigned the run
        // is that object's conditional floor, which Assign already took.
        if (left == 0 ||
            scorer_->fp_.offsets[ti + 1] - scorer_->fp_.offsets[ti] - left <
                2) {
          continue;
        }
        const double floor =
            scorer_->model_->FloorOf(t, probe.data(), scorer_->io_scale_);
        if (floor > times_[ti]) {
          times_[ti] = floor;
          raised = true;
        }
      }
      return raised;
    }

   private:
    const DssFastScorer* scorer_;
    std::vector<double> times_;
    std::vector<int> unassigned_;
    std::vector<double> undo_;   ///< old times, one per touched row
    std::vector<int> assigned_;  ///< objects in Assign order
    TemplateMemo memo_;
  };

  /// Move pricer for the DOT walk. committed_ holds the committed
  /// placement's per-template times. Price copies them into candidate_
  /// except for the templates in the moved objects' rows, which it
  /// re-prices (dense cache, the walk's own memo, or a compiled run), and
  /// scores through the same ScoreFromTimes: the addends and their order
  /// are Score's, so the result is bit-identical by construction. Commit
  /// adopts the priced templates; it re-prices first when the candidate it
  /// commits is not the one last priced (an over-capacity candidate the
  /// walk keeps because it shrinks the violation is never priced).
  ///
  /// Bound prices no template. A touched template's floor is the max of
  /// its footprint's conditional floors at the candidate's classes; the
  /// walk keeps each template's committed max and the entry it came from,
  /// so unless the move changes that entry's object, the floor is the
  /// committed max raised by the moved rows alone. The floors, the
  /// committed maxima and the committed elapsed time are set up on the
  /// first Bound, so a walk that never bounds never pays for them.
  class MoveWalk : public FastScorer::MoveWalk {
   public:
    MoveWalk(const DssFastScorer* scorer, const std::vector<int>& start)
        : scorer_(scorer),
          memo_(kWalkMemoBits),
          listed_(scorer->thresholds_.size(), 0),
          committed_placement_(start) {
      const int num_templates = static_cast<int>(listed_.size());
      committed_.resize(listed_.size());
      CacheTally tally;
      for (int t = 0; t < num_templates; ++t) {
        committed_[static_cast<size_t>(t)] =
            scorer_->MemoTime(memo_, t, start, tally);
      }
      scorer_->FlushTally(tally);
      candidate_ = committed_;
    }

    QuickPerf Price(const std::vector<int>& candidate,
                    const std::vector<int>& moved) override {
      Reprice(candidate, moved);
      return scorer_->ScoreFromTimes(candidate_.data());
    }

    QuickPerf Bound(const std::vector<int>& candidate,
                    const std::vector<int>& moved) override {
      if (floor_max_.empty()) InitFloors();
      // listed_ marks a touched template 1, or 2 when the move changes the
      // object its committed max came from (that max may no longer hold).
      bound_touched_.clear();
      for (int o : moved) {
        const int c = candidate[static_cast<size_t>(o)];
        for (int r = scorer_->fp_.row_offsets[static_cast<size_t>(o)];
             r < scorer_->fp_.row_offsets[static_cast<size_t>(o) + 1]; ++r) {
          const FloorRow& row = scorer_->fp_.rows[static_cast<size_t>(r)];
          const size_t t = static_cast<size_t>(row.t);
          if (listed_[t] == 0) {
            listed_[t] = 1;
            bound_touched_.push_back(row.t);
            floor_[t] = floor_max_[t];
          }
          if (row.k == floor_arg_[t]) listed_[t] = 2;
          floor_[t] = std::max(floor_[t], scorer_->CondRow(row.k)[c]);
        }
      }
      // Untouched templates keep their committed times: the bound moves
      // the committed elapsed time by each touched template's floor.
      QuickPerf qp;
      qp.sla_ok = true;
      double elapsed = committed_elapsed_;
      for (int ti : bound_touched_) {
        const size_t t = static_cast<size_t>(ti);
        const double floor =
            listed_[t] == 2 ? FootprintFloor(ti, candidate).first : floor_[t];
        listed_[t] = 0;
        if (floor > scorer_->thresholds_[t]) qp.sla_ok = false;
        elapsed += scorer_->model_->seq_count()[t] * (floor - committed_[t]);
      }
      qp.elapsed_ms = elapsed * (1 - kBoundSafety);
      qp.tasks_per_hour = scorer_->TasksPerHour(qp.elapsed_ms);
      return qp;
    }

    void Commit(const std::vector<int>& candidate,
                const std::vector<int>& moved) override {
      if (!PricedIs(candidate, moved)) Reprice(candidate, moved);
      for (int t : touched_) {
        committed_[static_cast<size_t>(t)] = candidate_[static_cast<size_t>(t)];
      }
      for (int o : moved) {
        committed_placement_[static_cast<size_t>(o)] =
            candidate[static_cast<size_t>(o)];
      }
      if (!floor_max_.empty()) {
        for (int t : touched_) CommitFloor(t);
        committed_elapsed_ = scorer_->Elapsed(committed_.data());
      }
      priced_ = false;
    }

   private:
    /// Makes candidate_ the times of `candidate`: the last candidate's
    /// touched templates go back to their committed times, then every
    /// template in a moved object's rows is priced afresh.
    void Reprice(const std::vector<int>& candidate,
                 const std::vector<int>& moved) {
      for (int t : touched_) {
        candidate_[static_cast<size_t>(t)] = committed_[static_cast<size_t>(t)];
      }
      touched_.clear();
      for (int o : moved) {
        for (int r = scorer_->fp_.row_offsets[static_cast<size_t>(o)];
             r < scorer_->fp_.row_offsets[static_cast<size_t>(o) + 1]; ++r) {
          const int t = scorer_->fp_.rows[static_cast<size_t>(r)].t;
          if (listed_[static_cast<size_t>(t)] != 0) continue;
          listed_[static_cast<size_t>(t)] = 1;
          touched_.push_back(t);
        }
      }
      CacheTally tally;
      for (int t : touched_) {
        listed_[static_cast<size_t>(t)] = 0;
        candidate_[static_cast<size_t>(t)] =
            scorer_->MemoTime(memo_, t, candidate, tally);
      }
      scorer_->FlushTally(tally);
      priced_ = true;
      priced_moved_ = moved;
      priced_classes_.clear();
      for (int o : moved) {
        priced_classes_.push_back(candidate[static_cast<size_t>(o)]);
      }
    }

    /// True when `candidate` is the candidate last priced: the same moved
    /// objects on the same classes over the same committed placement.
    bool PricedIs(const std::vector<int>& candidate,
                  const std::vector<int>& moved) const {
      if (!priced_ || moved != priced_moved_) return false;
      for (size_t i = 0; i < moved.size(); ++i) {
        if (candidate[static_cast<size_t>(moved[i])] != priced_classes_[i]) {
          return false;
        }
      }
      return true;
    }

    /// The max of template `t`'s conditional floors at `placement`'s
    /// classes, and the footprint entry it came from (-1 for an unused
    /// template, whose floor is 0).
    std::pair<double, int> FootprintFloor(
        int t, const std::vector<int>& placement) const {
      const DssWorkloadModel::FootprintIndex& fp = scorer_->fp_;
      std::pair<double, int> best(0.0, -1);
      for (int k = fp.offsets[static_cast<size_t>(t)];
           k < fp.offsets[static_cast<size_t>(t) + 1]; ++k) {
        const int o = fp.objects[static_cast<size_t>(k)];
        const double floor =
            scorer_->CondRow(k)[placement[static_cast<size_t>(o)]];
        if (best.second < 0 || floor > best.first) best = {floor, k};
      }
      return best;
    }

    void CommitFloor(int t) {
      const std::pair<double, int> max =
          FootprintFloor(t, committed_placement_);
      floor_max_[static_cast<size_t>(t)] = max.first;
      floor_arg_[static_cast<size_t>(t)] = max.second;
    }

    void InitFloors() {
      scorer_->EnsureFloors();
      const size_t num_templates = committed_.size();
      floor_max_.resize(num_templates);
      floor_arg_.resize(num_templates);
      floor_.resize(num_templates);
      for (size_t t = 0; t < num_templates; ++t) {
        CommitFloor(static_cast<int>(t));
      }
      committed_elapsed_ = scorer_->Elapsed(committed_.data());
    }

    const DssFastScorer* scorer_;
    TemplateMemo memo_;
    std::vector<double> committed_;  ///< per template
    std::vector<double> candidate_;  ///< committed_ but for touched_
    std::vector<int> touched_;       ///< templates the last Reprice priced
    /// Per template, 0 outside Reprice and Bound.
    std::vector<char> listed_;
    /// The last priced candidate, as its moved objects and their classes;
    /// meaningful while priced_ (cleared by Commit).
    bool priced_ = false;
    std::vector<int> priced_moved_;
    std::vector<int> priced_classes_;
    /// Bound's state: the committed placement, which InitFloors reads;
    /// then, empty until the first Bound, per template the committed
    /// placement's max conditional floor and its footprint entry, scratch
    /// for the touched templates' floors, and the committed elapsed time.
    std::vector<int> committed_placement_;
    std::vector<double> floor_max_;
    std::vector<int> floor_arg_;
    std::vector<double> floor_;
    std::vector<int> bound_touched_;
    double committed_elapsed_ = 0.0;
  };

  void FlushTally(const CacheTally& tally) const {
    if (tally.hits > 0) {
      hits_.fetch_add(tally.hits, std::memory_order_relaxed);
    }
    if (tally.misses > 0) {
      misses_.fetch_add(tally.misses, std::memory_order_relaxed);
    }
  }

  /// Conditional floors of footprint entry `k`, one per class; only
  /// after EnsureFloors.
  const double* CondRow(int k) const {
    return floors_->cond.data() +
           static_cast<size_t>(k) * static_cast<size_t>(num_classes_);
  }

  /// The placement restricted to template `t`'s footprint, as a base-M
  /// number (footprint order, most significant first).
  std::uint64_t FootprintKey(int t, const int* placement) const {
    const size_t ti = static_cast<size_t>(t);
    const std::uint64_t m = static_cast<std::uint64_t>(num_classes_);
    std::uint64_t key = 0;
    for (int i = fp_.offsets[ti]; i < fp_.offsets[ti + 1]; ++i) {
      key = key * m + static_cast<std::uint64_t>(
                          placement[fp_.objects[static_cast<size_t>(i)]]);
    }
    return key;
  }

  /// Estimated time of template `t`: a dense-cache hit, or a compiled
  /// run (the one miss path).
  double TemplateTime(int t, const std::vector<int>& placement,
                      CacheTally& tally) const {
    // An unused template has an empty footprint range (and time 0); a
    // dense-cached one costs the base-M key loop plus one relaxed load.
    const size_t ti = static_cast<size_t>(t);
    if (fp_.offsets[ti] == fp_.offsets[ti + 1]) return 0.0;  // never runs
    std::atomic<std::uint64_t>* dense = dense_[ti];
    std::atomic<std::uint64_t>* slot = nullptr;
    if (dense != nullptr) {
      slot = &dense[static_cast<size_t>(FootprintKey(t, placement.data()))];
      const std::uint64_t bits = ~slot->load(std::memory_order_relaxed);
      if (bits != ~std::uint64_t{0}) {
        tally.hits += 1;
        double time_ms;
        std::memcpy(&time_ms, &bits, sizeof(time_ms));
        return time_ms;
      }
    }
    const double time_ms = model_->RunTemplate(t, placement, io_scale_).time_ms;
    tally.misses += 1;
    if (slot != nullptr) {
      std::uint64_t out;
      std::memcpy(&out, &time_ms, sizeof(out));
      slot->store(~out, std::memory_order_relaxed);
    }
    return time_ms;
  }

  /// Exact time of template `t`: TemplateTime, except that a template
  /// too large for the dense cache goes through `memo` first.
  double MemoTime(TemplateMemo& memo, int t, const std::vector<int>& placement,
                  CacheTally& tally) const {
    if (memo_eligible_[static_cast<size_t>(t)] == 0) {
      return TemplateTime(t, placement, tally);
    }
    const std::uint64_t tag = FootprintKey(t, placement.data()) *
                                  thresholds_.size() +
                              static_cast<std::uint64_t>(t) + 1;
    TemplateMemo::Slot& slot = memo.SlotFor(tag);
    if (slot.tag == tag) {
      tally.hits += 1;
      return slot.time_ms;
    }
    tally.misses += 1;
    slot.tag = tag;
    slot.time_ms = model_->RunTemplate(t, placement, io_scale_).time_ms;
    return slot.time_ms;
  }

  /// Pinned-schedule gather over the run sequence — the same schedule
  /// (and the same per-template addends) the full estimate sums with.
  double Elapsed(const double* time_by_template) const {
    const std::vector<int>& sequence = model_->sequence();
    return GatherSum(time_by_template, sequence.data(),
                     static_cast<int>(sequence.size()));
  }

  /// Run-sequence entries per hour at `elapsed_ms` (0 when it is 0).
  double TasksPerHour(double elapsed_ms) const {
    return elapsed_ms > 0 ? static_cast<double>(model_->sequence().size()) /
                                (elapsed_ms / kMsPerHour)
                          : 0.0;
  }

  /// The sequence walk and SLA verdict, shared by Score, the cursor and
  /// the move walk.
  QuickPerf ScoreFromTimes(const double* time_by_template) const {
    QuickPerf qp;
    qp.sla_ok = true;
    for (size_t t = 0; t < thresholds_.size(); ++t) {
      if (time_by_template[t] > thresholds_[t]) {
        qp.sla_ok = false;
        break;
      }
    }
    qp.elapsed_ms = Elapsed(time_by_template);
    qp.tasks_per_hour = TasksPerHour(qp.elapsed_ms);
    return qp;
  }

  const DssWorkloadModel* model_;
  std::vector<double> io_scale_;
  std::vector<double> thresholds_;  ///< per template, +inf if unused
  int num_classes_ = 0;
  /// The model's footprint index: the cursors, the move walk and
  /// ObjectTimeSpreadMs walk its per-object rows instead of searching
  /// footprints.
  const DssWorkloadModel::FootprintIndex& fp_;
  /// Resolved by EnsureFloors (mutable + once_flag: construction cost is
  /// confined to runs that bound something): the model's unscaled floors,
  /// or own_floors_ under an io_scale.
  mutable std::once_flag floors_once_;
  mutable const DssWorkloadModel::Floors* floors_ = nullptr;
  mutable DssWorkloadModel::Floors own_floors_;
  /// Per template, footprints with at most kDenseCacheMaxEntries
  /// placements: one atomic slot per base-M key holding the complemented
  /// bits of the time, so the value-initialized 0 reads as empty (its
  /// complement, all ones, is a NaN no finite plan time has); null = no
  /// cache. Lock-free: a probe is one relaxed load, a fill one relaxed
  /// store of a value any racing filler would compute identically. The
  /// slots of every template share dense_slots_, of dense_capacity_ slots.
  DenseBlock dense_slots_;
  size_t dense_capacity_ = 0;
  std::vector<std::atomic<std::uint64_t>*> dense_;
  /// 1 for used templates with no dense cache whose memo tag fits in 64
  /// bits: the bound cursors and move walks memoize them.
  std::vector<char> memo_eligible_;
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

  // The footprint index: templates' footprints in template order, then
  // per object its (template, entry) rows, also in template order.
  const size_t num_templates = templates_.size();
  const size_t num_objects = static_cast<size_t>(schema_->NumObjects());
  FootprintIndex& fp = footprints_;
  fp.offsets.assign(num_templates + 1, 0);
  for (size_t t = 0; t < num_templates; ++t) {
    const size_t size = seq_count_[t] > 0 ? compiled_[t].footprint().size() : 0;
    fp.offsets[t + 1] = fp.offsets[t] + static_cast<int>(size);
  }
  fp.objects.resize(static_cast<size_t>(fp.offsets[num_templates]));
  fp.rows.resize(fp.objects.size());
  fp.row_offsets.assign(num_objects + 1, 0);
  for (size_t t = 0; t < num_templates; ++t) {
    if (seq_count_[t] == 0) continue;
    size_t k = static_cast<size_t>(fp.offsets[t]);
    for (int o : compiled_[t].footprint()) {
      fp.objects[k++] = o;
      fp.row_offsets[static_cast<size_t>(o) + 1] += 1;
    }
  }
  for (size_t o = 0; o < num_objects; ++o) {
    fp.row_offsets[o + 1] += fp.row_offsets[o];
  }
  std::vector<int> fill(fp.row_offsets.begin(), fp.row_offsets.end() - 1);
  for (size_t t = 0; t < num_templates; ++t) {
    for (int k = fp.offsets[t]; k < fp.offsets[t + 1]; ++k) {
      const size_t o = static_cast<size_t>(fp.objects[static_cast<size_t>(k)]);
      fp.rows[static_cast<size_t>(fill[o]++)] = {static_cast<int>(t), k};
    }
  }
}

double DssWorkloadModel::FloorOf(int t, const int* probe,
                                 const std::vector<double>& io_scale) const {
  const CompiledTemplate& program = compiled_[static_cast<size_t>(t)];
  const double time_ms =
      io_scale.empty() ? program.Run(probe).time_ms
                       : program.RunScaled(probe, io_scale.data()).time_ms;
  return time_ms * (1 - kBoundSafety);
}

// With an io_scale the exact time is RunTemplate's scaled re-price of the
// plan chosen on *unscaled* costs, so the floors run RunScaled instead:
// each entry's device time is multiplied by its object's s_o before every
// step takes its minimum. That stays admissible: s_o >= 0
// (ValidateIoScale); the re-price is linear in the chosen plan's
// per-object I/O, i.e. the sum over the plan's entries of s_o × device
// time; and each step's chosen candidate costs at least the cheapest
// candidate under the scaled optimistic times, whichever costs chose it.
//
// FloorOf deflates every floor by kBoundSafety because the chosen plan
// tree — and therefore the summation order — can differ from the real
// placement's, and the scaled re-price sums per object, not per node.
DssWorkloadModel::Floors DssWorkloadModel::BuildFloors(
    const std::vector<double>& io_scale) const {
  const int m = box_->NumClasses();
  const FootprintIndex& fp = footprints_;
  Floors out;
  out.by_template.assign(templates_.size(), 0.0);
  out.cond.assign(fp.objects.size() * static_cast<size_t>(m), 0.0);
  std::vector<int> probe(static_cast<size_t>(schema_->NumObjects()), m);
  for (size_t t = 0; t < templates_.size(); ++t) {
    if (fp.offsets[t] == fp.offsets[t + 1]) continue;  // unused
    const int ti = static_cast<int>(t);
    out.by_template[t] = FloorOf(ti, probe.data(), io_scale);
    for (int k = fp.offsets[t]; k < fp.offsets[t + 1]; ++k) {
      const size_t o = static_cast<size_t>(fp.objects[static_cast<size_t>(k)]);
      for (int c = 0; c < m; ++c) {
        probe[o] = c;
        out.cond[static_cast<size_t>(k) * static_cast<size_t>(m) +
                 static_cast<size_t>(c)] = FloorOf(ti, probe.data(), io_scale);
      }
      probe[o] = m;
    }
  }
  return out;
}

const DssWorkloadModel::Floors& DssWorkloadModel::UnscaledFloors() const {
  std::call_once(floors_once_, [this] { floors_ = BuildFloors({}); });
  return floors_;
}

CompiledTemplate::Result DssWorkloadModel::RunTemplate(
    int t, const std::vector<int>& placement,
    const std::vector<double>& io_scale, ObjectIoMap* io) const {
  const CompiledTemplate& program = compiled_[static_cast<size_t>(t)];
  if (io_scale.empty() && io == nullptr) return program.Run(placement.data());
  // The program adds I/O only to footprint objects. A caller's map is
  // zeroed whole; the per-thread scratch (sized once, then reused
  // allocation-free) only on the footprint, the one part read below.
  const std::vector<int>& footprint = program.footprint();
  static thread_local ObjectIoMap scratch;
  ObjectIoMap& objects = io != nullptr ? *io : scratch;
  if (io != nullptr) {
    objects.assign(static_cast<size_t>(schema_->NumObjects()), IoVector{});
  } else {
    objects.resize(static_cast<size_t>(schema_->NumObjects()));
    for (int o : footprint) objects[static_cast<size_t>(o)] = IoVector{};
  }
  CompiledTemplate::Result r = program.Run(placement.data(), objects.data());
  if (io_scale.empty()) return r;
  for (int o : footprint) {
    objects[static_cast<size_t>(o)] *= io_scale[static_cast<size_t>(o)];
  }
  // The footprint is sorted, so this prices the same non-zero addends in
  // the same order as IoTimeShareMs at the planning concurrency.
  r.io_ms = program.PriceIoMs(placement.data(), objects.data());
  r.time_ms = r.io_ms + r.cpu_ms;
  return r;
}

PerfEstimate DssWorkloadModel::EstimateWithIoScale(
    const std::vector<int>& placement, const std::vector<double>& io_scale,
    bool need_io_by_object) const {
  const int n = schema_->NumObjects();
  DOT_CHECK(static_cast<int>(placement.size()) == n)
      << "placement arity mismatch";
  for (int cls : placement) {
    DOT_CHECK(cls >= 0 && cls < box_->NumClasses())
        << "placement holds invalid class " << cls;
  }
  DOT_CHECK(io_scale.empty() || static_cast<int>(io_scale.size()) == n)
      << "io_scale arity mismatch";
  PerfEstimate est;

  // Price each distinct template once (skipping templates the sequence
  // never runs); its I/O and join census enter `count` times, multiplied
  // once instead of re-accumulated per sequence entry. Per-thread scratch:
  // sized once, then reused allocation-free.
  static thread_local std::vector<double> times;
  static thread_local ObjectIoMap template_io;
  times.assign(templates_.size(), 0.0);
  if (need_io_by_object) {
    est.io_by_object.assign(static_cast<size_t>(n), IoVector{});
  }
  for (size_t t = 0; t < templates_.size(); ++t) {
    const int count = seq_count_[t];
    if (count == 0) continue;
    const CompiledTemplate::Result r =
        RunTemplate(static_cast<int>(t), placement, io_scale,
                    need_io_by_object ? &template_io : nullptr);
    times[t] = r.time_ms;
    est.num_joins += count * r.num_joins;
    est.num_index_nl_joins += count * r.num_index_nl_joins;
    if (need_io_by_object) {
      AccumulateScaledIo(est.io_by_object, template_io, count);
    }
  }

  est.unit_times_ms.reserve(sequence_.size());
  for (int idx : sequence_) {
    est.unit_times_ms.push_back(times[static_cast<size_t>(idx)]);
  }
  // Same gather (addends and schedule) as the fast scorer's ScoreFromTimes.
  est.elapsed_ms = GatherSum(times.data(), sequence_.data(),
                             static_cast<int>(sequence_.size()));
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
  return std::make_unique<DssFastScorer>(this, *box_, io_scale,
                                         query_caps_ms, sla_tolerance);
}

}  // namespace dot
