#include "workload/workload.h"

#include "common/check.h"
#include "common/simd_dispatch.h"
#include "common/units.h"

namespace dot {

namespace {

/// The default move walk: every candidate is a fresh Score.
class ScoreWalk : public FastScorer::MoveWalk {
 public:
  explicit ScoreWalk(const FastScorer* scorer) : scorer_(scorer) {}

  QuickPerf Price(const std::vector<int>& candidate,
                  const std::vector<int>& moved) override {
    (void)moved;
    return scorer_->Score(candidate);
  }
  void Commit(const std::vector<int>& candidate,
              const std::vector<int>& moved) override {
    (void)candidate;
    (void)moved;
  }

 private:
  const FastScorer* scorer_;
};

}  // namespace

std::unique_ptr<FastScorer::MoveWalk> FastScorer::MakeMoveWalk(
    const std::vector<int>& start) const {
  (void)start;
  return std::make_unique<ScoreWalk>(this);
}

void WorkloadModel::RederiveFromUnitTimes(PerfEstimate* est) const {
  if (sla_kind() != SlaKind::kPerQueryResponseTime) return;
  // Same pinned schedule the estimators sum entry times with, so a
  // jitter-free rederive reproduces elapsed_ms bit for bit.
  const double total =
      BlockedSum(est->unit_times_ms.data(),
                 static_cast<int>(est->unit_times_ms.size()));
  est->elapsed_ms = total;
  if (total > 0) {
    est->tasks_per_hour = static_cast<double>(est->unit_times_ms.size()) /
                          (total / kMsPerHour);
  }
}

std::vector<int> UniformPlacement(int num_objects, int cls) {
  DOT_CHECK(num_objects >= 0);
  DOT_CHECK(cls >= 0);
  return std::vector<int>(static_cast<size_t>(num_objects), cls);
}

}  // namespace dot
