#include "advisor/drift.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/str_util.h"

namespace dot {

void OnlineIoProfile::Observe(const ObjectIoMap& counts, double alpha) {
  DOT_CHECK(alpha > 0.0 && alpha <= 1.0);
  if (!has_observation_) {
    mean_ = counts;
    has_observation_ = true;
    return;
  }
  DOT_CHECK(mean_.size() == counts.size())
      << "observation changed its object count mid-stream";
  for (size_t o = 0; o < mean_.size(); ++o) {
    for (IoType t : kAllIoTypes) {
      mean_[o][t] = (1.0 - alpha) * mean_[o][t] + alpha * counts[o][t];
    }
  }
}

void OnlineIoProfile::Reset() {
  mean_.clear();
  has_observation_ = false;
}

Status ValidateDriftConfig(const DriftConfig& config) {
  // NaN fails every comparison.
  if (config.ewma_alpha > 0.0 && config.ewma_alpha <= 1.0 &&
      config.deadband >= 0.0 && config.trigger > 0.0 &&
      config.count_floor > 0.0) {
    return Status::OK();
  }
  return Status::InvalidArgument(StrPrintf(
      "DriftConfig needs ewma_alpha in (0, 1], deadband >= 0, trigger > 0 "
      "and count_floor > 0; got %g, %g, %g, %g",
      config.ewma_alpha, config.deadband, config.trigger, config.count_floor));
}

DriftDetector::DriftDetector(DriftConfig config) : config_(config) {
  DOT_CHECK_OK(ValidateDriftConfig(config_));
}

void DriftDetector::Rebase(const ObjectIoMap& baseline) {
  baseline_ = baseline;
  smoothed_.Reset();
  deviation_ = 0.0;
  statistic_ = 0.0;
}

void DriftDetector::Update(const ObjectIoMap& observed) {
  DOT_CHECK(!baseline_.empty()) << "Rebase before Update";
  DOT_CHECK(observed.size() == baseline_.size())
      << "observation does not cover the baseline's objects";
  smoothed_.Observe(observed, config_.ewma_alpha);

  // Fixed (object, class) summation order: the statistic is a pure serial
  // function of the observation sequence.
  const ObjectIoMap& mean = smoothed_.mean();
  double abs_diff = 0.0;
  double base_total = 0.0;
  for (size_t o = 0; o < baseline_.size(); ++o) {
    for (IoType t : kAllIoTypes) {
      abs_diff += std::abs(mean[o][t] - baseline_[o][t]);
      base_total += baseline_[o][t];
    }
  }
  deviation_ = abs_diff / std::max(base_total, config_.count_floor);
  statistic_ =
      std::max(0.0, statistic_ + (deviation_ - config_.deadband));
}

}  // namespace dot
