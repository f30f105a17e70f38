#ifndef DOTPROV_ADVISOR_DRIFT_H_
#define DOTPROV_ADVISOR_DRIFT_H_

#include "common/status.h"
#include "query/object_io.h"

namespace dot {

/// Knobs of the drift detector.
struct DriftConfig {
  /// EWMA smoothing weight of each new observation (1 = trust the latest
  /// window outright, small = heavy smoothing).
  double ewma_alpha = 0.3;

  /// Per-window relative deviation below this is treated as in-profile
  /// noise and does not accumulate (the CUSUM drift term).
  double deadband = 0.05;

  /// Accumulated excess deviation at which drift is declared. With the
  /// default deadband, a persistent step of relative size s trips after
  /// about trigger / (s - deadband) windows: big shifts alarm fast, small
  /// ones must persist.
  double trigger = 0.5;

  /// Floor on the baseline's total request count when normalizing the
  /// deviation, so a near-idle baseline cannot produce infinite relative
  /// drift.
  double count_floor = 1.0;
};

/// InvalidArgument unless ewma_alpha is in (0, 1], deadband >= 0, trigger
/// > 0 and count_floor > 0 (NaN fails each).
Status ValidateDriftConfig(const DriftConfig& config);

/// Exponentially-weighted running mean of per-(object, I/O-class) request
/// counts — the advisor's online estimate of "what the workload does now".
class OnlineIoProfile {
 public:
  /// Folds one window's counts in at weight `alpha`; the first observation
  /// initializes the mean outright.
  void Observe(const ObjectIoMap& counts, double alpha);

  const ObjectIoMap& mean() const { return mean_; }
  bool empty() const { return !has_observation_; }

  void Reset();

 private:
  ObjectIoMap mean_;
  bool has_observation_ = false;
};

/// Online change detection over I/O profiles: an EWMA of the observed
/// per-(object, I/O-class) counts, compared each window against the
/// incumbent plan's baseline profile, with the excess relative deviation
/// accumulated CUSUM-style. Purely serial arithmetic in fixed object/class
/// order — bit-identical wherever it runs, which is what lets the advisor
/// promise identical decision sequences at any thread count.
class DriftDetector {
 public:
  /// Asserts ValidateDriftConfig(config).
  explicit DriftDetector(DriftConfig config = {});

  /// Installs a new baseline profile (the counts the incumbent plan
  /// assumes) and clears the EWMA and the accumulated statistic. Called at
  /// startup and after every re-plan: the re-plan has absorbed the shift,
  /// so detection restarts from the new normal.
  void Rebase(const ObjectIoMap& baseline);

  /// Feeds one window's observed counts.
  void Update(const ObjectIoMap& observed);

  /// Relative deviation of the smoothed profile from the baseline after
  /// the last Update: Σ |ewma − base| over all (object, class) cells,
  /// normalized by max(Σ base, count_floor).
  double deviation() const { return deviation_; }

  /// The accumulated statistic S = Σ max(0, deviation − deadband),
  /// clamped at 0 from below (CUSUM).
  double statistic() const { return statistic_; }

  /// true once statistic() has reached the trigger.
  bool drifted() const { return statistic_ >= config_.trigger; }

  /// The smoothed observed profile since the last Rebase.
  const OnlineIoProfile& smoothed() const { return smoothed_; }

  const ObjectIoMap& baseline() const { return baseline_; }

 private:
  DriftConfig config_;
  ObjectIoMap baseline_;
  OnlineIoProfile smoothed_;
  double deviation_ = 0.0;
  double statistic_ = 0.0;
};

}  // namespace dot

#endif  // DOTPROV_ADVISOR_DRIFT_H_
