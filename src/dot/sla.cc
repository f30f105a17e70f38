#include "dot/sla.h"

#include <cmath>
#include <string>

#include "common/check.h"
#include "workload/workload.h"

namespace dot {

Status ValidateRelativeSla(double relative_sla) {
  if (relative_sla > 0.0 && relative_sla <= 1.0) return Status::OK();
  return Status::InvalidArgument("relative SLA must be in (0, 1], got " +
                                 std::to_string(relative_sla));
}

Status ValidateTailSla(const TailSla& tail) {
  if (!(tail.percentile == 0.0 ||
        (tail.percentile >= 0.5 && tail.percentile < 1.0))) {
    return Status::InvalidArgument(
        "tail SLA percentile must be 0 or in [0.5, 1), got " +
        std::to_string(tail.percentile));
  }
  if (!(std::isfinite(tail.latency_cv) && tail.latency_cv >= 0.0)) {
    return Status::InvalidArgument(
        "tail SLA latency_cv must be finite and >= 0, got " +
        std::to_string(tail.latency_cv));
  }
  return Status::OK();
}

PerfTargets MakePerfTargets(const WorkloadModel& model, const BoxConfig& box,
                            int num_objects, double relative_sla,
                            const std::vector<double>& io_scale,
                            const TailSla& tail) {
  DOT_CHECK_OK(ValidateRelativeSla(relative_sla));
  PerfTargets targets;
  targets.kind = model.sla_kind();
  targets.relative_sla = relative_sla;
  targets.best_case = model.EstimateWithIoScale(
      UniformPlacement(num_objects, box.MostExpensiveClass()), io_scale);
  if (targets.kind == SlaKind::kPerQueryResponseTime) {
    const bool tighten = tail.percentile > 0.0 && tail.latency_cv > 0.0;
    const double factor =
        tighten ? TailLatencyFactor(tail.percentile, tail.latency_cv) : 1.0;
    targets.query_caps_ms.reserve(targets.best_case.unit_times_ms.size());
    for (double best : targets.best_case.unit_times_ms) {
      // Divide only when tightening: `x / 1.0` is x bitwise, but keeping
      // the untightened expression identical to the historical one makes
      // the no-tail path self-evidently unchanged.
      const double cap = best / relative_sla;
      targets.query_caps_ms.push_back(tighten ? cap / factor : cap);
    }
    if (tighten) {
      targets.tail_percentile = tail.percentile;
      targets.tail_latency_cv = tail.latency_cv;
    }
  } else {
    targets.min_tpmc = targets.best_case.tpmc * relative_sla;
  }
  return targets;
}

double NormalQuantile(double p) {
  DOT_CHECK(p > 0.0 && p < 1.0) << "quantile needs p in (0, 1), got " << p;
  // Acklam's rational approximation to the inverse normal CDF.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double kLow = 0.02425;
  if (p < kLow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > 1.0 - kLow) {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
          a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

double TailLatencyFactor(double percentile, double cv) {
  DOT_CHECK(percentile < 1.0)
      << "tail percentile must be < 1, got " << percentile;
  if (percentile <= 0.5 || cv <= 0.0) return 1.0;
  const double sigma2 = std::log(1.0 + cv * cv);
  const double sigma = std::sqrt(sigma2);
  return std::exp(sigma * NormalQuantile(percentile) - 0.5 * sigma2);
}

double CalibrateLatencyCv(const std::vector<double>& samples) {
  if (samples.size() < 2) return 0.0;
  double sum = 0.0;
  for (double s : samples) sum += s;
  const double mean = sum / static_cast<double>(samples.size());
  if (mean <= 0.0) return 0.0;
  double sq = 0.0;
  for (double s : samples) sq += (s - mean) * (s - mean);
  const double var = sq / static_cast<double>(samples.size() - 1);
  return std::sqrt(var) / mean;
}

bool MeetsTargets(const PerfEstimate& est, const PerfTargets& targets,
                  double tolerance) {
  if (targets.kind == SlaKind::kPerQueryResponseTime) {
    DOT_CHECK(est.unit_times_ms.size() == targets.query_caps_ms.size())
        << "estimate/targets arity mismatch";
    for (size_t i = 0; i < targets.query_caps_ms.size(); ++i) {
      if (est.unit_times_ms[i] > targets.query_caps_ms[i] * (1 + tolerance)) {
        return false;
      }
    }
    return true;
  }
  return est.tpmc >= targets.min_tpmc * (1 - tolerance);
}

double Psr(const PerfEstimate& est, const PerfTargets& targets) {
  if (targets.kind == SlaKind::kThroughput) {
    return MeetsTargets(est, targets) ? 1.0 : 0.0;
  }
  DOT_CHECK(est.unit_times_ms.size() == targets.query_caps_ms.size())
      << "estimate/targets arity mismatch";
  if (targets.query_caps_ms.empty()) return 1.0;
  int met = 0;
  for (size_t i = 0; i < targets.query_caps_ms.size(); ++i) {
    if (est.unit_times_ms[i] <= targets.query_caps_ms[i] * (1 + 1e-9)) ++met;
  }
  return static_cast<double>(met) /
         static_cast<double>(targets.query_caps_ms.size());
}

}  // namespace dot
