#ifndef DOTPROV_DOT_SLA_H_
#define DOTPROV_DOT_SLA_H_

#include <vector>

#include "common/status.h"
#include "storage/storage_class.h"
#include "workload/workload.h"

namespace dot {

/// The floating-point tolerance every SLA comparison uses. Named (rather
/// than a scattered literal) because the TOC fast path precomputes
/// tolerance-adjusted thresholds and must apply exactly the factor
/// MeetsTargets applies, or fast and full feasibility verdicts could differ
/// by one ULP.
inline constexpr double kDefaultSlaTolerance = 1e-9;

/// A percentile response-time target riding next to the mean-latency cap:
/// "the p-th percentile of each query's latency must meet the cap", not
/// just its mean. Backed by a lognormal queueing-tail approximation
/// (DESIGN.md §10.4): under multiplicative service jitter at coefficient of
/// variation `latency_cv` (the jittered Executor's noise model), the p-th
/// percentile of a mean-µ latency is µ · TailLatencyFactor(p, cv), so the
/// tail target folds into *tighter mean caps* at target-derivation time and
/// the entire search stack downstream is untouched.
struct TailSla {
  /// Target percentile in [0.5, 1), e.g. 0.95 or 0.99. 0 (default)
  /// disables the tail target — targets are derived exactly as before,
  /// bit for bit.
  double percentile = 0.0;

  /// Coefficient of variation of per-query latency; calibrate with
  /// CalibrateLatencyCv against jittered Executor measurements. cv = 0
  /// makes the tail factor 1 (a deterministic executor has no tail).
  double latency_cv = 0.0;
};

/// Concrete performance targets T = {t_i} (§2.4), derived from a relative
/// SLA: per-query response-time caps for DSS workloads, a tpmC floor for
/// OLTP (§4.3).
struct PerfTargets {
  SlaKind kind = SlaKind::kPerQueryResponseTime;
  double relative_sla = 0.5;

  /// Response-time cap per run-sequence entry: best_time / relative_sla,
  /// divided by the tail factor when a percentile target is set.
  std::vector<double> query_caps_ms;

  /// Throughput floor: best_tpmc * relative_sla.
  double min_tpmc = 0.0;

  /// The best-case estimate the caps were derived from (all objects on the
  /// most expensive class, "typically the highest performing case", §4.3).
  PerfEstimate best_case;

  /// The tail target the caps were tightened by (0 = mean-only targets).
  /// Recorded for reporting; MeetsTargets needs only query_caps_ms.
  double tail_percentile = 0.0;
  double tail_latency_cv = 0.0;
};

/// InvalidArgument unless `relative_sla` ∈ (0, 1] (NaN fails): the
/// caller-facing form of MakePerfTargets' precondition.
Status ValidateRelativeSla(double relative_sla);

/// InvalidArgument unless `tail.percentile` is 0 (no tail target) or in
/// [0.5, 1), and `tail.latency_cv` is finite and >= 0 (NaN fails either):
/// the caller-facing form of TailLatencyFactor's precondition.
Status ValidateTailSla(const TailSla& tail);

/// Derives targets for `model` on `box` at `relative_sla` ∈ (0, 1]: the
/// best case is measured with every object on the box's most expensive
/// storage class. `io_scale` (if non-empty) applies the refinement phase's
/// per-object corrections so the baseline reflects the workload's actual
/// I/O behaviour. When `tail.percentile` > 0 and the model is
/// response-time-bound, every cap is divided by TailLatencyFactor so that
/// a layout whose *mean* meets the tightened cap has its p-th percentile
/// meet the original cap under the calibrated jitter; throughput (tpmC)
/// targets are unaffected.
PerfTargets MakePerfTargets(const WorkloadModel& model, const BoxConfig& box,
                            int num_objects, double relative_sla,
                            const std::vector<double>& io_scale = {},
                            const TailSla& tail = {});

/// Standard normal quantile z_p for p ∈ (0, 1) (Acklam's rational
/// approximation, |relative error| < 1.2e-9 — far below the SLA
/// tolerance). Deterministic, dependency-free.
double NormalQuantile(double p);

/// Percentile-to-mean latency ratio under unit-mean lognormal jitter at
/// coefficient of variation `cv`: with σ² = ln(1 + cv²), the p-th
/// percentile of a mean-µ lognormal is µ · exp(σ·z_p − σ²/2). Returns
/// exactly 1.0 when percentile ≤ 0.5 or cv ≤ 0 (no tightening), so a
/// default-constructed TailSla changes nothing bit for bit. Aborts when
/// percentile ≥ 1.
double TailLatencyFactor(double percentile, double cv);

/// Calibrates TailSla::latency_cv from measured per-query latencies (e.g.
/// one jittered Executor run per sample): sample stddev / sample mean.
/// Returns 0 for fewer than two samples or a non-positive mean.
double CalibrateLatencyCv(const std::vector<double>& samples);

/// True iff `est` meets every target: all response-time caps (DSS) or the
/// tpmC floor (OLTP). A small tolerance absorbs floating-point noise.
bool MeetsTargets(const PerfEstimate& est, const PerfTargets& targets,
                  double tolerance = kDefaultSlaTolerance);

/// Performance satisfaction ratio (§4.3): the fraction of queries meeting
/// their caps. For throughput workloads this is 1.0 or 0.0 ("the throughput
/// performance itself serves as such an indicator").
double Psr(const PerfEstimate& est, const PerfTargets& targets);

}  // namespace dot

#endif  // DOTPROV_DOT_SLA_H_
