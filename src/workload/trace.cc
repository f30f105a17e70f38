#include "workload/trace.h"

#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/rng.h"

namespace dot {

double WorkloadTraceSpec::TotalHours() const {
  double hours = 0.0;
  for (const TraceWindow& w : windows) hours += w.duration_hours;
  return hours;
}

WorkloadTraceSpec& WorkloadTraceSpec::Add(const WorkloadModel* workload,
                                          double duration_hours,
                                          std::string label,
                                          const WorkloadProfiles* profiles) {
  TraceWindow window;
  window.workload = workload;
  window.duration_hours = duration_hours;
  window.profiles = profiles;
  window.label = std::move(label);
  windows.push_back(std::move(window));
  return *this;
}

double WorkloadTrace::TotalHours() const {
  double hours = 0.0;
  for (const TraceEvent& e : events) hours += e.duration_hours;
  return hours;
}

Status ValidateTraceSpec(const WorkloadTraceSpec& spec) {
  if (spec.windows.empty()) {
    return Status::InvalidArgument("trace spec has no windows");
  }
  if (!(spec.count_noise_cv >= 0.0)) {
    return Status::InvalidArgument("count_noise_cv must be >= 0");
  }
  for (size_t w = 0; w < spec.windows.size(); ++w) {
    const TraceWindow& win = spec.windows[w];
    if (win.workload == nullptr) {
      return Status::InvalidArgument("window " + std::to_string(w) +
                                     " has no workload");
    }
    if (!(win.duration_hours > 0.0) || !std::isfinite(win.duration_hours)) {
      return Status::InvalidArgument("window " + std::to_string(w) +
                                     " has non-positive duration");
    }
    for (double s : win.io_scale) {
      if (!(s >= 0.0) || !std::isfinite(s)) {
        return Status::InvalidArgument("window " + std::to_string(w) +
                                       " has negative or non-finite "
                                       "io_scale");
      }
    }
  }
  return Status::OK();
}

WorkloadTrace RecordTrace(const WorkloadTraceSpec& spec,
                          const MeasureWindowFn& measure) {
  DOT_CHECK(ValidateTraceSpec(spec).ok());
  DOT_CHECK(measure != nullptr);

  // One noise stream for the whole trace, consumed in window order then
  // object order then request-class order: the recording is a pure function
  // of (spec, seed) regardless of how the measurement callback is built.
  Rng rng(spec.seed);
  const double sigma2 =
      std::log(1.0 + spec.count_noise_cv * spec.count_noise_cv);
  const double mu = -0.5 * sigma2;
  const double sigma = std::sqrt(sigma2);

  WorkloadTrace trace;
  trace.events.reserve(spec.windows.size());
  double clock_hours = 0.0;
  for (size_t w = 0; w < spec.windows.size(); ++w) {
    const TraceWindow& win = spec.windows[w];
    PerfEstimate measured = measure(win, static_cast<int>(w));

    TraceEvent event;
    event.window = static_cast<int>(w);
    event.start_hours = clock_hours;
    event.duration_hours = win.duration_hours;
    event.label = win.label;
    event.measured_tasks_per_hour = measured.tasks_per_hour;
    event.io_by_object = std::move(measured.io_by_object);
    if (spec.count_noise_cv > 0.0) {
      for (IoVector& io : event.io_by_object) {
        for (int r = 0; r < kNumIoTypes; ++r) {
          io[static_cast<IoType>(r)] *=
              std::exp(mu + sigma * rng.NextGaussian());
        }
      }
    }
    trace.events.push_back(std::move(event));
    clock_hours += win.duration_hours;
  }
  return trace;
}

}  // namespace dot
