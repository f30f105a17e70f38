#include "workload/trace.h"

#include <cmath>
#include <utility>

#include "workload/scenario.h"

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
    // Entries only: the spec sees no schema, so arity is the caller's.
    Status st = ValidateIoScale(win.io_scale,
                                static_cast<int>(win.io_scale.size()),
                                "window " + std::to_string(w) + " io_scale");
    if (!st.ok()) return st;
  }
  return Status::OK();
}

}  // namespace dot
