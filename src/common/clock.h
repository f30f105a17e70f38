#ifndef DOTPROV_COMMON_CLOCK_H_
#define DOTPROV_COMMON_CLOCK_H_

#include <chrono>

namespace dot {

/// Monotonic wall clock in milliseconds, the one clock behind every
/// engine's `*_ms` field. Only differences are meaningful.
inline double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace dot

#endif  // DOTPROV_COMMON_CLOCK_H_
