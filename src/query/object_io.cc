#include "query/object_io.h"

#include <vector>

#include "common/check.h"
#include "common/simd_dispatch.h"

namespace dot {

void AccumulateScaledIo(ObjectIoMap& into, const ObjectIoMap& delta,
                        double factor) {
  if (into.size() < delta.size()) into.resize(delta.size());
  for (size_t i = 0; i < delta.size(); ++i) into[i] += delta[i] * factor;
}

double IoTimeShareMs(const ObjectIoMap& io, const std::vector<int>& placement,
                     const BoxConfig& box, double concurrency) {
  DOT_CHECK(io.size() <= placement.size())
      << "placement does not cover all objects";
  // Per-thread buffer of the non-zero per-object times, so the pinned
  // blocked summation schedule (common/simd_dispatch.h) runs over exactly
  // the addends the scalar walk used to accumulate. The fast scorers
  // gather the same per-object times from their SoA planes through the
  // same schedule — that shared schedule is what keeps fast == full
  // bit-identical.
  static thread_local std::vector<double> times;
  times.clear();
  for (size_t o = 0; o < io.size(); ++o) {
    if (io[o].IsZero()) continue;
    const int cls = placement[o];
    DOT_CHECK(cls >= 0 && cls < box.NumClasses())
        << "object " << o << " has invalid placement " << cls;
    times.push_back(box.classes[static_cast<size_t>(cls)].device().TimeForMs(
        io[o], concurrency));
  }
  return BlockedSum(times.data(), static_cast<int>(times.size()));
}

}  // namespace dot
