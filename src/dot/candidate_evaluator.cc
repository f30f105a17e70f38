#include "dot/candidate_evaluator.h"

#include <string>

#include "common/check.h"

namespace dot {

bool BetterCandidate(double toc_a, const std::vector<int>& placement_a,
                     double toc_b, const std::vector<int>& placement_b) {
  if (toc_a != toc_b) return toc_a < toc_b;
  return placement_a < placement_b;
}

long long LayoutSpaceSize(int num_classes, int num_objects) {
  DOT_CHECK(num_classes >= 1 && num_objects >= 0);
  long long total = 1;
  for (int o = 0; o < num_objects; ++o) {
    if (total > kLayoutSpaceSaturated / num_classes) {
      return kLayoutSpaceSaturated;
    }
    total *= num_classes;
  }
  return total;
}

std::vector<int> DecodeLayoutIndex(long long index, int num_objects,
                                   int num_classes) {
  DOT_CHECK(index >= 0 && num_objects >= 0 && num_classes >= 1);
  std::vector<int> placement(static_cast<size_t>(num_objects), 0);
  for (int o = 0; o < num_objects && index != 0; ++o) {
    placement[static_cast<size_t>(o)] = static_cast<int>(index % num_classes);
    index /= num_classes;
  }
  DOT_CHECK(index == 0) << "layout index out of range for the M^N space";
  return placement;
}

Result<long long> GuardedLayoutSpaceSize(int num_objects, int num_classes,
                                         long long max_layouts) {
  const long long space = LayoutSpaceSize(num_classes, num_objects);
  if (space == kLayoutSpaceSaturated || space > max_layouts) {
    return Status::OutOfRange(
        "layout space " + std::to_string(num_classes) + "^" +
        std::to_string(num_objects) + " exceeds the cap of " +
        std::to_string(max_layouts) + " layouts");
  }
  return space;
}

Result<std::vector<std::vector<int>>> EnumerateLayoutSpace(
    int num_objects, int num_classes, long long max_layouts) {
  DOT_ASSIGN_OR_RETURN(
      const long long space,
      GuardedLayoutSpaceSize(num_objects, num_classes, max_layouts));
  std::vector<std::vector<int>> layouts;
  layouts.reserve(static_cast<size_t>(space));
  for (long long idx = 0; idx < space; ++idx) {
    layouts.push_back(DecodeLayoutIndex(idx, num_objects, num_classes));
  }
  return layouts;
}

}  // namespace dot
