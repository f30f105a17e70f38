#include "common/simd_dispatch.h"

namespace dot {

double BlockedSum(const double* x, int n) {
  if (n < kBlockedSumThreshold) {
    double total = 0.0;
    for (int i = 0; i < n; ++i) total += x[i];
    return total;
  }
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  const int n4 = n & ~3;
  for (int i = 0; i < n4; i += 4) {
    acc0 += x[i];
    acc1 += x[i + 1];
    acc2 += x[i + 2];
    acc3 += x[i + 3];
  }
  double lanes[4] = {acc0, acc1, acc2, acc3};
  for (int i = n4; i < n; ++i) lanes[i - n4] += x[i];
  return (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
}

double GatherSum(const double* values, const int* idx, int n) {
  if (n < kBlockedSumThreshold) {
    double total = 0.0;
    for (int i = 0; i < n; ++i) total += values[idx[i]];
    return total;
  }
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  const int n4 = n & ~3;
  for (int i = 0; i < n4; i += 4) {
    acc0 += values[idx[i]];
    acc1 += values[idx[i + 1]];
    acc2 += values[idx[i + 2]];
    acc3 += values[idx[i + 3]];
  }
  double lanes[4] = {acc0, acc1, acc2, acc3};
  for (int i = n4; i < n; ++i) lanes[i - n4] += values[idx[i]];
  return (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
}

double PlaneGatherSum(const double* plane, const int* objects,
                      const int* placement, int n) {
  if (n < kBlockedSumThreshold) {
    double total = 0.0;
    for (int i = 0; i < n; ++i) total += plane[placement[objects[i]] * n + i];
    return total;
  }
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  const int n4 = n & ~3;
  for (int i = 0; i < n4; i += 4) {
    acc0 += plane[placement[objects[i]] * n + i];
    acc1 += plane[placement[objects[i + 1]] * n + i + 1];
    acc2 += plane[placement[objects[i + 2]] * n + i + 2];
    acc3 += plane[placement[objects[i + 3]] * n + i + 3];
  }
  double lanes[4] = {acc0, acc1, acc2, acc3};
  for (int i = n4; i < n; ++i)
    lanes[i - n4] += plane[placement[objects[i]] * n + i];
  return (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
}

const KernelOps& Kernels() {
  static constexpr KernelOps kOps = {BlockedSum, GatherSum, PlaneGatherSum};
  return kOps;
}

}  // namespace dot
