#ifndef DOTPROV_COMMON_SIMD_DISPATCH_H_
#define DOTPROV_COMMON_SIMD_DISPATCH_H_

namespace dot {

/// Instruction-set level of the summation kernels (DESIGN.md §13). There is
/// one implementation of the pinned schedule, so the level is always
/// kScalar; the enum stays so level-reporting callers keep a stable value.
enum class KernelLevel {
  kScalar = 0,
};

/// The level the kernels run at: always kScalar.
inline KernelLevel ActiveKernelLevel() { return KernelLevel::kScalar; }

/// Inputs shorter than this are summed left to right instead of through the
/// blocked schedule: tiny sums gain nothing from lanes, and the sequential
/// order keeps small-instance expectations (hand-summed in tests) stable.
inline constexpr int kBlockedSumThreshold = 8;

/// The summation kernels behind the fast scorers and bound cursors. Each
/// executes the *pinned blocked schedule*:
///
///   n <  kBlockedSumThreshold:  total = ((x0 + x1) + x2) + ...
///   n >= kBlockedSumThreshold:  four lanes acc[j] += x[4k + j] over the
///       largest multiple of 4, tail elements folded into lanes 0..r-1 in
///       order, reduced as (acc0 + acc2) + (acc1 + acc3).
///
/// The schedule is the contract: the fast == full bit-identity proof is
/// made against it, and the result never depends on the machine.

/// Σ x[i] for i in [0, n) under the pinned schedule.
double BlockedSum(const double* x, int n);

/// Σ values[idx[i]] for i in [0, n) under the pinned schedule.
double GatherSum(const double* values, const int* idx, int n);

/// Σ plane[placement[objects[i]] * n + i] for i in [0, n) under the pinned
/// schedule — the SoA scoring primitive: `plane` holds one contiguous row
/// of per-row times per storage class, `n` is the row count, and the class
/// picked for row i's object selects the plane.
double PlaneGatherSum(const double* plane, const int* objects,
                      const int* placement, int n);

/// The three kernels as a table, for callers that probe them by pointer.
struct KernelOps {
  double (*sum)(const double* x, int n);
  double (*gather_sum)(const double* values, const int* idx, int n);
  double (*plane_gather_sum)(const double* plane, const int* objects,
                             const int* placement, int n);
};

/// The constant kernel table over BlockedSum, GatherSum and PlaneGatherSum.
const KernelOps& Kernels();

}  // namespace dot

#endif  // DOTPROV_COMMON_SIMD_DISPATCH_H_
