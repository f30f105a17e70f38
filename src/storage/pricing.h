#ifndef DOTPROV_STORAGE_PRICING_H_
#define DOTPROV_STORAGE_PRICING_H_

#include <vector>

#include "storage/storage_class.h"

namespace dot {

/// Amortized storage price in cents/GB/hour (§2.1): purchase cost spread
/// over 36 months plus run-time energy at $0.07/kWh, divided by capacity.
double PriceCentsPerGbHour(double purchase_cost_cents, double power_watts,
                           double capacity_gb);

/// Price of a RAID-0 group of `num_devices` identical devices plus the
/// controller (§4.1: $110 Dell SAS6/iR drawing 8.25 W).
double Raid0PriceCentsPerGbHour(const DeviceSpec& device, int num_devices,
                                double controller_cost_cents,
                                double controller_watts);

/// Space usage per storage class, S_j in GB (§2.1).
using SpaceUsage = std::vector<double>;

/// Linear layout cost (§2.1): C(L) = Σ_j p_j · S_j, in cents/hour.
double LinearLayoutCostCentsPerHour(const BoxConfig& box,
                                    const SpaceUsage& used_gb);

/// Span form of the linear cost: `used_gb` points at NumClasses() entries.
/// The vector overload delegates here, so both run the same summation and
/// agree bit-for-bit — the contract the allocation-free TOC fast path
/// (dot/optimizer.h) relies on when it prices candidates from a
/// stack buffer instead of a SpaceUsage vector.
double LinearLayoutCostCentsPerHour(const BoxConfig& box,
                                    const double* used_gb, int num_classes);

/// Discrete-sized layout cost (§5.2):
///   C(L) = Σ_j [ α·(p_j·c_j·n_j) + (1-α)·p_j·S_j ]
/// where n_j = ceil(S_j / c_j) is the number of discrete units of class j the
/// layout occupies (0 units ⇒ the device need not be bought at all). α=0
/// recovers the linear model; α=1 charges for whole devices only.
double DiscreteLayoutCostCentsPerHour(const BoxConfig& box,
                                      const SpaceUsage& used_gb, double alpha);

/// Span form of the discrete cost (same bit-for-bit contract as the linear
/// span form).
double DiscreteLayoutCostCentsPerHour(const BoxConfig& box,
                                      const double* used_gb, int num_classes,
                                      double alpha);

/// Workload cost, i.e. the TOC (§2.1/§2.3): layout cost (cents/hour) times
/// workload execution time, yielding cents per workload execution.
double WorkloadTocCents(double layout_cost_cents_per_hour, double elapsed_ms);

struct CostModelSpec;

/// Guaranteed marginal cost of placing one `size_gb` object on *any* class:
/// min_j p_j·s for the linear model, (1-α)·min_j p_j·s for the discrete one
/// (its step component can be absorbed entirely by space already charged,
/// so only the linear blend is guaranteed). The per-object floor of the
/// branch-and-bound search's completion-cost bound (DESIGN.md §5).
double MinObjectCostCentsPerHour(const BoxConfig& box, double size_gb,
                                 const CostModelSpec& spec);

/// Admissible completion-cost lower bound of a partial placement: the span
/// cost of the space assigned so far plus `remaining_min_cost_cents`, the
/// pre-summed MinObjectCostCentsPerHour of the unassigned objects. Both
/// cost models are monotone in per-class space, so every completion of the
/// partial placement costs at least this much (in real arithmetic — the
/// caller compares through a kBoundSafety margin).
double CompletionCostLowerBoundCentsPerHour(const BoxConfig& box,
                                            const double* used_gb,
                                            int num_classes,
                                            double remaining_min_cost_cents,
                                            const CostModelSpec& spec);

/// Which layout-cost model a DOT run charges: the paper's default linear
/// model (§2.1) or the discrete-sized extension (§5.2) with its α blend.
struct CostModelSpec {
  bool discrete = false;
  double alpha = 0.5;  ///< weight of the discrete component; ignored if linear
};

/// Dispatches to the linear or discrete layout cost.
double LayoutCostCentsPerHour(const BoxConfig& box, const SpaceUsage& used_gb,
                              const CostModelSpec& spec);

/// Span form of the dispatch.
double LayoutCostCentsPerHour(const BoxConfig& box, const double* used_gb,
                              int num_classes, const CostModelSpec& spec);

}  // namespace dot

#endif  // DOTPROV_STORAGE_PRICING_H_
