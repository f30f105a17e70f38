#ifndef DOTPROV_DOT_LAYOUT_H_
#define DOTPROV_DOT_LAYOUT_H_

#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "storage/pricing.h"
#include "storage/storage_class.h"

namespace dot {

/// A data layout L : O → D (§2.2): an assignment of every database object
/// to one of the box's storage classes.
class Layout {
 public:
  /// `schema` and `box` must outlive the layout. `placement[o]` is the
  /// storage-class index for object o.
  Layout(const Schema* schema, const BoxConfig* box,
         std::vector<int> placement);

  /// Every object on storage class `cls`.
  static Layout Uniform(const Schema* schema, const BoxConfig* box, int cls);

  const std::vector<int>& placement() const { return placement_; }
  const Schema& schema() const { return *schema_; }
  const BoxConfig& box() const { return *box_; }

  int ClassOf(int object_id) const;

  /// S_j per storage class, GB.
  SpaceUsage SpaceByClass() const;

  /// OK iff Σ_{o on d_j} s_o < c_j for every class (§2.2).
  Status CheckCapacity() const;

  /// One-pass capacity accounting, the single source of the fit rule the
  /// candidate-evaluation engine shares with CheckCapacity: `fits` iff
  /// used < c_j on every class, `violation_gb` = Σ_j max(0, S_j - c_j).
  /// (fits can be false while violation_gb == 0: used == c_j exactly.)
  struct CapacityFit {
    bool fits = true;
    double violation_gb = 0.0;
  };
  CapacityFit ComputeCapacityFit() const;

  /// The fit rule applied to an externally computed space vector (`used_gb`
  /// has NumClasses() entries, summed in schema object order). This is the
  /// one implementation of the rule: ComputeCapacityFit delegates here, and
  /// the allocation-free fast path (DotOptimizer::FitAndCost) calls it on
  /// a stack buffer, so both agree bit-for-bit.
  static CapacityFit FitFromSpace(const BoxConfig& box,
                                  const double* used_gb);

  /// Total over-capacity volume Σ_j max(0, S_j - c_j) in GB; 0 iff the
  /// layout fits. Used by the optimizer to march out of an over-full
  /// initial layout (e.g. a capacity-capped premium class, §4.5.3).
  double CapacityViolationGb() const;

  /// C(L) in cents/hour under the chosen cost model.
  double CostCentsPerHour(const CostModelSpec& spec) const;

  /// Per-class object listing, the rendering of Figures 4/6 and Table 3.
  std::string ToString() const;

  bool operator==(const Layout& other) const {
    return placement_ == other.placement_;
  }

 private:
  const Schema* schema_;
  const BoxConfig* box_;
  std::vector<int> placement_;
};

/// True iff `placement` has one entry per object and every entry names a
/// class in [0, num_classes) — the condition the Layout constructor
/// enforces, as a predicate for screens that skip a bad placement.
bool IsValidPlacement(const std::vector<int>& placement, int num_objects,
                      int num_classes);

/// The same check at an input boundary: OK, or InvalidArgument naming
/// `what` (e.g. "current layout"), so callers return a status where the
/// Layout constructor would abort.
Status ValidatePlacement(const std::vector<int>& placement,
                         const Schema& schema, const BoxConfig& box,
                         const std::string& what);

}  // namespace dot

#endif  // DOTPROV_DOT_LAYOUT_H_
