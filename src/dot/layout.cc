#include "dot/layout.h"

#include <sstream>
#include <string>

#include "common/check.h"
#include "common/str_util.h"

namespace dot {

Layout::Layout(const Schema* schema, const BoxConfig* box,
               std::vector<int> placement)
    : schema_(schema), box_(box), placement_(std::move(placement)) {
  DOT_CHECK(schema_ != nullptr && box_ != nullptr);
  DOT_CHECK(static_cast<int>(placement_.size()) == schema_->NumObjects())
      << "layout must place every object";
  for (int cls : placement_) {
    DOT_CHECK(cls >= 0 && cls < box_->NumClasses())
        << "invalid storage class " << cls;
  }
}

Layout Layout::Uniform(const Schema* schema, const BoxConfig* box, int cls) {
  DOT_CHECK(schema != nullptr && box != nullptr);
  return Layout(schema, box,
                std::vector<int>(static_cast<size_t>(schema->NumObjects()),
                                 cls));
}

int Layout::ClassOf(int object_id) const {
  DOT_CHECK(object_id >= 0 &&
            object_id < static_cast<int>(placement_.size()));
  return placement_[static_cast<size_t>(object_id)];
}

SpaceUsage Layout::SpaceByClass() const {
  SpaceUsage used(static_cast<size_t>(box_->NumClasses()), 0.0);
  // Flat-array scan in object-id order — the same per-class accumulation
  // order as iterating the DbObject records, so the sums are bit-identical.
  const std::vector<double>& sizes = schema_->sizes_gb();
  const int* placement = placement_.data();
  for (size_t i = 0; i < sizes.size(); ++i) {
    used[static_cast<size_t>(placement[i])] += sizes[i];
  }
  return used;
}

Status Layout::CheckCapacity() const {
  // The pass/fail verdict comes from ComputeCapacityFit — the one place
  // the fit rule lives; this function only adds the error message.
  if (ComputeCapacityFit().fits) return Status::OK();
  const SpaceUsage used = SpaceByClass();
  for (int j = 0; j < box_->NumClasses(); ++j) {
    const StorageClass& sc = box_->classes[static_cast<size_t>(j)];
    if (used[static_cast<size_t>(j)] >= sc.capacity_gb()) {
      return Status::CapacityExceeded(StrPrintf(
          "%s: %.2f GB placed, capacity %.2f GB", sc.name().c_str(),
          used[static_cast<size_t>(j)], sc.capacity_gb()));
    }
  }
  return Status::CapacityExceeded("over capacity");  // unreachable
}

Layout::CapacityFit Layout::ComputeCapacityFit() const {
  const SpaceUsage used = SpaceByClass();
  return FitFromSpace(*box_, used.data());
}

Layout::CapacityFit Layout::FitFromSpace(const BoxConfig& box,
                                         const double* used_gb) {
  CapacityFit fit;
  for (int j = 0; j < box.NumClasses(); ++j) {
    const double capacity = box.classes[static_cast<size_t>(j)].capacity_gb();
    if (used_gb[j] >= capacity) fit.fits = false;
    const double over = used_gb[j] - capacity;
    if (over > 0.0) fit.violation_gb += over;
  }
  return fit;
}

double Layout::CapacityViolationGb() const {
  return ComputeCapacityFit().violation_gb;
}

double Layout::CostCentsPerHour(const CostModelSpec& spec) const {
  return LayoutCostCentsPerHour(*box_, SpaceByClass(), spec);
}

std::string Layout::ToString() const {
  std::ostringstream out;
  const SpaceUsage used = SpaceByClass();
  for (int j = 0; j < box_->NumClasses(); ++j) {
    const StorageClass& sc = box_->classes[static_cast<size_t>(j)];
    out << StrPrintf("%-14s (%6.2f GB): ", sc.name().c_str(),
                     used[static_cast<size_t>(j)]);
    bool first = true;
    for (const DbObject& o : schema_->objects()) {
      if (placement_[static_cast<size_t>(o.id)] != j) continue;
      if (!first) out << ", ";
      out << o.name;
      first = false;
    }
    if (first) out << "(empty)";
    out << "\n";
  }
  return out.str();
}

bool IsValidPlacement(const std::vector<int>& placement, int num_objects,
                      int num_classes) {
  if (static_cast<int>(placement.size()) != num_objects) return false;
  for (int cls : placement) {
    if (cls < 0 || cls >= num_classes) return false;
  }
  return true;
}

Status ValidatePlacement(const std::vector<int>& placement,
                         const Schema& schema, const BoxConfig& box,
                         const std::string& what) {
  if (IsValidPlacement(placement, schema.NumObjects(), box.NumClasses())) {
    return Status::OK();
  }
  return Status::InvalidArgument(
      what + " must place each of the " +
      std::to_string(schema.NumObjects()) + " schema objects on one of the " +
      std::to_string(box.NumClasses()) + " storage classes");
}

}  // namespace dot
