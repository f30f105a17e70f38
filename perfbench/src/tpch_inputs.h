// TPC-H provisioning instances built from the library's public builders:
// the full 16-object schema at scale factor 20, one box, the DSS model and
// its §3.4 profiles. Shared by the tpch-exact and tpch-pipeline workloads.
#ifndef PERFBENCH_TPCH_INPUTS_H_
#define PERFBENCH_TPCH_INPUTS_H_

#include <memory>
#include <vector>

#include "catalog/schema.h"
#include "dot/problem.h"
#include "harness.h"
#include "storage/storage_class.h"
#include "workload/dss_workload.h"
#include "workload/profiler.h"

namespace perfbench {

struct TpchInstance {
  dot::Schema schema;
  dot::BoxConfig box;
  std::unique_ptr<dot::DssWorkloadModel> model;
  std::unique_ptr<dot::WorkloadProfiles> profiles;

  /// The §2.5 problem at `relative_sla`, single-threaded.
  dot::DotProblem Problem(double relative_sla) const;
};

/// Box 1 or 2; `modified` selects the 5 x 20 selective templates instead
/// of 22 x 3; `hdd_cap_gb` > 0 caps the box's HDD-class capacity.
std::unique_ptr<TpchInstance> MakeTpchInstance(int box_index, bool modified,
                                               double hdd_cap_gb,
                                               Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_TPCH_INPUTS_H_
