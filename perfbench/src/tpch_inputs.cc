#include "tpch_inputs.h"

#include "catalog/tpch_schema.h"
#include "storage/standard_catalog.h"
#include "workload/tpch_queries.h"

namespace perfbench {

dot::DotProblem TpchInstance::Problem(double relative_sla) const {
  dot::DotProblem problem;
  problem.schema = &schema;
  problem.box = &box;
  problem.workload = model.get();
  problem.relative_sla = relative_sla;
  problem.profiles = profiles.get();
  problem.options.num_threads = 1;
  return problem;
}

std::unique_ptr<TpchInstance> MakeTpchInstance(int box_index, bool modified,
                                               double hdd_cap_gb,
                                               Tracer* tracer) {
  auto inst = std::make_unique<TpchInstance>();
  inst->box = Traced(tracer, "storage.MakeBox", [&] {
    return box_index == 1 ? dot::MakeBox1() : dot::MakeBox2();
  });
  if (hdd_cap_gb > 0) inst->box.classes[0].set_capacity_gb(hdd_cap_gb);
  inst->schema = Traced(tracer, "catalog.MakeTpchSchema",
                        [] { return dot::MakeTpchSchema(20.0); });
  inst->model = Traced(tracer, "workload.DssWorkloadModel", [&] {
    return std::make_unique<dot::DssWorkloadModel>(
        "TPC-H", &inst->schema, &inst->box,
        modified ? dot::MakeModifiedTpchTemplates()
                 : dot::MakeTpchTemplates(),
        modified ? dot::RepeatSequence(5, 20) : dot::RepeatSequence(22, 3),
        dot::PlannerConfig{});
  });
  // Profiling phase, §3.4 option (a): the extended optimizer's estimates.
  const dot::DssWorkloadModel& model = *inst->model;
  inst->profiles = Traced(tracer, "workload.Profiler::ProfileWorkload", [&] {
    const dot::Profiler profiler(&inst->schema, &inst->box);
    return std::make_unique<dot::WorkloadProfiles>(profiler.ProfileWorkload(
        model, [&](const std::vector<int>& p) { return model.Estimate(p); }));
  });
  return inst;
}

}  // namespace perfbench
