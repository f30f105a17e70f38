#ifndef DOTPROV_DOT_DOT_H_
#define DOTPROV_DOT_DOT_H_

/// Umbrella header: the public API of the DOT storage-provisioning library.
///
/// Typical use (see examples/quickstart.cpp):
///   1. Describe the storage subsystem (BoxConfig) — MakeBox1()/MakeBox2()
///      or your own classes with calibrated DeviceModels and prices.
///   2. Describe the database objects (Schema) — MakeTpchSchema(),
///      MakeTpccSchema(), or build your own.
///   3. Describe the workload — a DssWorkloadModel over declarative query
///      templates, an OltpWorkloadModel over transaction footprints, or an
///      HtapWorkload composing both over one shared schema.
///   4. Profile it (Profiler::ProfileWorkload), pick an SLA, and call
///      dot::Solve — SolveSpec picks the engine (heuristic, exact search,
///      epoch planner, fleet planner; see dot/solve.h). The engine classes
///      remain public as internals; Solve is the documented entry point.

#include "advisor/advisor.h"
#include "advisor/drift.h"
#include "advisor/feed.h"
#include "catalog/chbench.h"
#include "catalog/schema.h"
#include "catalog/tpcc_schema.h"
#include "catalog/tpch_schema.h"
#include "common/thread_pool.h"
#include "dot/bnb_search.h"
#include "dot/candidate_evaluator.h"
#include "dot/ensemble.h"
#include "dot/layout.h"
#include "dot/moves.h"
#include "dot/object_advisor.h"
#include "dot/optimizer.h"
#include "dot/problem.h"
#include "dot/provisioner.h"
#include "dot/reprovision.h"
#include "dot/search_stats.h"
#include "dot/simple_layouts.h"
#include "dot/sla.h"
#include "dot/solve.h"
#include "dot/validator.h"
#include "exec/executor.h"
#include "fleet/fleet_planner.h"
#include "exec/trace_replay.h"
#include "io/device_model.h"
#include "io/microbench.h"
#include "query/planner.h"
#include "storage/migration.h"
#include "storage/pricing.h"
#include "storage/standard_catalog.h"
#include "storage/storage_class.h"
#include "workload/dss_workload.h"
#include "workload/htap_workload.h"
#include "workload/oltp_workload.h"
#include "workload/profiler.h"
#include "workload/scenario.h"
#include "workload/tpcc_workload.h"
#include "workload/tpch_queries.h"
#include "workload/trace.h"

#endif  // DOTPROV_DOT_DOT_H_
