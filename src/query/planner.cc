#include "query/planner.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/check.h"
#include "common/units.h"

namespace dot {

/// One costed alternative: the I/O it issues, its time split, its output.
struct Planner::PathCost {
  std::unique_ptr<PlanNode> node;
  double total_ms = 0.0;
};

Planner::Planner(const Schema* schema, const BoxConfig* box,
                 PlannerConfig config)
    : schema_(schema), box_(box), config_(config) {
  DOT_CHECK(schema_ != nullptr && box_ != nullptr);
  DOT_CHECK(config_.concurrency >= 1.0);
  if (config_.temp_object_id >= 0) {
    DOT_CHECK(config_.temp_object_id < schema_->NumObjects())
        << "temp object id out of range";
  }
}

double Planner::ExpectedPagesFetched(double pages, double probes) {
  if (pages <= 0.0 || probes <= 0.0) return 0.0;
  // Below one page the formula's log1p argument drops under -1 (NaN).
  if (pages <= 1.0) return 1.0;
  // Cardenas: P * (1 - (1 - 1/P)^k), numerically stable via expm1/log1p.
  const double log_miss = probes * std::log1p(-1.0 / pages);
  return -pages * std::expm1(log_miss);
}

double Planner::DeviceTimeMs(int object_id, const std::vector<int>& placement,
                             const IoVector& io) const {
  DOT_CHECK(object_id >= 0 &&
            object_id < static_cast<int>(placement.size()));
  const int cls = placement[static_cast<size_t>(object_id)];
  DOT_CHECK(cls >= 0 && cls < box_->NumClasses())
      << "object " << object_id << " placed on invalid class " << cls;
  return box_->classes[static_cast<size_t>(cls)].device().TimeForMs(
      io, config_.concurrency);
}

Planner::PathCost Planner::CostSeqScan(
    const RelationAccess& ra, const std::vector<int>& placement) const {
  const int table_id = schema_->FindObject(ra.table);
  DOT_CHECK(table_id >= 0) << "unknown table " << ra.table;
  const DbObject& table = schema_->object(table_id);

  auto node = std::make_unique<PlanNode>();
  node->op = PlanOp::kSeqScan;
  node->object_id = table_id;
  node->output_rows = table.num_rows * ra.selectivity;

  IoVector table_io;
  table_io[IoType::kSeqRead] = table.pages();
  node->AddIo(table_id, table_io);
  node->io_ms = DeviceTimeMs(table_id, placement, table_io);
  node->cpu_ms = table.num_rows * config_.cpu_ms_per_row;

  PathCost out;
  out.total_ms = node->io_ms + node->cpu_ms;
  out.node = std::move(node);
  return out;
}

Planner::PathCost Planner::CostIndexScan(
    const RelationAccess& ra, const std::vector<int>& placement) const {
  const int table_id = schema_->FindObject(ra.table);
  DOT_CHECK(table_id >= 0) << "unknown table " << ra.table;
  const DbObject& table = schema_->object(table_id);
  const int index_id = schema_->PrimaryIndexOf(table_id);
  DOT_CHECK(index_id >= 0) << ra.table << " has no primary index";
  const DbObject& index = schema_->object(index_id);

  const double matches = std::max(1.0, table.num_rows * ra.selectivity);

  // Index side: one descent plus the contiguous leaf range holding the
  // matches. Leaves of a fresh B+-tree are not physically sequential, so
  // both descent and leaf fetches count as random reads.
  const double entries_per_leaf = table.num_rows / index.leaf_pages;
  const double leaf_pages_touched =
      std::min(index.leaf_pages, std::max(1.0, matches / entries_per_leaf));
  IoVector index_io;
  index_io[IoType::kRandRead] = index.height + leaf_pages_touched;

  // Heap side: the paper shuffles all tables (§4.4), so key order is
  // uncorrelated with heap order; blend a clustered estimate in only when
  // the access declares clustering.
  const double unclustered = ExpectedPagesFetched(table.pages(), matches);
  const double clustered = std::max(1.0, ra.selectivity * table.pages());
  const double heap_pages =
      ra.clustering * clustered + (1.0 - ra.clustering) * unclustered;
  IoVector table_io;
  table_io[IoType::kRandRead] = heap_pages;

  auto node = std::make_unique<PlanNode>();
  node->op = PlanOp::kIndexScan;
  node->object_id = index_id;
  node->output_rows = table.num_rows * ra.selectivity;
  node->AddIo(index_id, index_io);
  node->AddIo(table_id, table_io);
  node->io_ms = DeviceTimeMs(index_id, placement, index_io) +
                DeviceTimeMs(table_id, placement, table_io);
  node->cpu_ms = matches * config_.cpu_ms_per_row;

  PathCost out;
  out.total_ms = node->io_ms + node->cpu_ms;
  out.node = std::move(node);
  return out;
}

Plan Planner::PlanQuery(const QuerySpec& spec,
                        const std::vector<int>& placement) const {
  DOT_CHECK(!spec.relations.empty()) << "query " << spec.name
                                     << " touches no relations";
  DOT_CHECK(spec.joins.size() + 1 == spec.relations.size())
      << "query " << spec.name << ": joins/relations arity mismatch";
  DOT_CHECK(static_cast<int>(placement.size()) == schema_->NumObjects())
      << "placement must cover every object";

  const size_t n_objects = static_cast<size_t>(schema_->NumObjects());
  Plan plan;
  plan.io_by_object.assign(n_objects, IoVector{});

  // --- access path for the driving relation ---
  auto best_access = [&](const RelationAccess& ra) -> PathCost {
    PathCost seq = CostSeqScan(ra, placement);
    if (!ra.index_sargable ||
        schema_->PrimaryIndexOf(schema_->FindObject(ra.table)) < 0) {
      return seq;
    }
    PathCost idx = CostIndexScan(ra, placement);
    return idx.total_ms < seq.total_ms ? std::move(idx) : std::move(seq);
  };

  PathCost pipeline = best_access(spec.relations[0]);
  double pipeline_rows = pipeline.node->output_rows;
  double pipeline_row_bytes =
      schema_->object(schema_->FindObject(spec.relations[0].table)).row_bytes;

  // --- joins, left-deep in template order ---
  for (size_t j = 0; j < spec.joins.size(); ++j) {
    const JoinStep& join = spec.joins[j];
    const RelationAccess& inner_ra = spec.relations[j + 1];
    const int inner_table_id = schema_->FindObject(inner_ra.table);
    DOT_CHECK(inner_table_id >= 0) << "unknown table " << inner_ra.table;
    const DbObject& inner_table = schema_->object(inner_table_id);
    const double out_rows =
        std::max(0.0, pipeline_rows * join.matches_per_outer);

    // Candidate 1: hash join. Build on the inner relation's best access
    // path; spill both sides to temp when the build side exceeds work_mem.
    PathCost hj;
    {
      PathCost inner = best_access(inner_ra);
      auto node = std::make_unique<PlanNode>();
      node->op = PlanOp::kHashJoin;
      node->output_rows = out_rows;
      node->io_ms = 0.0;
      node->cpu_ms =
          (pipeline_rows + inner.node->output_rows) * config_.cpu_ms_per_row;

      const double build_bytes =
          inner.node->output_rows * inner_table.row_bytes;
      const double work_mem_bytes = config_.work_mem_gb * kBytesPerGb;
      if (config_.temp_object_id >= 0 && build_bytes > work_mem_bytes) {
        const double spill_fraction =
            std::clamp(1.0 - work_mem_bytes / build_bytes, 0.0, 1.0);
        const double spill_bytes =
            (build_bytes + pipeline_rows * pipeline_row_bytes) *
            spill_fraction;
        const double spill_pages =
            spill_bytes / static_cast<double>(kPageBytes);
        IoVector temp_io;
        temp_io[IoType::kSeqWrite] =
            spill_bytes / inner_table.row_bytes;  // rows written (per-row SW)
        temp_io[IoType::kSeqRead] = spill_pages;  // read back (per-page SR)
        node->AddIo(config_.temp_object_id, temp_io);
        node->io_ms +=
            DeviceTimeMs(config_.temp_object_id, placement, temp_io);
      }

      hj.total_ms = inner.total_ms + node->io_ms + node->cpu_ms;
      node->children.push_back(nullptr);  // pipeline attached later
      node->children.push_back(std::move(inner.node));
      hj.node = std::move(node);
    }

    // Candidate 2: indexed nested-loop join — probe the inner's primary
    // index once per outer row.
    PathCost inlj;
    const int inner_index_id = schema_->PrimaryIndexOf(inner_table_id);
    const bool inlj_possible = join.inner_indexable && inner_index_id >= 0;
    if (inlj_possible) {
      const DbObject& index = schema_->object(inner_index_id);
      const double probes = std::max(1.0, pipeline_rows);
      const double total_matches = probes * join.matches_per_outer;

      // Leaf fetches: one per probe, capped by distinct-leaf reuse.
      const double leaf_io = ExpectedPagesFetched(index.leaf_pages, probes);
      // Residual descent misses above the leaves (upper levels are hot).
      const double inner_nodes = std::max(1.0, index.leaf_pages / 100.0);
      const double descent_io =
          std::min(probes * (index.height - 1) * config_.descent_cache_factor,
                   inner_nodes);
      IoVector index_io;
      index_io[IoType::kRandRead] = leaf_io + descent_io;

      const double heap_io =
          ExpectedPagesFetched(inner_table.pages(), total_matches);
      IoVector heap_io_vec;
      heap_io_vec[IoType::kRandRead] = heap_io;

      auto node = std::make_unique<PlanNode>();
      node->op = PlanOp::kIndexNLJoin;
      node->object_id = inner_index_id;
      node->output_rows = out_rows;
      node->AddIo(inner_index_id, index_io);
      node->AddIo(inner_table_id, heap_io_vec);
      node->io_ms = DeviceTimeMs(inner_index_id, placement, index_io) +
                    DeviceTimeMs(inner_table_id, placement, heap_io_vec);
      node->cpu_ms =
          (probes + total_matches) * config_.cpu_ms_per_row;
      inlj.total_ms = node->io_ms + node->cpu_ms;
      inlj.node = std::move(node);
    }

    // `total_ms` of each candidate is the *incremental* cost of this join
    // step (for HJ that includes the inner access path); the candidates are
    // compared on equal footing since the outer pipeline cost is common.
    PathCost* chosen = &hj;
    if (inlj_possible && inlj.total_ms < hj.total_ms) chosen = &inlj;

    plan.num_joins += 1;
    if (chosen->node->op == PlanOp::kIndexNLJoin) {
      plan.num_index_nl_joins += 1;
      chosen->node->children.insert(chosen->node->children.begin(), nullptr);
    }
    chosen->node->children[0] = std::move(pipeline.node);
    pipeline.total_ms += chosen->total_ms;
    pipeline.node = std::move(chosen->node);

    pipeline_rows = out_rows;
    pipeline_row_bytes += inner_table.row_bytes;
  }

  // --- optional sort on top (may spill) ---
  if (spec.has_sort && pipeline_rows > 1.0) {
    auto node = std::make_unique<PlanNode>();
    node->op = PlanOp::kSort;
    node->output_rows = pipeline_rows;
    node->cpu_ms = pipeline_rows * std::log2(std::max(2.0, pipeline_rows)) *
                   config_.cpu_ms_per_row * kSortCpuFactor;
    const double sort_bytes = pipeline_rows * pipeline_row_bytes;
    const double work_mem_bytes = config_.work_mem_gb * kBytesPerGb;
    if (config_.temp_object_id >= 0 && sort_bytes > work_mem_bytes) {
      const double spill_pages =
          sort_bytes / static_cast<double>(kPageBytes);
      IoVector temp_io;
      temp_io[IoType::kSeqWrite] = pipeline_rows;
      temp_io[IoType::kSeqRead] = spill_pages;
      node->AddIo(config_.temp_object_id, temp_io);
      node->io_ms = DeviceTimeMs(config_.temp_object_id, placement, temp_io);
    }
    pipeline.total_ms += node->io_ms + node->cpu_ms;
    node->children.push_back(std::move(pipeline.node));
    pipeline.node = std::move(node);
  }

  // --- aggregate / output (CPU only; the paper ignores output cost) ---
  {
    auto node = std::make_unique<PlanNode>();
    node->op = PlanOp::kAggregate;
    node->output_rows = std::max(1.0, pipeline_rows * 0.01);
    node->cpu_ms =
        pipeline_rows * config_.cpu_ms_per_row * spec.cpu_weight;
    pipeline.total_ms += node->cpu_ms;
    node->children.push_back(std::move(pipeline.node));
    pipeline.node = std::move(node);
  }

  // Fold per-node I/O and time into plan totals via a tree walk.
  plan.root = std::move(pipeline.node);
  struct Walker {
    // Node order (pre-order) and per-node entry order are the accumulation
    // schedule; each object has at most one entry per node, so this matches
    // the dense elementwise sum bit for bit.
    static void Walk(const PlanNode& node, Plan& plan) {
      for (const NodeIo& entry : node.io) {
        plan.io_by_object[static_cast<size_t>(entry.object_id)] += entry.io;
      }
      plan.io_ms += node.io_ms;
      plan.cpu_ms += node.cpu_ms;
      for (const auto& child : node.children) {
        if (child != nullptr) Walk(*child, plan);
      }
    }
  };
  Walker::Walk(*plan.root, plan);
  plan.time_ms = plan.io_ms + plan.cpu_ms;
  return plan;
}

}  // namespace dot
