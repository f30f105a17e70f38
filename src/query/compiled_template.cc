#include "query/compiled_template.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

#include "common/check.h"
#include "common/simd_dispatch.h"
#include "common/units.h"

namespace dot {

namespace {

/// Run() records each join's method in one 64-bit mask.
constexpr size_t kMaxJoins = 64;

/// The largest footprint: a table and its primary index per relation, and
/// the temp object.
constexpr size_t kMaxFootprint = 2 * (kMaxJoins + 1) + 1;

/// DeviceModel::TimeForMs on one hoisted latency row: count × latency over
/// the non-zero counts, in type order.
double DeviceTimeMs(const IoVector& io, const IoVector& latency) {
  double total = 0.0;
  for (IoType t : kAllIoTypes) {
    if (io[t] != 0.0) total += io[t] * latency[t];
  }
  return total;
}

/// A device whose latency anchors are, per I/O type and concurrency anchor,
/// the minimum over the box's classes.
DeviceModel OptimisticDevice(const BoxConfig& box) {
  std::array<LatencyAnchors, kNumIoTypes> min_anchors{};
  for (int i = 0; i < kNumIoTypes; ++i) {
    const IoType type = static_cast<IoType>(i);
    LatencyAnchors a = box.classes[0].device().anchors(type);
    for (const StorageClass& sc : box.classes) {
      const LatencyAnchors& b = sc.device().anchors(type);
      a.at_c1_ms = std::min(a.at_c1_ms, b.at_c1_ms);
      a.at_c300_ms = std::min(a.at_c300_ms, b.at_c300_ms);
    }
    min_anchors[static_cast<size_t>(i)] = a;
  }
  return DeviceModel("optimistic", min_anchors);
}

}  // namespace

std::vector<CompiledTemplate> CompiledTemplate::Compile(
    const Schema& schema, const BoxConfig& box, const PlannerConfig& config,
    const std::vector<QuerySpec>& templates) {
  DOT_CHECK(box.NumClasses() > 0);
  DOT_CHECK(config.concurrency >= 1.0);
  DOT_CHECK(config.temp_object_id < schema.NumObjects())
      << "temp object id out of range";
  // The latencies DeviceModel::TimeForMs reads, hoisted out of every
  // entry's time: one row per class, then the optimistic device.
  const DeviceModel optimistic = OptimisticDevice(box);
  std::vector<IoVector> latency(box.classes.size() + 1);
  for (size_t c = 0; c < latency.size(); ++c) {
    const DeviceModel& device =
        c < box.classes.size() ? box.classes[c].device() : optimistic;
    for (IoType t : kAllIoTypes) {
      latency[c][t] = device.LatencyMs(t, config.concurrency);
    }
  }
  std::vector<CompiledTemplate> compiled;
  compiled.reserve(templates.size());
  for (const QuerySpec& spec : templates) {
    compiled.push_back(CompiledTemplate(schema, latency, config, spec));
  }
  return compiled;
}

// Every quantity below is computed by the same expression, in the same
// order, as in Planner::PlanQuery; query_compiled_template_test pins the
// two bit for bit.
CompiledTemplate::CompiledTemplate(const Schema& schema,
                                   const std::vector<IoVector>& latency,
                                   const PlannerConfig& config,
                                   const QuerySpec& spec) {
  DOT_CHECK(!spec.relations.empty())
      << "query " << spec.name << " touches no relations";
  DOT_CHECK(spec.joins.size() + 1 == spec.relations.size())
      << "query " << spec.name << ": joins/relations arity mismatch";
  DOT_CHECK(spec.joins.size() <= kMaxJoins)
      << "query " << spec.name << " has more than " << kMaxJoins << " joins";

  const double work_mem_bytes = config.work_mem_gb * kBytesPerGb;
  const bool spills = config.temp_object_id >= 0;
  // At most three entries per relation (seq scan, index scan) and per join
  // (spill, INLJ), plus the sort's spill.
  entries_.reserve(3 * (spec.relations.size() + spec.joins.size()) + 1);
  joins_.reserve(spec.joins.size());
  footprint_.reserve(2 * spec.relations.size() + 1);

  const int first_table_id = ResolveTable(schema, spec.relations[0].table);
  first_ = CompileAccess(schema, config, spec.relations[0], first_table_id);
  const DbObject& first_table = schema.object(first_table_id);
  double pipeline_rows = first_table.num_rows * spec.relations[0].selectivity;
  double pipeline_row_bytes = first_table.row_bytes;

  for (size_t j = 0; j < spec.joins.size(); ++j) {
    const JoinStep& step = spec.joins[j];
    const RelationAccess& inner_ra = spec.relations[j + 1];
    const int inner_table_id = ResolveTable(schema, inner_ra.table);
    Join join;
    join.inner = CompileAccess(schema, config, inner_ra, inner_table_id);
    const DbObject& inner_table = schema.object(inner_table_id);
    const double out_rows =
        std::max(0.0, pipeline_rows * step.matches_per_outer);

    // Hash join: CPU over both inputs; spill to temp past work_mem.
    const double inner_rows = inner_table.num_rows * inner_ra.selectivity;
    join.hj_cpu_ms = (pipeline_rows + inner_rows) * config.cpu_ms_per_row;
    const double build_bytes = inner_rows * inner_table.row_bytes;
    if (spills && build_bytes > work_mem_bytes) {
      const double spill_fraction =
          std::clamp(1.0 - work_mem_bytes / build_bytes, 0.0, 1.0);
      const double spill_bytes =
          (build_bytes + pipeline_rows * pipeline_row_bytes) * spill_fraction;
      IoVector temp_io;
      temp_io[IoType::kSeqWrite] = spill_bytes / inner_table.row_bytes;
      temp_io[IoType::kSeqRead] = spill_bytes / static_cast<double>(kPageBytes);
      join.spill = AddEntry(config.temp_object_id, temp_io);
    }

    // Indexed nested-loop join: one probe of the inner's index per outer row.
    const int inner_index_id = schema.PrimaryIndexOf(inner_table_id);
    if (step.inner_indexable && inner_index_id >= 0) {
      const DbObject& index = schema.object(inner_index_id);
      const double probes = std::max(1.0, pipeline_rows);
      const double total_matches = probes * step.matches_per_outer;
      const double leaf_io =
          Planner::ExpectedPagesFetched(index.leaf_pages, probes);
      const double inner_nodes = std::max(1.0, index.leaf_pages / 100.0);
      const double descent_io =
          std::min(probes * (index.height - 1) * config.descent_cache_factor,
                   inner_nodes);
      IoVector index_io;
      index_io[IoType::kRandRead] = leaf_io + descent_io;
      IoVector heap_io;
      heap_io[IoType::kRandRead] =
          Planner::ExpectedPagesFetched(inner_table.pages(), total_matches);
      join.inlj = AddEntry(inner_index_id, index_io);
      AddEntry(inner_table_id, heap_io);
      join.inlj_cpu_ms = (probes + total_matches) * config.cpu_ms_per_row;
    }
    joins_.push_back(join);

    pipeline_rows = out_rows;
    pipeline_row_bytes += inner_table.row_bytes;
  }

  has_sort_ = spec.has_sort && pipeline_rows > 1.0;
  if (has_sort_) {
    sort_cpu_ms_ = pipeline_rows * std::log2(std::max(2.0, pipeline_rows)) *
                   config.cpu_ms_per_row * kSortCpuFactor;
    const double sort_bytes = pipeline_rows * pipeline_row_bytes;
    if (spills && sort_bytes > work_mem_bytes) {
      IoVector temp_io;
      temp_io[IoType::kSeqWrite] = pipeline_rows;
      temp_io[IoType::kSeqRead] = sort_bytes / static_cast<double>(kPageBytes);
      sort_spill_ = AddEntry(config.temp_object_id, temp_io);
    }
  }
  agg_cpu_ms_ = pipeline_rows * config.cpu_ms_per_row * spec.cpu_weight;

  if (spills) footprint_.push_back(config.temp_object_id);
  std::sort(footprint_.begin(), footprint_.end());
  footprint_.erase(std::unique(footprint_.begin(), footprint_.end()),
                   footprint_.end());

  // The device-time table: each entry's DeviceModel::TimeForMs on every
  // column.
  latency_ = latency;
  stride_ = static_cast<int>(latency.size());
  times_.reserve(entries_.size() * latency.size());
  for (const Entry& entry : entries_) {
    for (const IoVector& lat : latency) {
      const double total = DeviceTimeMs(entry.io, lat);
      DOT_CHECK(std::isfinite(total))
          << "query " << spec.name << " has a non-finite device time";
      times_.push_back(total);
    }
  }
}

int CompiledTemplate::ResolveTable(const Schema& schema,
                                   const std::string& name) {
  const int table_id = schema.FindObject(name);
  DOT_CHECK(table_id >= 0) << "unknown table " << name;
  footprint_.push_back(table_id);
  const int index_id = schema.PrimaryIndexOf(table_id);
  if (index_id >= 0) footprint_.push_back(index_id);
  return table_id;
}

int CompiledTemplate::AddEntry(int object_id, const IoVector& io) {
  entries_.push_back(Entry{object_id, io});
  return static_cast<int>(entries_.size()) - 1;
}

CompiledTemplate::Access CompiledTemplate::CompileAccess(
    const Schema& schema, const PlannerConfig& config,
    const RelationAccess& ra, int table_id) {
  const DbObject& table = schema.object(table_id);

  Access a;
  IoVector seq_io;
  seq_io[IoType::kSeqRead] = table.pages();
  a.seq = AddEntry(table_id, seq_io);
  a.seq_cpu_ms = table.num_rows * config.cpu_ms_per_row;

  const int index_id = schema.PrimaryIndexOf(table_id);
  if (!ra.index_sargable || index_id < 0) return a;
  const DbObject& index = schema.object(index_id);
  const double matches = std::max(1.0, table.num_rows * ra.selectivity);
  const double entries_per_leaf = table.num_rows / index.leaf_pages;
  const double leaf_pages_touched =
      std::min(index.leaf_pages, std::max(1.0, matches / entries_per_leaf));
  IoVector index_io;
  index_io[IoType::kRandRead] = index.height + leaf_pages_touched;
  const double unclustered =
      Planner::ExpectedPagesFetched(table.pages(), matches);
  const double clustered = std::max(1.0, ra.selectivity * table.pages());
  IoVector heap_io;
  heap_io[IoType::kRandRead] =
      ra.clustering * clustered + (1.0 - ra.clustering) * unclustered;
  a.idx = AddEntry(index_id, index_io);
  AddEntry(table_id, heap_io);
  a.idx_cpu_ms = matches * config.cpu_ms_per_row;
  return a;
}

template <class EntryTime>
CompiledTemplate::AccessChoice CompiledTemplate::Choose(
    const Access& a, const EntryTime& time) const {
  AccessChoice seq;
  seq.io_ms = time(a.seq);
  seq.cpu_ms = a.seq_cpu_ms;
  seq.total_ms = seq.io_ms + seq.cpu_ms;
  seq.entry = a.seq;
  seq.num_entries = 1;
  if (a.idx < 0) return seq;
  AccessChoice idx;
  idx.io_ms = time(a.idx) + time(a.idx + 1);
  idx.cpu_ms = a.idx_cpu_ms;
  idx.total_ms = idx.io_ms + idx.cpu_ms;
  idx.entry = a.idx;
  idx.num_entries = 2;
  return idx.total_ms < seq.total_ms ? idx : seq;
}

// Kept out of line: inlined into Walk, it made Run about 1.6x slower
// under GCC -O3 on x86-64 (32 -> 50 ns per run over the full TPC-H
// templates on Box 1).
template <class EntryTime>
[[gnu::noinline]] bool CompiledTemplate::ChoosesInlj(
    const Join& join, const EntryTime& time) const {
  if (join.inlj < 0) return false;
  double hj_total = Choose(join.inner, time).total_ms;
  if (join.spill >= 0) hj_total += time(join.spill);
  hj_total += join.hj_cpu_ms;
  const double inlj_io = time(join.inlj) + time(join.inlj + 1);
  return inlj_io + join.inlj_cpu_ms < hj_total;
}

void CompiledTemplate::AddIo(int entry, int num_entries,
                             IoVector* io_by_object) const {
  if (io_by_object == nullptr) return;
  for (int e = entry; e < entry + num_entries; ++e) {
    const Entry& io_entry = entries_[static_cast<size_t>(e)];
    io_by_object[io_entry.object] += io_entry.io;
  }
}

template <class EntryTime>
CompiledTemplate::Result CompiledTemplate::Walk(const EntryTime& time,
                                                IoVector* io_by_object) const {
  // PlanQuery's pre-order tree walk: aggregate, sort, the joins from the
  // top down, the driving access, then the hash joins' inner accesses from
  // the bottom up. Each node adds its io_ms and cpu_ms in that order.
  Result r;
  r.num_joins = static_cast<int>(joins_.size());
  // Nodes without I/O add an io_ms of 0, which leaves the (non-negative)
  // running sum unchanged, so those additions are skipped.
  double io_ms = 0.0;
  double cpu_ms = 0.0;
  cpu_ms += agg_cpu_ms_;
  if (has_sort_) {
    if (sort_spill_ >= 0) {
      io_ms += time(sort_spill_);
      AddIo(sort_spill_, 1, io_by_object);
    }
    cpu_ms += sort_cpu_ms_;
  }
  std::uint64_t inlj_mask = 0;  // bit j: join j is an indexed NL join
  for (size_t j = joins_.size(); j-- > 0;) {
    const Join& join = joins_[j];
    if (ChoosesInlj(join, time)) {
      inlj_mask |= std::uint64_t{1} << j;
      r.num_index_nl_joins += 1;
      io_ms += time(join.inlj) + time(join.inlj + 1);
      cpu_ms += join.inlj_cpu_ms;
      AddIo(join.inlj, 2, io_by_object);
    } else {
      if (join.spill >= 0) {
        io_ms += time(join.spill);
        AddIo(join.spill, 1, io_by_object);
      }
      cpu_ms += join.hj_cpu_ms;
    }
  }
  const AccessChoice first = Choose(first_, time);
  io_ms += first.io_ms;
  cpu_ms += first.cpu_ms;
  AddIo(first.entry, first.num_entries, io_by_object);
  for (size_t j = 0; j < joins_.size(); ++j) {
    if ((inlj_mask >> j) & 1) continue;
    const AccessChoice inner = Choose(joins_[j].inner, time);
    io_ms += inner.io_ms;
    cpu_ms += inner.cpu_ms;
    AddIo(inner.entry, inner.num_entries, io_by_object);
  }
  r.io_ms = io_ms;
  r.cpu_ms = cpu_ms;
  r.time_ms = io_ms + cpu_ms;
  return r;
}

CompiledTemplate::Result CompiledTemplate::Run(const int* placement,
                                               IoVector* io_by_object) const {
  return Walk([this, placement](int e) { return Time(e, placement); },
              io_by_object);
}

CompiledTemplate::Result CompiledTemplate::RunScaled(
    const int* placement, const double* io_scale) const {
  return Walk(
      [this, placement, io_scale](int e) {
        return io_scale[entries_[static_cast<size_t>(e)].object] *
               Time(e, placement);
      },
      nullptr);
}

double CompiledTemplate::PriceIoMs(const int* placement,
                                   const IoVector* io_by_object) const {
  std::array<double, kMaxFootprint> times;
  int n = 0;
  for (int o : footprint_) {
    const IoVector& io = io_by_object[o];
    if (io.IsZero()) continue;
    times[static_cast<size_t>(n++)] =
        DeviceTimeMs(io, latency_[static_cast<size_t>(placement[o])]);
  }
  return BlockedSum(times.data(), n);
}

}  // namespace dot
