#ifndef DOTPROV_QUERY_OBJECT_IO_H_
#define DOTPROV_QUERY_OBJECT_IO_H_

#include <vector>

#include "io/io_types.h"
#include "storage/storage_class.h"

namespace dot {

/// Per-object, per-I/O-type request counts: χ_r[o] in the paper's notation.
/// Indexed densely by object id (schema order).
using ObjectIoMap = std::vector<IoVector>;

/// into[o] += delta[o] * factor, without materializing a scaled copy of
/// `delta` (the per-candidate copies this avoids were the hottest
/// allocation in the workload models' estimate loops).
void AccumulateScaledIo(ObjectIoMap& into, const ObjectIoMap& delta,
                        double factor);

/// The I/O time share (Eq. 1) of the given per-object counts under a
/// placement: Σ_o Σ_r χ_r[o] · τ^{p[o]}_r(c), where `placement[o]` is the
/// storage-class index in `box` for object o and c is the degree of
/// concurrency.
double IoTimeShareMs(const ObjectIoMap& io, const std::vector<int>& placement,
                     const BoxConfig& box, double concurrency);

}  // namespace dot

#endif  // DOTPROV_QUERY_OBJECT_IO_H_
