// Tuples: the multi-attribute data records inserted into MIND indices.
//
// Following the paper's record layout (§4.1), a record has k *indexed*
// attributes (the Point) followed by carried-along attributes that are
// returned with query results but not indexed (e.g. source_prefix and the
// observing monitor for Index-1).
#ifndef MIND_STORAGE_TUPLE_H_
#define MIND_STORAGE_TUPLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "space/schema.h"

namespace mind {

struct Tuple {
  /// Indexed attribute values, in schema order.
  Point point;
  /// Carried (non-indexed) attribute values.
  std::vector<Value> extra;
  /// Identifier of the monitor/node that generated the record. A query
  /// result's set of origins is the paper's "which monitors saw the
  /// anomalous traffic" by-product (§5).
  int origin = -1;
  /// Unique id assigned by the inserting monitor (origin, seq) is unique.
  uint64_t seq = 0;

  /// Approximate wire size, used for simulated transmission delays.
  size_t WireBytes() const { return WireBytesFor(point.size(), extra.size()); }
  static size_t WireBytesFor(size_t point_values, size_t extra_values) {
    return 24 + 8 * (point_values + extra_values);
  }

  friend bool operator==(const Tuple& a, const Tuple& b) {
    return a.origin == b.origin && a.seq == b.seq && a.point == b.point &&
           a.extra == b.extra;
  }
};

/// (origin, seq) packed into one key for replica de-duplication of query
/// results. The key decides which copies the originator drops, and the kept
/// tuples feed `result_digest`, so the packing must not change.
inline uint64_t TupleKey(const Tuple& t) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(t.origin)) << 40) ^
         t.seq;
}

}  // namespace mind

#endif  // MIND_STORAGE_TUPLE_H_
