// Tuples: the multi-attribute data records inserted into MIND indices.
//
// Following the paper's record layout (§4.1), a record has k *indexed*
// attributes (the Point) followed by carried-along attributes that are
// returned with query results but not indexed (e.g. source_prefix and the
// observing monitor for Index-1).
#ifndef MIND_STORAGE_TUPLE_H_
#define MIND_STORAGE_TUPLE_H_

#include <cstddef>
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
inline uint64_t TupleKey(int origin, uint64_t seq) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(origin)) << 40) ^ seq;
}
inline uint64_t TupleKey(const Tuple& t) { return TupleKey(t.origin, t.seq); }

/// Tuples as parallel columns: the form query rows take from the store scan
/// to the originator (DESIGN.md §5), so no row becomes a heap object until
/// the client's QueryResult is built. Row i is the `dims` values at
/// points[i * dims], its identity meta[i], and the carried values
/// extras[meta[i - 1].extra_end, meta[i].extra_end) (from 0 for row 0).
struct TupleColumns {
  /// Row i's identity and the end of its carried values in `extras`, in one
  /// 16-byte entry: de-duplication reads one entry per row.
  struct Meta {
    uint64_t seq;
    int32_t origin;
    uint32_t extra_end;
  };

  size_t dims = 0;
  std::vector<Value> points;
  std::vector<Value> extras;
  std::vector<Meta> meta;

  size_t size() const { return meta.size(); }
  bool empty() const { return meta.empty(); }
  size_t extra_begin(size_t i) const {
    return i == 0 ? 0 : meta[i - 1].extra_end;
  }
  uint64_t key(size_t i) const { return TupleKey(meta[i].origin, meta[i].seq); }

  /// Σ Tuple::WireBytesFor(dims, extra values of row i) over the rows: the
  /// size the rows would have as Tuples, which the wire delays charge.
  size_t WireBytes() const {
    return size() * Tuple::WireBytesFor(dims, 0) + 8 * extras.size();
  }

  /// Appends one row.
  void Append(const Value* point, const Value* extra, size_t extra_len,
              int origin, uint64_t seq) {
    points.insert(points.end(), point, point + dims);
    extras.insert(extras.end(), extra, extra + extra_len);
    meta.push_back(Meta{seq, origin, static_cast<uint32_t>(extras.size())});
  }
  void Append(const Tuple& t) {
    Append(t.point.data(), t.extra.data(), t.extra.size(), t.origin, t.seq);
  }
  /// Appends row i of `src` (same dims).
  void AppendRow(const TupleColumns& src, size_t i) {
    const size_t eb = src.extra_begin(i);
    Append(src.points.data() + i * dims, src.extras.data() + eb,
           src.meta[i].extra_end - eb, src.meta[i].origin, src.meta[i].seq);
  }

  /// Row i as a Tuple.
  Tuple TupleAt(size_t i) const {
    Tuple t;
    const Value* p = points.data() + i * dims;
    t.point.assign(p, p + dims);
    t.extra.assign(extras.data() + extra_begin(i),
                   extras.data() + meta[i].extra_end);
    t.origin = meta[i].origin;
    t.seq = meta[i].seq;
    return t;
  }
};

}  // namespace mind

#endif  // MIND_STORAGE_TUPLE_H_
