// Hyper-rectangles: the unit of both data-space partitioning (the regions
// produced by cuts) and querying (a MIND query is a hyper-rectangle).
#ifndef MIND_SPACE_RECT_H_
#define MIND_SPACE_RECT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "space/schema.h"

namespace mind {

/// Inclusive interval [lo, hi] over a uint64 attribute domain.
struct Interval {
  Value lo = 0;
  Value hi = 0;

  bool Contains(Value v) const { return lo <= v && v <= hi; }
  bool Intersects(const Interval& o) const { return lo <= o.hi && o.lo <= hi; }
  /// Number of values covered; saturates at UINT64_MAX for the full domain.
  uint64_t Size() const {
    uint64_t span = hi - lo;
    return span == UINT64_MAX ? UINT64_MAX : span + 1;
  }
  friend bool operator==(const Interval& a, const Interval& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
};

/// \brief An axis-aligned hyper-rectangle: one inclusive interval per
/// dimension. A wildcarded query attribute is simply the full domain interval.
class Rect {
 public:
  Rect() = default;
  explicit Rect(std::vector<Interval> ivs) : ivs_(std::move(ivs)) {}

  /// The full data space of a schema.
  static Rect FullSpace(const Schema& schema);

  int dims() const { return static_cast<int>(ivs_.size()); }
  const Interval& interval(int d) const { return ivs_[d]; }
  Interval* mutable_interval(int d) { return &ivs_[d]; }

  bool Contains(const Point& p) const;
  bool Contains(const Rect& other) const;
  bool Intersects(const Rect& other) const;

  /// Intersection, or nullopt if disjoint.
  std::optional<Rect> Intersect(const Rect& other) const;
  /// Clips this rectangle to `other` in place, reusing its storage. Returns
  /// false, leaving it unchanged, if the two are disjoint.
  bool ClipTo(const Rect& other);

  /// "[lo1,hi1]x[lo2,hi2]x...".
  std::string ToString() const;

  friend bool operator==(const Rect& a, const Rect& b) { return a.ivs_ == b.ivs_; }

 private:
  std::vector<Interval> ivs_;
};

}  // namespace mind

#endif  // MIND_SPACE_RECT_H_
