#include "space/rect.h"

#include "util/logging.h"

namespace mind {

Rect Rect::FullSpace(const Schema& schema) {
  std::vector<Interval> ivs;
  ivs.reserve(schema.dims());
  for (const auto& a : schema.attrs()) ivs.push_back(Interval{a.min, a.max});
  return Rect(std::move(ivs));
}

bool Rect::Contains(const Point& p) const {
  MIND_CHECK_EQ(static_cast<int>(p.size()), dims());
  for (int d = 0; d < dims(); ++d) {
    if (!ivs_[d].Contains(p[d])) return false;
  }
  return true;
}

bool Rect::Contains(const Rect& other) const {
  MIND_CHECK_EQ(other.dims(), dims());
  for (int d = 0; d < dims(); ++d) {
    if (other.ivs_[d].lo < ivs_[d].lo || other.ivs_[d].hi > ivs_[d].hi) {
      return false;
    }
  }
  return true;
}

bool Rect::Intersects(const Rect& other) const {
  MIND_CHECK_EQ(other.dims(), dims());
  for (int d = 0; d < dims(); ++d) {
    if (!ivs_[d].Intersects(other.ivs_[d])) return false;
  }
  return true;
}

std::optional<Rect> Rect::Intersect(const Rect& other) const {
  if (!Intersects(other)) return std::nullopt;
  Rect out = *this;
  out.ClipTo(other);
  return out;
}

bool Rect::ClipTo(const Rect& other) {
  if (!Intersects(other)) return false;
  for (int d = 0; d < dims(); ++d) {
    ivs_[d].lo = std::max(ivs_[d].lo, other.ivs_[d].lo);
    ivs_[d].hi = std::min(ivs_[d].hi, other.ivs_[d].hi);
  }
  return true;
}

std::string Rect::ToString() const {
  // Appended piecewise: a chained operator+ here trips GCC 12's -Wrestrict
  // false positive (PR105651) under -O3.
  std::string s;
  for (int d = 0; d < dims(); ++d) {
    if (d) s += 'x';
    s += '[';
    s += std::to_string(ivs_[d].lo);
    s += ',';
    s += std::to_string(ivs_[d].hi);
    s += ']';
  }
  return s;
}

}  // namespace mind
