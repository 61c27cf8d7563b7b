#include "space/cut_tree.h"

#include <algorithm>

#include "util/logging.h"
#include "util/validate.h"

namespace mind {

CutTree CutTree::Even(const Schema& schema) {
  MIND_CHECK_OK(schema.Validate());
  return CutTree(schema);
}

Result<CutTree> CutTree::Balanced(const Schema& schema, const Histogram& hist,
                                  int depth) {
  MIND_RETURN_NOT_OK(schema.Validate());
  if (!(hist.schema() == schema)) {
    return Status::InvalidArgument("histogram schema does not match index schema");
  }
  if (depth < 0 || depth > 24) {
    return Status::InvalidArgument("balanced cut depth must be in [0, 24]");
  }
  CutTree tree(schema);
  tree.materialized_depth_ = depth;
  if (depth == 0) return tree;
  auto items = hist.WeightedCellCenters();
  tree.nodes_.reserve((size_t{1} << depth) - 1);
  BuildBalancedRec(&tree, hist, &items, 0, items.size(),
                   Rect::FullSpace(schema), 0, depth);
  return tree;
}

int CutTree::BuildBalancedRec(CutTree* tree, const Histogram& hist,
                              std::vector<std::pair<Point, double>>* items,
                              size_t begin, size_t end, const Rect& rect,
                              int depth, int max_depth) {
  if (depth >= max_depth) return -1;
  const int k = tree->schema_.dims();

  double total = 0.0;
  for (size_t i = begin; i < end; ++i) total += (*items)[i].second;

  // Try dimensions starting from the round-robin choice; skip any where no
  // interior, mass-splitting cut exists (e.g. a timestamp domain far wider
  // than the day's data). Degenerate cuts would burn tree depth and leave
  // provably-empty regions assigned to real nodes.
  //
  // The cut interpolates *within* the weighted-median histogram cell
  // (uniform-within-cell assumption): cutting at cell centers can misplace
  // the cut by half a cell, which is fatal when the live data spans less
  // than one cell along the dimension.
  int chosen_dim = -1;
  Value chosen_cut = 0;
  for (int offset = 0; offset < k && chosen_dim < 0 && total > 0.0; ++offset) {
    const int dim = (depth + offset) % k;
    const Interval iv = rect.interval(dim);
    if (iv.lo >= iv.hi) continue;
    std::sort(items->begin() + begin, items->begin() + end,
              [dim](const auto& a, const auto& b) {
                return a.first[dim] < b.first[dim];
              });
    // Walk to the weighted median cell along `dim`, grouping items that
    // share the same coordinate (they lie in the same histogram bin).
    double before = 0.0;
    double in_cell = 0.0;
    Value median_coord = iv.lo;
    {
      size_t i = begin;
      while (i < end) {
        Value coord = (*items)[i].first[dim];
        double group = 0.0;
        size_t j = i;
        while (j < end && (*items)[j].first[dim] == coord) {
          group += (*items)[j].second;
          ++j;
        }
        if (before + group >= total / 2.0) {
          median_coord = coord;
          in_cell = group;
          break;
        }
        before += group;
        i = j;
      }
      if (in_cell <= 0.0) continue;  // no median found (empty)
    }
    const int bin = hist.BinOf(dim, median_coord);
    const Value blo = hist.BinLo(dim, bin);
    const Value bhi = hist.BinHi(dim, bin);
    double frac = (total / 2.0 - before) / in_cell;
    frac = std::clamp(frac, 0.0, 1.0);
    long double width = static_cast<long double>(bhi - blo) + 1;
    Value cut = blo + static_cast<Value>(static_cast<long double>(frac) * width);
    if (cut > bhi) cut = bhi;
    // Keep the cut interior to the region.
    if (cut >= iv.hi) cut = iv.hi - 1;
    if (cut < iv.lo) cut = iv.lo;
    // Expected mass on each side under uniform-within-cell: reject cuts that
    // starve a side.
    long double cell_frac_low =
        width > 0 ? (static_cast<long double>(cut - blo) + 1) / width : 1.0;
    if (cut < blo) cell_frac_low = 0.0;
    if (cut > bhi) cell_frac_low = 1.0;
    double low_est = before + static_cast<double>(cell_frac_low) * in_cell;
    double high_est = total - low_est;
    if (low_est <= total * 1e-3 || high_est <= total * 1e-3) continue;
    // If essentially all mass sits inside one cell, the interpolated cut is
    // guesswork (the data may occupy a sliver of the cell): prefer a
    // dimension the histogram can actually resolve, and let the fallback
    // below bisect within the cell otherwise.
    if (in_cell >= total * 0.95) continue;
    chosen_dim = dim;
    chosen_cut = cut;
  }

  if (chosen_dim < 0) {
    // The histogram cannot resolve a split (all mass within one cell per
    // dimension): bisect within the occupied cell of the widest dimension.
    // Real data inside the cell still spreads across it, so repeated
    // bisection converges on it like a binary search.
    int dim = depth % k;
    uint64_t best_span = 0;
    for (int d = 0; d < k; ++d) {
      uint64_t span = rect.interval(d).Size();
      if (span > best_span) {
        best_span = span;
        dim = d;
      }
    }
    const Interval iv = rect.interval(dim);
    Value lo = iv.lo, hi = iv.hi;
    if (total > 0.0 && lo < hi) {
      // Locate the weighted-median cell along `dim` and clip to it.
      std::sort(items->begin() + begin, items->begin() + end,
                [dim](const auto& a, const auto& b) {
                  return a.first[dim] < b.first[dim];
                });
      double acc = 0.0;
      Value median_coord = lo;
      for (size_t i = begin; i < end; ++i) {
        acc += (*items)[i].second;
        if (acc >= total / 2.0) {
          median_coord = (*items)[i].first[dim];
          break;
        }
      }
      const int bin = hist.BinOf(dim, median_coord);
      Value clo = std::max(lo, hist.BinLo(dim, bin));
      Value chi = std::min(hi, hist.BinHi(dim, bin));
      if (clo < chi) {
        lo = clo;
        hi = chi;
      }
    }
    chosen_dim = dim;
    chosen_cut = lo >= hi ? iv.lo : lo + (hi - lo) / 2;
    if (chosen_cut >= iv.hi) chosen_cut = iv.hi - 1;
    if (chosen_cut < iv.lo) chosen_cut = iv.lo;
  }

  // Partition items (cells go whole to the side containing their center).
  auto mid_it = std::partition(items->begin() + begin, items->begin() + end,
                               [chosen_dim, chosen_cut](const auto& a) {
                                 return a.first[chosen_dim] <= chosen_cut;
                               });
  size_t mid = static_cast<size_t>(mid_it - items->begin());

  int idx = static_cast<int>(tree->nodes_.size());
  tree->nodes_.push_back(
      Node{chosen_cut, static_cast<int16_t>(chosen_dim), -1, -1});

  Rect left = rect;
  left.mutable_interval(chosen_dim)->hi = chosen_cut;
  int c0 = BuildBalancedRec(tree, hist, items, begin, mid, left, depth + 1,
                            max_depth);

  int c1 = -1;
  if (chosen_cut < rect.interval(chosen_dim).hi) {
    Rect right = rect;
    right.mutable_interval(chosen_dim)->lo = chosen_cut + 1;
    c1 = BuildBalancedRec(tree, hist, items, mid, end, right, depth + 1,
                          max_depth);
  }
  tree->nodes_[idx].child0 = c0;
  tree->nodes_[idx].child1 = c1;
  return idx;
}

CutTree::Cursor CutTree::Root() const {
  Cursor c;
  ResetToRoot(&c);
  return c;
}

void CutTree::ResetToRoot(Cursor* c) const {
  const int k = schema_.dims();
  if (c->rect.dims() != k) {
    c->rect = Rect::FullSpace(schema_);
  } else {
    for (int d = 0; d < k; ++d) {
      const AttributeDef& a = schema_.attr(d);
      *c->rect.mutable_interval(d) = Interval{a.min, a.max};
    }
  }
  c->node = nodes_.empty() ? -1 : 0;
  c->depth = 0;
}

int CutTree::CursorDim(const Cursor& c) const {
  return c.node >= 0 ? nodes_[c.node].dim : DimAtDepth(c.depth);
}

Value CutTree::CutValue(const Cursor& c) const {
  if (c.node >= 0) return nodes_[c.node].cut;
  const Interval iv = c.rect.interval(CursorDim(c));
  return iv.lo + (iv.hi - iv.lo) / 2;
}

bool CutTree::Descend(Cursor* c, int bit) const {
  const int dim = CursorDim(*c);
  const Value cut = CutValue(*c);
  const Interval iv = c->rect.interval(dim);
  if (bit == 0) {
    c->rect.mutable_interval(dim)->hi = cut;
    c->node = (c->node >= 0) ? nodes_[c->node].child0 : -1;
  } else {
    if (cut >= iv.hi) return false;  // empty high side
    c->rect.mutable_interval(dim)->lo = cut + 1;
    c->node = (c->node >= 0) ? nodes_[c->node].child1 : -1;
  }
  ++c->depth;
  return true;
}

BitCode CutTree::CodeForPoint(const Point& p, int len) const {
  MIND_CHECK(len >= 0 && len <= BitCode::kMaxLen);
  const int k = schema_.dims();
  MIND_CHECK_EQ(static_cast<int>(p.size()), k);
  // Descent only ever inspects one interval per level, so the cursor is three
  // stack arrays instead of a heap-backed Rect + clamped Point copy — this is
  // the hottest call on the insert path (once per insert_record, once per
  // stored replica).
  constexpr int kStackDims = 16;
  if (k > kStackDims) {
    Point q = schema_.Clamp(p);
    Cursor c = Root();
    BitCode code;
    for (int i = 0; i < len; ++i) {
      const int bit = (q[CursorDim(c)] <= CutValue(c)) ? 0 : 1;
      bool ok = Descend(&c, bit);
      MIND_CHECK(ok);
      code.PushBack(bit);
    }
    return code;
  }
  Value q[kStackDims], lo[kStackDims], hi[kStackDims];
  for (int d = 0; d < k; ++d) {
    const AttributeDef& a = schema_.attr(d);
    lo[d] = a.min;
    hi[d] = a.max;
    q[d] = p[d] < a.min ? a.min : (p[d] > a.max ? a.max : p[d]);
  }
  if (nodes_.empty()) {
    // Even tree: pure midpoint bisection, dimension strictly round-robin. A
    // midpoint cut is always interior (cut < hi whenever lo < hi, and lo == hi
    // forces bit 0), so the branch-free form needs no emptiness check.
    uint64_t bits = 0;
    int dim = 0;
    for (int i = 0; i < len; ++i) {
      const Value cut = lo[dim] + (hi[dim] - lo[dim]) / 2;
      const uint64_t bit = q[dim] > cut ? 1 : 0;
      if (bit) {
        lo[dim] = cut + 1;
      } else {
        hi[dim] = cut;
      }
      bits = (bits << 1) | bit;
      if (++dim == k) dim = 0;
    }
    return BitCode::FromBits(bits, len);
  }
  int node = 0;
  BitCode code;
  for (int i = 0; i < len; ++i) {
    int dim;
    Value cut;
    if (node >= 0) {
      dim = nodes_[node].dim;
      cut = nodes_[node].cut;
    } else {
      dim = i % k;
      cut = lo[dim] + (hi[dim] - lo[dim]) / 2;
    }
    if (q[dim] <= cut) {
      hi[dim] = cut;
      node = node >= 0 ? nodes_[node].child0 : -1;
      code.PushBack(0);
    } else {
      MIND_CHECK(cut < hi[dim]);  // q[dim] > cut, so the high side is non-empty
      lo[dim] = cut + 1;
      node = node >= 0 ? nodes_[node].child1 : -1;
      code.PushBack(1);
    }
  }
  return code;
}

bool CutTree::WalkTo(const BitCode& code, Cursor* c) const {
  ResetToRoot(c);
  for (int i = 0; i < code.length(); ++i) {
    if (!Descend(c, code.bit(i))) return false;
  }
  return true;
}

std::optional<Rect> CutTree::RectForCode(const BitCode& code) const {
  Cursor c;
  if (!WalkTo(code, &c)) return std::nullopt;
  return std::move(c.rect);
}

BitCode CutTree::MinimalContainingCode(const Rect& query, int max_len) const {
  MIND_CHECK_EQ(query.dims(), schema_.dims());
  MIND_CHECK(max_len >= 0 && max_len <= BitCode::kMaxLen);
  Cursor c = Root();
  BitCode code;
  auto clipped = Rect::FullSpace(schema_).Intersect(query);
  if (!clipped) return code;  // query outside the space: empty code (root)
  const Rect q = *clipped;
  while (code.length() < max_len) {
    const int dim = CursorDim(c);
    const Value cut = CutValue(c);
    const Interval qi = q.interval(dim);
    int bit;
    if (qi.hi <= cut) {
      bit = 0;
    } else if (qi.lo > cut) {
      bit = 1;
    } else {
      break;  // query straddles the cut
    }
    if (!Descend(&c, bit)) break;
    code.PushBack(bit);
  }
  return code;
}

CutTree::Children CutTree::IntersectingChildren(const Rect& query,
                                                const BitCode& code,
                                                Cursor* scratch) const {
  Children out;
  if (!WalkTo(code, scratch)) return out;  // empty region: no children
  const Step step = StepFrom(*scratch);
  for (int bit = 0; bit <= 1; ++bit) {
    if (!Descend(scratch, bit)) continue;
    if (scratch->rect.Intersects(query)) out.push_back(code.Child(bit));
    step.Undo(scratch);
  }
  return out;
}

CutTree::Children CutTree::IntersectingChildren(const Rect& query,
                                                const BitCode& code) const {
  Cursor scratch;
  return IntersectingChildren(query, code, &scratch);
}

void CutTree::CoverRec(Cursor* c, const Rect& query, int len,
                       size_t max_codes, BitCode* prefix,
                       std::vector<BitCode>* out, bool* overflow) const {
  if (prefix->length() == len) {
    if (out->size() >= max_codes) {
      *overflow = true;
      return;
    }
    out->push_back(*prefix);
    return;
  }
  // A child differs from `c` only on the cut dimension, so that interval
  // alone decides whether it still intersects the query.
  const Step step = StepFrom(*c);
  const Interval& qi = query.interval(step.dim);
  for (int bit = 0; bit <= 1 && !*overflow; ++bit) {
    if (!Descend(c, bit)) continue;
    if (c->rect.interval(step.dim).Intersects(qi)) {
      prefix->PushBack(bit);
      CoverRec(c, query, len, max_codes, prefix, out, overflow);
      prefix->PopBack();
    }
    step.Undo(c);
  }
}

Status CutTree::ValidateInvariants() const {
#if MIND_VALIDATORS_ENABLED
  if (nodes_.empty()) return Status::OK();  // Even tree: nothing materialized
  const int k = schema_.dims();
  std::vector<uint8_t> visited(nodes_.size(), 0);
  // (node index, region, depth) — regions recomputed exactly as Descend does,
  // so the cut-in-range checks below certify the children tile the parent.
  struct Frame {
    int32_t node;
    Rect rect;
    int depth;
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{0, Rect::FullSpace(schema_), 0});
  while (!stack.empty()) {
    Frame f = std::move(stack.back());
    stack.pop_back();
    MIND_VALIDATE(f.node >= 0 && static_cast<size_t>(f.node) < nodes_.size(),
                  "cut-tree: child link " << f.node << " out of range ("
                                          << nodes_.size() << " nodes)");
    MIND_VALIDATE(!visited[f.node],
                  "cut-tree: node " << f.node
                                    << " reachable twice (shared subtree would "
                                       "give two regions the same code)");
    visited[f.node] = 1;
    const Node& n = nodes_[static_cast<size_t>(f.node)];
    MIND_VALIDATE(f.depth < materialized_depth_,
                  "cut-tree: node " << f.node << " at depth " << f.depth
                                    << " exceeds materialized depth "
                                    << materialized_depth_);
    MIND_VALIDATE(n.dim >= 0 && n.dim < k, "cut-tree: node " << f.node << " cuts dimension "
                                               << n.dim << " outside schema (" << k
                                               << " dims)");
    const Interval iv = f.rect.interval(n.dim);
    MIND_VALIDATE(iv.Contains(n.cut),
                  "cut-tree: node " << f.node << " cut " << n.cut
                                    << " outside its region [" << iv.lo << ", "
                                    << iv.hi << "] on dim " << n.dim
                                    << " (children would not tile the parent)");
    MIND_VALIDATE(n.cut < iv.hi || n.child1 < 0,
                  "cut-tree: node " << f.node << " has a child on the empty high side "
                                    << "(cut " << n.cut << " == hi " << iv.hi << ")");
    if (n.child0 >= 0) {
      Rect left = f.rect;
      left.mutable_interval(n.dim)->hi = n.cut;
      stack.push_back(Frame{n.child0, std::move(left), f.depth + 1});
    }
    if (n.child1 >= 0) {
      Rect right = f.rect;
      right.mutable_interval(n.dim)->lo = n.cut + 1;
      stack.push_back(Frame{n.child1, std::move(right), f.depth + 1});
    }
  }
  for (size_t i = 0; i < nodes_.size(); ++i) {
    MIND_VALIDATE(visited[i], "cut-tree: node " << i << " orphaned (unreachable from root)");
  }
#endif  // MIND_VALIDATORS_ENABLED
  return Status::OK();
}

Status CutTree::Cover(const Rect& query, int len, size_t max_codes,
                      Cursor* scratch, std::vector<BitCode>* out) const {
  MIND_CHECK(len >= 0 && len <= BitCode::kMaxLen);
  out->clear();
  ResetToRoot(scratch);
  if (!scratch->rect.Intersects(query)) return Status::OK();
  BitCode prefix;
  bool overflow = false;
  CoverRec(scratch, query, len, max_codes, &prefix, out, &overflow);
  if (overflow) {
    return Status::OutOfRange("query cover exceeds max_codes at len " +
                              std::to_string(len));
  }
  return Status::OK();
}

Result<std::vector<BitCode>> CutTree::Cover(const Rect& query, int len,
                                            size_t max_codes) const {
  Cursor scratch;
  std::vector<BitCode> out;
  MIND_RETURN_NOT_OK(Cover(query, len, max_codes, &scratch, &out));
  return out;
}

}  // namespace mind
