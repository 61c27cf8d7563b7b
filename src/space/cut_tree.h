// The data-space embedding at the heart of MIND (paper §3.4, §3.7).
//
// A CutTree recursively cuts the k-dimensional data space with axis-aligned
// hyper-planes, cycling through the dimensions (dimension = depth mod k).
// Each cut appends one bit to the region's code: 0 for the low side, 1 for
// the high side, so every hyper-rectangle produced by the cuts carries a
// BitCode. A tuple is stored at the overlay node whose vertex code maximally
// matches the tuple's region code; a query's covering codes determine which
// nodes it must visit.
//
// Two construction modes:
//  * Even(): every cut bisects the current interval at its midpoint. Simple,
//    but skewed traffic data then piles up on few nodes (Figure 2).
//  * Balanced(): the first `depth` cuts are chosen from a multi-dimensional
//    histogram of a previous day's data so that each side carries roughly
//    half the mass (Figure 5, bottom right; §3.7). Beyond the materialized
//    depth, descent continues with midpoint cuts.
//
// The tree is per-index, per-version state, installed identically at every
// node; it is deliberately decoupled from the overlay structure (the paper's
// key design point).
#ifndef MIND_SPACE_CUT_TREE_H_
#define MIND_SPACE_CUT_TREE_H_

#include <memory>
#include <optional>
#include <vector>

#include "space/histogram.h"
#include "space/rect.h"
#include "space/schema.h"
#include "util/bitcode.h"
#include "util/status.h"

namespace mind {

class CutTree {
 public:
  /// Pure midpoint cuts (no materialized nodes).
  static CutTree Even(const Schema& schema);

  /// Histogram-balanced cuts for the first `depth` levels. The histogram's
  /// schema must equal `schema`; depth in [0, 24] (2^depth regions).
  static Result<CutTree> Balanced(const Schema& schema, const Histogram& hist,
                                  int depth);

  const Schema& schema() const { return schema_; }
  int materialized_depth() const { return materialized_depth_; }

  /// Code of length `len` for a point (clamped into the domain first).
  BitCode CodeForPoint(const Point& p, int len) const;

  /// The hyper-rectangle addressed by `code`, or nullopt if the code walks
  /// into an empty side (possible only for codes not produced by descent).
  std::optional<Rect> RectForCode(const BitCode& code) const;

  /// Longest code (<= max_len bits) whose rectangle fully contains
  /// query ∩ space. This is where a query is first routed (§3.6).
  BitCode MinimalContainingCode(const Rect& query, int max_len) const;

  /// Walking state: the region of the code walked so far and its
  /// materialized node (or -1). Descend steps it one level; a walk that
  /// visits many codes descends one cursor and climbs back instead of
  /// re-walking each code from the root with RectForCode.
  struct Cursor {
    Rect rect;
    int node = -1;
    int depth = 0;
  };

  /// Up to two child codes, in bit order. A value, so a split allocates
  /// nothing.
  class Children {
   public:
    size_t size() const { return size_; }
    const BitCode& operator[](size_t i) const { return codes_[i]; }
    const BitCode* begin() const { return codes_; }
    const BitCode* end() const { return codes_ + size_; }

   private:
    friend class CutTree;
    void push_back(const BitCode& c) { codes_[size_++] = c; }

    BitCode codes_[2];
    size_t size_ = 0;
  };

  /// The children codes of `code` (one bit longer) whose rectangles
  /// intersect `query`; 0, 1 or 2 entries, none if `code` walks into an
  /// empty side. Used by nodes to split queries into sub-queries.
  /// `scratch` is the caller's storage for the walk's cursor: its value on
  /// entry is ignored, and a caller that keeps it across calls makes the
  /// walk allocation-free. The two-argument form uses a cursor of its own.
  Children IntersectingChildren(const Rect& query, const BitCode& code,
                                Cursor* scratch) const;
  Children IntersectingChildren(const Rect& query, const BitCode& code) const;

  /// All codes of length exactly `len` whose rectangles intersect `query`,
  /// in ascending key order (child 0 before child 1), into `out` (cleared
  /// first). Errors with OutOfRange if more than `max_codes` would be
  /// produced; `out` then holds the first `max_codes`. `scratch` is the
  /// walk's cursor, as for IntersectingChildren: one cursor descends in
  /// place and climbs back, so with caller-kept `scratch` and `out` the walk
  /// allocates only when `out` outgrows its capacity.
  Status Cover(const Rect& query, int len, size_t max_codes, Cursor* scratch,
               std::vector<BitCode>* out) const;
  /// The same cover, returned by value (fresh scratch and buffer).
  Result<std::vector<BitCode>> Cover(const Rect& query, int len,
                                     size_t max_codes = 65536) const;

  /// Dimension cut at a given depth.
  int DimAtDepth(int depth) const { return depth % schema_.dims(); }

  /// Cursor at the root region (the empty code).
  Cursor Root() const;
  /// Moves `c` to the root region, reusing its rectangle's storage.
  void ResetToRoot(Cursor* c) const;
  /// Descends one level. Returns false if that side is empty (only possible
  /// for bit==1 on a single-value interval).
  bool Descend(Cursor* c, int bit) const;
  /// Moves `c` to the region of `code` (from the root, reusing its
  /// rectangle's storage). Returns false if the code walks into an empty
  /// side, as RectForCode's nullopt.
  bool WalkTo(const BitCode& code, Cursor* c) const;

  /// Checks materialized-tree well-formedness: every node reachable from the
  /// root exactly once (a shared subtree would give two regions the same
  /// code), no orphan nodes, cut dimensions within the schema, each cut
  /// interior to its region (which is exactly what makes the two children
  /// tile the parent rectangle with no gap or overlap), and an empty high
  /// side only where the child link is absent. Returns OK trivially when
  /// MIND_VALIDATORS is off (see util/validate.h).
  Status ValidateInvariants() const;

 private:
  friend class CutTreeTestPeek;  // corruption injection in validator tests

  struct Node {
    Value cut = 0;       // low side: [lo, cut]; high side: [cut+1, hi]
    int16_t dim = 0;     // balanced cuts may deviate from round-robin when a
                         // dimension is degenerate (no interior cut exists)
    int32_t child0 = -1; // materialized children (-1 => implicit midpoint)
    int32_t child1 = -1;
  };

  explicit CutTree(Schema schema) : schema_(std::move(schema)) {}

  // Dimension cut at the cursor (materialized node's dim, else round-robin).
  int CursorDim(const Cursor& c) const;
  // Cut value applied at the cursor's depth within its rect.
  Value CutValue(const Cursor& c) const;

  // Descend changes one interval, `node` and `depth`. A walk that descends
  // one cursor in place records them before a step and restores them on
  // the way back up, instead of copying the cursor (and its Rect) per child.
  struct Step {
    int dim;
    Interval iv;
    int node;
    void Undo(Cursor* c) const {
      *c->rect.mutable_interval(dim) = iv;
      c->node = node;
      --c->depth;
    }
  };
  Step StepFrom(const Cursor& c) const {
    const int dim = CursorDim(c);
    return Step{dim, c.rect.interval(dim), c.node};
  }

  // Appends the cover of `c`'s subtree; `c` intersects `query` and is left
  // where it was.
  void CoverRec(Cursor* c, const Rect& query, int len, size_t max_codes,
                BitCode* prefix, std::vector<BitCode>* out, bool* overflow) const;

  static int BuildBalancedRec(CutTree* tree, const Histogram& hist,
                              std::vector<std::pair<Point, double>>* items,
                              size_t begin, size_t end, const Rect& rect,
                              int depth, int max_depth);

  Schema schema_;
  int materialized_depth_ = 0;
  std::vector<Node> nodes_;  // empty for Even(); else root at index 0
};

/// Immutable shared handle; cut trees are distributed to every node of an
/// index and never mutated after installation.
using CutTreeRef = std::shared_ptr<const CutTree>;

}  // namespace mind

#endif  // MIND_SPACE_CUT_TREE_H_
