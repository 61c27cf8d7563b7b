// Originator-side bookkeeping for one distributed query against one index
// version: which sub-query codes have been answered, result accumulation with
// replica de-duplication, and completion detection (paper §3.6: "the
// originator can then determine, by examining which nodes responded, when the
// query response is complete").
#ifndef MIND_MIND_QUERY_TRACKER_H_
#define MIND_MIND_QUERY_TRACKER_H_

#include <map>
#include <vector>

#include "sim/message.h"
#include "space/cut_tree.h"
#include "space/rect.h"
#include "storage/tuple.h"
#include "storage/version_manager.h"
#include "telemetry/metrics.h"
#include "util/bitcode.h"
#include "util/key_set.h"

namespace mind {

class QueryTracker {
 public:
  /// `root` is the minimal containing code the query was routed to; `cuts`
  /// the embedding of the queried version; `max_split_len` bounds how deep
  /// the resolvers may have split. `metrics`, when non-null, receives
  /// per-reply counters (`mind.query.replies`, `mind.query.duplicate_tuples`)
  /// and `mind.query.cover_budget_exhausted`.
  QueryTracker(Rect rect, BitCode root, CutTreeRef cuts, int max_split_len,
               telemetry::MetricsRegistry* metrics = nullptr);

  /// Records a reply covering `code`; its rows are appended to rows() with
  /// (origin, seq) de-duplication (replicas may answer the same region), a
  /// row already received dropped. Supplemental replies (data-sibling
  /// forwards) contribute rows but not coverage.
  void AddReply(NodeId resolver, const BitCode& code, const TupleColumns& rows,
                bool authoritative = true);

  /// True once the received codes cover every part of the root region that
  /// intersects the query rectangle.
  ///
  /// The check is a depth-first walk of the root's subtree (child 0 before
  /// child 1) that resumes where the previous call stopped. Subtrees whose
  /// code lies under an authoritative reply, and vacuous ones (an empty side
  /// or a rectangle disjoint from the query), are resolved and never looked
  /// at again: coverage only grows and vacuity never changes. Any other
  /// subtree is expanded, and the walk stops at the first unresolved code of
  /// length `max_split_len`, which the next call examines first. A code is
  /// tested against each reply at most once: a stack top is tested only
  /// against the replies that arrived since its last test, and a child of an
  /// uncovered parent only by an exact-code lookup against the replies its
  /// parent was tested against (a shorter one would have covered the parent).
  ///
  /// Budget: one call examines at most 20 000 codes (stack tops looked at);
  /// a call that runs out answers false, keeps its progress for the next
  /// call and counts `mind.query.cover_budget_exhausted`. A fully answered
  /// query therefore always completes within a bounded number of calls.
  bool IsComplete();

  /// The distinct rows received so far, in first-seen order.
  const TupleColumns& rows() const { return rows_; }
  size_t reply_count() const { return replies_; }
  /// The distinct nodes that replied, in ascending id order.
  const std::vector<NodeId>& responders() const { return responders_; }
  /// Responders whose reply carried at least one tuple (the rest answered
  /// negatively, §3.6), in ascending id order.
  const std::vector<NodeId>& positive_responders() const {
    return positive_responders_;
  }
  const BitCode& root() const { return root_; }

 private:
  // An unresolved subtree of the completion walk, with the cut-tree cursor
  // of its code so a child's rectangle is one Descend away.
  struct Pending {
    BitCode code;
    CutTree::Cursor cursor;
    // covered_[0, tested) can cover `code` only through `exact`.
    size_t tested = 0;
    // One of covered_[0, tested) equals `code`.
    bool exact = false;
  };

  // Tests `p` against the replies it was not tested against yet.
  bool Covered(Pending* p);
  // False if `p`'s rectangle is disjoint from the query; else sets
  // `p->exact`. `p->tested` must be covered_.size(): the root's 0, or a
  // just-tested parent's.
  bool Admit(Pending* p) const;

  Rect rect_;
  BitCode root_;
  CutTreeRef cuts_;
  int max_split_len_;
  std::vector<BitCode> covered_;  // authoritative reply codes, arrival order
  std::vector<BitCode> covered_codes_;  // the same codes, distinct, sorted
  // Walk stack: pending_[0, depth_); the next subtree is pending_[depth_-1].
  // Entries past depth_ are retired but keep their cursor's Rect storage,
  // which a split reuses, so the walk allocates only when the stack grows
  // deeper than it has been.
  std::vector<Pending> pending_;
  size_t depth_ = 0;
  std::vector<NodeId> responders_;           // sorted, distinct
  std::vector<NodeId> positive_responders_;  // sorted, distinct
  KeySet seen_tuples_;  // TupleKey of every row in rows_
  TupleColumns rows_;
  size_t replies_ = 0;
  telemetry::Counter* replies_counter_ = nullptr;
  telemetry::Counter* dup_tuples_counter_ = nullptr;
  telemetry::Counter* budget_exhausted_counter_ = nullptr;
};

/// A query's result tuples, built once from its trackers' rows: trackers in
/// version order, each one's rows in first-seen order, and a row whose
/// (origin, seq) an earlier version already returned dropped (replicas may
/// answer the same tuple under two versions).
std::vector<Tuple> MergeResults(
    const std::map<VersionId, QueryTracker>& trackers);

}  // namespace mind

#endif  // MIND_MIND_QUERY_TRACKER_H_
