// Originator-side bookkeeping for one distributed query against one index
// version: which sub-query codes have been answered, result accumulation with
// replica de-duplication, and completion detection (paper §3.6: "the
// originator can then determine, by examining which nodes responded, when the
// query response is complete").
#ifndef MIND_MIND_QUERY_TRACKER_H_
#define MIND_MIND_QUERY_TRACKER_H_

#include <unordered_set>
#include <vector>

#include "sim/message.h"
#include "space/cut_tree.h"
#include "space/rect.h"
#include "storage/tuple.h"
#include "telemetry/metrics.h"
#include "util/bitcode.h"

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

  /// Records a reply covering `code`; tuples are merged with (origin, seq)
  /// de-duplication (replicas may answer the same region). Supplemental
  /// replies (data-sibling forwards) contribute tuples but not coverage.
  void AddReply(NodeId resolver, const BitCode& code, std::vector<Tuple> tuples,
                bool authoritative = true);

  /// True once the received codes cover every part of the root region that
  /// intersects the query rectangle. The check explores a bounded number of
  /// codes; a call that runs out of that budget answers false and counts
  /// `mind.query.cover_budget_exhausted`.
  bool IsComplete() const;

  const std::vector<Tuple>& tuples() const { return tuples_; }
  std::vector<Tuple> TakeTuples() { return std::move(tuples_); }
  size_t reply_count() const { return replies_; }
  const std::unordered_set<NodeId>& responders() const { return responders_; }
  /// Responders whose reply carried at least one tuple (the rest answered
  /// negatively, §3.6).
  const std::unordered_set<NodeId>& positive_responders() const {
    return positive_responders_;
  }
  const BitCode& root() const { return root_; }

 private:
  bool CoveredRec(const BitCode& code, int* budget) const;

  Rect rect_;
  BitCode root_;
  CutTreeRef cuts_;
  int max_split_len_;
  std::vector<BitCode> covered_;
  std::unordered_set<NodeId> responders_;
  std::unordered_set<NodeId> positive_responders_;
  std::unordered_set<uint64_t> seen_tuples_;  // (origin, seq) packed
  std::vector<Tuple> tuples_;
  size_t replies_ = 0;
  telemetry::Counter* replies_counter_ = nullptr;
  telemetry::Counter* dup_tuples_counter_ = nullptr;
  telemetry::Counter* budget_exhausted_counter_ = nullptr;
};

}  // namespace mind

#endif  // MIND_MIND_QUERY_TRACKER_H_
