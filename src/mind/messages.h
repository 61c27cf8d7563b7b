// Application-level MIND messages. These are *not* OverlayMsg subclasses:
// routed ones travel as RouteEnvelope payloads and surface through
// OverlayNode's on_deliver; direct ones surface through on_direct; broadcast
// ones through on_broadcast.
#ifndef MIND_MIND_MESSAGES_H_
#define MIND_MIND_MESSAGES_H_

#include <memory>
#include <vector>

#include "mind/index_def.h"
#include "sim/message.h"
#include "sim/time.h"
#include "space/cut_tree.h"
#include "space/histogram.h"
#include "space/rect.h"
#include "storage/tuple.h"
#include "storage/version_manager.h"
#include "util/bitcode.h"

namespace mind {

enum class MindMsgKind {
  kCreateIndex,
  kDropIndex,
  kInstallCuts,
  kInsert,
  kInsertBatch,
  kReplicate,
  kQuery,
  kQueryReply,
  kHistRequest,
  kHistReply,
  kIndexSyncRequest,
  kIndexSyncReply,
  kRegionDataRequest,
};

struct MindMsg : Message {
  virtual MindMsgKind kind() const = 0;
  bool IsMind() const final { return true; }
};

/// Broadcast: instantiate an index (with its first version) on every node.
struct CreateIndexMsg : MindMsg {
  IndexDef def;
  VersionId version = 1;
  CutTreeRef cuts;
  SimTime start = 0;
  MindMsgKind kind() const override { return MindMsgKind::kCreateIndex; }
  const char* TypeName() const override { return "CreateIndex"; }
  size_t SizeBytes() const override { return 512; }  // schema description
};

/// Broadcast: remove all state of an index.
struct DropIndexMsg : MindMsg {
  std::string name;
  MindMsgKind kind() const override { return MindMsgKind::kDropIndex; }
  const char* TypeName() const override { return "DropIndex"; }
};

/// Broadcast: open a new version of an index with freshly balanced cuts.
struct InstallCutsMsg : MindMsg {
  std::string name;
  VersionId version = 0;
  CutTreeRef cuts;
  SimTime start = 0;
  MindMsgKind kind() const override { return MindMsgKind::kInstallCuts; }
  const char* TypeName() const override { return "InstallCuts"; }
  size_t SizeBytes() const override { return 256; }
};

/// Routed to the owner of the tuple's data-space code.
struct InsertMsg : MindMsg {
  std::string index;
  VersionId version = 0;
  Tuple tuple;
  /// The tuple's data-space code at insert precision, computed once at the
  /// origin; the storer and its replicas key the tuple by it instead of
  /// re-descending the cut tree.
  BitCode code;
  SimTime sent_at = 0;
  MindMsgKind kind() const override { return MindMsgKind::kInsert; }
  const char* TypeName() const override { return "Insert"; }
  size_t SizeBytes() const override { return 32 + tuple.WireBytes(); }
};

/// Direct to a replication neighbor.
struct ReplicateMsg : MindMsg {
  std::string index;
  VersionId version = 0;
  Tuple tuple;
  /// Origin-computed code (see InsertMsg::code).
  BitCode code;
  MindMsgKind kind() const override { return MindMsgKind::kReplicate; }
  const char* TypeName() const override { return "Replicate"; }
  size_t SizeBytes() const override { return 32 + tuple.WireBytes(); }
};

/// Routed toward the common code prefix of a group of tuples, then split
/// like a query (§3.6 applied to writes): a node owning the whole prefix
/// commits every tuple; a node whose region is longer regroups the tuples by
/// child prefix and forwards the sub-batches. One message train amortizes
/// routing and per-message overhead across the batch.
struct InsertBatchMsg : MindMsg {
  std::string index;
  VersionId version = 0;
  /// Common prefix of every entry's code; the routing target.
  BitCode code;
  /// Parallel arrays: tuples[i]'s insert-precision code is codes[i], and
  /// code.IsPrefixOf(codes[i]) holds for all i.
  std::vector<Tuple> tuples;
  std::vector<BitCode> codes;
  SimTime sent_at = 0;
  MindMsgKind kind() const override { return MindMsgKind::kInsertBatch; }
  const char* TypeName() const override { return "InsertBatch"; }
  size_t SizeBytes() const override {
    size_t n = 48;
    for (const auto& t : tuples) n += t.WireBytes() + 8;
    return n;
  }
};

/// Routed toward `code`; split into sub-queries at the first abutting node.
struct QueryMsg : MindMsg {
  uint64_t query_id = 0;
  std::string index;
  VersionId version = 0;
  Rect rect;
  BitCode code;
  NodeId originator = kInvalidNode;
  SimTime sent_at = 0;
  /// True for a forwarded resolution to a data sibling (§3.4: a joiner keeps
  /// a pointer to its split parent for data inserted before the join); the
  /// receiver must only scan and reply, never split or re-route.
  bool resolve_only = false;
  MindMsgKind kind() const override { return MindMsgKind::kQuery; }
  const char* TypeName() const override { return "Query"; }
  size_t SizeBytes() const override {
    return 64 + 16 * static_cast<size_t>(rect.dims());
  }
};

/// Direct reply from a resolver to the query originator. `covered` is the
/// sub-query code this reply fully answers (used for completion detection);
/// no rows is the paper's "negative response".
struct QueryReplyMsg : MindMsg {
  uint64_t query_id = 0;
  VersionId version = 0;
  BitCode covered;
  /// The matching rows, as the store scan appended them.
  TupleColumns rows;
  NodeId resolver = kInvalidNode;
  /// True for a data-sibling's resolve-only reply (§3.4 forward pointer):
  /// its tuples are merged, but it must NOT count as covering `covered` —
  /// only the region's owner can assert the region fully answered.
  bool supplemental = false;
  MindMsgKind kind() const override { return MindMsgKind::kQueryReply; }
  const char* TypeName() const override { return "QueryReply"; }
  size_t SizeBytes() const override { return 48 + rows.WireBytes(); }
};

/// Broadcast by the designated histogram node: every node replies with a
/// histogram of its local data for the named index version.
struct HistRequestMsg : MindMsg {
  uint64_t collection_id = 0;
  std::string index;
  VersionId version = 0;
  int bins_per_dim = 8;
  /// Added to the timestamp attribute of histogrammed points so yesterday's
  /// distribution is positioned where tomorrow's data will fall.
  Value time_shift = 0;
  NodeId collector = kInvalidNode;
  MindMsgKind kind() const override { return MindMsgKind::kHistRequest; }
  const char* TypeName() const override { return "HistRequest"; }
};

struct HistReplyMsg : MindMsg {
  uint64_t collection_id = 0;
  std::shared_ptr<Histogram> histogram;
  MindMsgKind kind() const override { return MindMsgKind::kHistReply; }
  const char* TypeName() const override { return "HistReply"; }
  size_t SizeBytes() const override {
    return 32 + (histogram ? 16 * histogram->num_nonzero_cells() : 0);
  }
};

/// Direct: a freshly joined node asks a neighbor for the set of defined
/// indices (paper §3.4: "when nodes join the overlay, they obtain the
/// current set of defined indices from the neighbor to which they attach").
struct IndexSyncRequestMsg : MindMsg {
  MindMsgKind kind() const override { return MindMsgKind::kIndexSyncRequest; }
  const char* TypeName() const override { return "IndexSyncRequest"; }
};

struct IndexSyncReplyMsg : MindMsg {
  struct IndexSnapshot {
    IndexDef def;
    struct VersionSnapshot {
      VersionId id;
      CutTreeRef cuts;
      SimTime start;
    };
    std::vector<VersionSnapshot> versions;
  };
  std::vector<IndexSnapshot> indices;
  MindMsgKind kind() const override { return MindMsgKind::kIndexSyncReply; }
  const char* TypeName() const override { return "IndexSyncReply"; }
  size_t SizeBytes() const override { return 256 + 256 * indices.size(); }
};

/// Direct, to every peer of a node that relabelled into a vacant region (a
/// recursive takeover, §3.8): send me, as replicas, every tuple you hold in
/// `region`. The region's neighbours hold its replicas; the new owner, which
/// was not necessarily one of them, starts with none.
struct RegionDataRequestMsg : MindMsg {
  BitCode region;
  MindMsgKind kind() const override { return MindMsgKind::kRegionDataRequest; }
  const char* TypeName() const override { return "RegionDataRequest"; }
  size_t SizeBytes() const override { return 32; }
};

}  // namespace mind

#endif  // MIND_MIND_MESSAGES_H_
