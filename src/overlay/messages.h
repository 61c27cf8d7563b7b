// Overlay-internal protocol messages: routing envelopes, the join protocol,
// heartbeats, code updates and routing-recovery broadcasts.
#ifndef MIND_OVERLAY_MESSAGES_H_
#define MIND_OVERLAY_MESSAGES_H_

#include <vector>

#include "overlay/peer_table.h"
#include "sim/message.h"
#include "util/bitcode.h"

namespace mind {

/// Discriminator for overlay message dispatch.
enum class OverlayMsgKind {
  kRouteEnvelope,
  kJoinFind,
  kJoinCandidate,
  kJoinRequest,
  kJoinReject,
  kNeighborAdd,
  kNeighborAddAck,
  kNeighborAddReject,
  kNeighborAddCancel,
  kJoinCommit,
  kJoinAbort,
  kJoinDecline,
  kJoinCommitNotify,
  kCodeUpdate,
  kPeerCodeCorrection,
  kHeartbeat,
  kHeartbeatAck,
  kRingFind,
  kRingFound,
  kRegionVacant,
  kRegionProbe,
  kRegionAlive,
  kBroadcast,
};

struct OverlayMsg : Message {
  virtual OverlayMsgKind kind() const = 0;
  bool IsOverlay() const final { return true; }
};

/// Greedy-routing envelope: carried hop by hop toward the node whose vertex
/// code is a prefix of `target`.
struct RouteEnvelope : OverlayMsg {
  BitCode target;
  int hops = 0;
  int max_hops = 64;
  NodeId origin = kInvalidNode;
  MessagePtr inner;

  OverlayMsgKind kind() const override { return OverlayMsgKind::kRouteEnvelope; }
  const char* TypeName() const override { return "RouteEnvelope"; }
  size_t SizeBytes() const override {
    return 24 + (inner ? inner->SizeBytes() : 0);
  }
};

/// Routed to a random code; the owner proposes the shallowest node in its
/// neighborhood as the join attachment point (Adler et al.'s randomized join).
struct JoinFindMsg : OverlayMsg {
  NodeId joiner = kInvalidNode;
  OverlayMsgKind kind() const override { return OverlayMsgKind::kJoinFind; }
  const char* TypeName() const override { return "JoinFind"; }
};

struct JoinCandidateMsg : OverlayMsg {
  NodeId candidate = kInvalidNode;
  BitCode candidate_code;
  NodeId proposer = kInvalidNode;  // whose peer table produced the candidate
  OverlayMsgKind kind() const override { return OverlayMsgKind::kJoinCandidate; }
  const char* TypeName() const override { return "JoinCandidate"; }
};

struct JoinRequestMsg : OverlayMsg {
  NodeId joiner = kInvalidNode;
  /// The candidate code the joiner was told; if the parent's code has since
  /// changed (it split for someone else), the request is rejected so the
  /// joiner re-samples — this is what keeps the hypercube balanced despite
  /// stale peer-table entries.
  BitCode expected_parent_code;
  OverlayMsgKind kind() const override { return OverlayMsgKind::kJoinRequest; }
  const char* TypeName() const override { return "JoinRequest"; }
};

/// Why a candidate refused a JoinRequest (OverlayNode::OnJoinRequest).
enum class JoinRejectReason : uint8_t {
  kNotJoined,  // the candidate is not (or no longer) part of the overlay
  kPending,    // the candidate is already splitting for another joiner
  kMaxDepth,   // the candidate's code is at BitCode::kMaxLen
  kStaleCode,  // the candidate's code moved since the joiner was told it
};
constexpr int kJoinRejectReasons = 4;

struct JoinRejectMsg : OverlayMsg {
  JoinRejectReason reason = JoinRejectReason::kStaleCode;
  /// The rejecting node's actual code: lets the joiner heal the stale peer
  /// table that proposed this candidate (see PeerCodeCorrectionMsg).
  BitCode actual_code;
  OverlayMsgKind kind() const override { return OverlayMsgKind::kJoinReject; }
  const char* TypeName() const override { return "JoinReject"; }
};

/// Joiner -> proposer: "your peer table entry for `subject` is stale."
/// Without this, a stale shallow code would be proposed (and rejected)
/// forever once heartbeat refresh is disabled.
struct PeerCodeCorrectionMsg : OverlayMsg {
  NodeId subject = kInvalidNode;
  BitCode code;
  /// False when `subject` is not in the overlay at all: the proposer drops
  /// the entry instead of relabelling it (an unjoined node's empty code
  /// would otherwise look like the shallowest candidate to every joiner).
  bool joined = true;
  OverlayMsgKind kind() const override {
    return OverlayMsgKind::kPeerCodeCorrection;
  }
  const char* TypeName() const override { return "PeerCodeCorrection"; }
};

/// Parent asks each of its peers to add the joiner to their peer tables.
/// Carries the parent's (pre-split) depth: the paper's serialization rule
/// lets a join to a *shallower* parent preempt one to a deeper parent.
struct NeighborAddMsg : OverlayMsg {
  uint64_t join_id = 0;
  NodeId parent = kInvalidNode;
  int parent_depth = 0;
  NodeId joiner = kInvalidNode;
  BitCode joiner_code;
  BitCode parent_new_code;
  OverlayMsgKind kind() const override { return OverlayMsgKind::kNeighborAdd; }
  const char* TypeName() const override { return "NeighborAdd"; }
};

struct NeighborAddAckMsg : OverlayMsg {
  uint64_t join_id = 0;
  OverlayMsgKind kind() const override { return OverlayMsgKind::kNeighborAddAck; }
  const char* TypeName() const override { return "NeighborAddAck"; }
};

struct NeighborAddRejectMsg : OverlayMsg {
  uint64_t join_id = 0;
  OverlayMsgKind kind() const override {
    return OverlayMsgKind::kNeighborAddReject;
  }
  const char* TypeName() const override { return "NeighborAddReject"; }
};

/// Parent -> peers: the pending join was aborted; drop the staged entry
/// immediately (leaving it to expire would block later joins).
struct NeighborAddCancelMsg : OverlayMsg {
  uint64_t join_id = 0;
  OverlayMsgKind kind() const override {
    return OverlayMsgKind::kNeighborAddCancel;
  }
  const char* TypeName() const override { return "NeighborAddCancel"; }
};

/// Parent -> joiner: the join is committed. Carries the joiner's new code and
/// a snapshot of the parent's peer table (ids + last-known codes).
struct JoinCommitMsg : OverlayMsg {
  BitCode joiner_code;
  BitCode parent_new_code;
  NodeId parent = kInvalidNode;
  PeerTable peers;
  OverlayMsgKind kind() const override { return OverlayMsgKind::kJoinCommit; }
  const char* TypeName() const override { return "JoinCommit"; }
  size_t SizeBytes() const override { return 32 + 12 * peers.size(); }
};

/// Parent -> joiner: the in-flight join was preempted; retry.
struct JoinAbortMsg : OverlayMsg {
  OverlayMsgKind kind() const override { return OverlayMsgKind::kJoinAbort; }
  const char* TypeName() const override { return "JoinAbort"; }
};

/// Joiner -> parent: a JoinCommit arrived too late (the joiner already gave
/// up and retried elsewhere); the parent must undo its split.
struct JoinDeclineMsg : OverlayMsg {
  OverlayMsgKind kind() const override { return OverlayMsgKind::kJoinDecline; }
  const char* TypeName() const override { return "JoinDecline"; }
};

/// Parent -> its peers: the pending join committed; apply the staged update.
struct JoinCommitNotifyMsg : OverlayMsg {
  uint64_t join_id = 0;
  OverlayMsgKind kind() const override {
    return OverlayMsgKind::kJoinCommitNotify;
  }
  const char* TypeName() const override { return "JoinCommitNotify"; }
};

/// A node's code changed (join split or failure takeover).
struct CodeUpdateMsg : OverlayMsg {
  BitCode new_code;
  OverlayMsgKind kind() const override { return OverlayMsgKind::kCodeUpdate; }
  const char* TypeName() const override { return "CodeUpdate"; }
};

struct HeartbeatMsg : OverlayMsg {
  BitCode code;  // piggybacked so peers converge on current codes
  OverlayMsgKind kind() const override { return OverlayMsgKind::kHeartbeat; }
  const char* TypeName() const override { return "Heartbeat"; }
  size_t SizeBytes() const override { return 32; }
};

struct HeartbeatAckMsg : OverlayMsg {
  BitCode code;
  OverlayMsgKind kind() const override { return OverlayMsgKind::kHeartbeatAck; }
  const char* TypeName() const override { return "HeartbeatAck"; }
  size_t SizeBytes() const override { return 32; }
};

/// Expanding-ring scoped broadcast used when greedy routing dead-ends
/// (paper §3.8): find a node matching `target` at least `needed_cpl` bits.
struct RingFindMsg : OverlayMsg {
  uint64_t search_id = 0;
  BitCode target;
  int needed_cpl = 0;
  NodeId stuck_node = kInvalidNode;
  int ttl = 0;
  OverlayMsgKind kind() const override { return OverlayMsgKind::kRingFind; }
  const char* TypeName() const override { return "RingFind"; }
};

struct RingFoundMsg : OverlayMsg {
  uint64_t search_id = 0;
  BitCode code;
  OverlayMsgKind kind() const override { return OverlayMsgKind::kRingFound; }
  const char* TypeName() const override { return "RingFound"; }
};

/// Routed into the sibling subtree of a region whose owner died (and whose
/// exact sibling does not exist as a node): the all-zeros descendant of the
/// sibling subtree relabels itself to the vacant code — the paper's
/// "a node in the sibling sub-tree takes over", applied recursively.
struct RegionVacantMsg : OverlayMsg {
  BitCode vacant;
  OverlayMsgKind kind() const override { return OverlayMsgKind::kRegionVacant; }
  const char* TypeName() const override { return "RegionVacant"; }
};

/// Probe routed into a supposedly vacant region before absorbing it
/// (the paper's "probe liveness before repairing the overlay"). Any live
/// owner replies RegionAlive; a drop/timeout confirms the vacancy.
struct RegionProbeMsg : OverlayMsg {
  BitCode region;
  NodeId asker = kInvalidNode;
  uint64_t probe_id = 0;
  OverlayMsgKind kind() const override { return OverlayMsgKind::kRegionProbe; }
  const char* TypeName() const override { return "RegionProbe"; }
};

struct RegionAliveMsg : OverlayMsg {
  uint64_t probe_id = 0;
  OverlayMsgKind kind() const override { return OverlayMsgKind::kRegionAlive; }
  const char* TypeName() const override { return "RegionAlive"; }
};

/// Overlay-wide flood (index create/drop, cut-tree installation).
struct BroadcastMsg : OverlayMsg {
  uint64_t bcast_id = 0;  // (origin, seq) packed for dedup
  NodeId origin = kInvalidNode;
  MessagePtr inner;
  OverlayMsgKind kind() const override { return OverlayMsgKind::kBroadcast; }
  const char* TypeName() const override { return "Broadcast"; }
  size_t SizeBytes() const override {
    return 16 + (inner ? inner->SizeBytes() : 0);
  }
};

}  // namespace mind

#endif  // MIND_OVERLAY_MESSAGES_H_
