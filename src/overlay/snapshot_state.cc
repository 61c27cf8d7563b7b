// Overlay-node snapshot serialization (MSN1, DESIGN.md §14).
//
// The snapshot model is quiescent-except-timers: the only pending events a
// node may own at save time are its re-armable heartbeat timers. All
// transient protocol state (joins, retries, ring searches, vacancy repair)
// must have drained — each check below produces a precise error naming the
// structure still in flight, because a snapshot silently dropping an
// in-flight join would diverge from the straight-through run on restore.
#include <algorithm>
#include <string>
#include <vector>

#include "overlay/overlay_node.h"
#include "util/snapio.h"

namespace mind {

namespace {

// Sorted (NodeId, SimTime) view of an unordered map: the stream must not
// depend on hash-table iteration order.
std::vector<std::pair<NodeId, SimTime>> SortedTimeMap(
    const std::unordered_map<NodeId, SimTime>& m) {
  std::vector<std::pair<NodeId, SimTime>> v(m.begin(), m.end());
  std::sort(v.begin(), v.end());
  return v;
}

void WriteCode(SnapWriter* w, const BitCode& code) {
  w->U64(code.bits());
  w->U8(static_cast<uint8_t>(code.length()));
}

Result<BitCode> ReadCode(SnapReader* r, const char* field) {
  uint64_t bits;
  MIND_ASSIGN_OR_RETURN(bits, r->U64(field));
  uint8_t len;
  MIND_ASSIGN_OR_RETURN(len, r->U8(field));
  if (len > BitCode::kMaxLen) {
    return r->FieldError(field, "code length " + std::to_string(len) +
                                    " beyond " +
                                    std::to_string(BitCode::kMaxLen));
  }
  if (len < 64 && (bits >> len) != 0) {
    return r->FieldError(field, "code has bits above its length");
  }
  return BitCode::FromBits(bits, len);
}

Result<NodeId> ReadNodeId(SnapReader* r, const char* field, size_t fleet) {
  uint64_t raw;
  MIND_ASSIGN_OR_RETURN(raw, r->U64(field));
  const int64_t id = static_cast<int64_t>(raw);
  if (id != kInvalidNode && (id < 0 || static_cast<uint64_t>(id) >= fleet)) {
    return r->FieldError(field, "node id " + std::to_string(id) +
                                    " outside fleet of " +
                                    std::to_string(fleet));
  }
  return static_cast<NodeId>(id);
}

uint64_t IdBits(NodeId id) {
  return static_cast<uint64_t>(static_cast<int64_t>(id));
}

}  // namespace

bool OverlayNode::HasPendingHeartbeat() const {
  EventQueue::PendingInfo info;
  return heartbeat_timer_ != 0 && events_->EventInfo(heartbeat_timer_, &info);
}

Status OverlayNode::SaveSnapshotState(SnapWriter* w) const {
  // ---- quiescence: everything transient must have drained ----------------
  const std::string who = "overlay node " + std::to_string(id_);
  if (join_state_ != JoinState::kIdle) {
    return Status::Internal("snapshot: " + who +
                            " has a join attempt in flight (joiner side)");
  }
  if (pending_join_.has_value()) {
    return Status::Internal("snapshot: " + who +
                            " has a pending join (parent side, joiner " +
                            std::to_string(pending_join_->joiner) + ")");
  }
  if (!staged_adds_.empty()) {
    return Status::Internal("snapshot: " + who + " holds " +
                            std::to_string(staged_adds_.size()) +
                            " staged neighbor addition(s)");
  }
  if (!retry_.empty()) {
    return Status::Internal("snapshot: " + who + " holds " +
                            std::to_string(retry_.size()) +
                            " reliable-send retry queue(s)");
  }
  if (!ring_searches_.empty()) {
    return Status::Internal("snapshot: " + who + " has " +
                            std::to_string(ring_searches_.size()) +
                            " expanding-ring search(es) in flight");
  }
  if (!vacancy_probes_.empty()) {
    return Status::Internal("snapshot: " + who + " has " +
                            std::to_string(vacancy_probes_.size()) +
                            " vacancy probe(s) in flight");
  }
  if (!watches_.empty()) {
    return Status::Internal("snapshot: " + who + " has " +
                            std::to_string(watches_.size()) +
                            " vacancy watch(es) in flight");
  }
  EventQueue::PendingInfo join_pending;
  if (join_timer_ != 0 && events_->EventInfo(join_timer_, &join_pending)) {
    return Status::Internal("snapshot: " + who +
                            " has a live join retry timer");
  }

  // ---- durable state -----------------------------------------------------
  w->U8(alive_ ? 1 : 0);
  w->U8(joined_ ? 1 : 0);
  WriteCode(w, code_);
  w->U64(IdBits(join_parent_));

  w->U32(static_cast<uint32_t>(peers_.size()));
  for (const auto& [peer, pcode] : peers_) {  // NodeId-ascending by design
    w->U64(IdBits(peer));
    WriteCode(w, pcode);
  }

  const auto last_seen = SortedTimeMap(last_seen_);
  w->U32(static_cast<uint32_t>(last_seen.size()));
  for (const auto& [peer, t] : last_seen) {
    w->U64(IdBits(peer));
    w->U64(t);
  }

  const auto avoid = SortedTimeMap(avoid_until_);
  w->U32(static_cast<uint32_t>(avoid.size()));
  for (const auto& [peer, t] : avoid) {
    w->U64(IdBits(peer));
    w->U64(t);
  }

  // Id allocators: restoring these is what makes the unsaved dedup sets
  // safe — post-restore ids continue past every id ever issued.
  w->U64(join_seq_);
  w->U64(ring_seq_);
  w->U64(probe_seq_);
  w->U64(bcast_seq_);
  w->U32(static_cast<uint32_t>(join_failures_));

  // Heartbeat timer: the one event class allowed to be pending. Its keyed
  // ordering triple is saved so restore re-arms it digest-identically.
  EventQueue::PendingInfo hb;
  const bool hb_live =
      heartbeat_timer_ != 0 && events_->EventInfo(heartbeat_timer_, &hb);
  w->U8(hb_live ? 1 : 0);
  if (hb_live) {
    w->U64(hb.time);
    w->U8(hb.band);
    w->U64(hb.ukey);
  }

  WriteRngState(w, rng_);
  return Status::OK();
}

Status OverlayNode::LoadSnapshotState(SnapReader* r) {
  const size_t fleet = net_->host_count();

  uint8_t alive, joined;
  MIND_ASSIGN_OR_RETURN(alive, r->U8("overlay.alive"));
  MIND_ASSIGN_OR_RETURN(joined, r->U8("overlay.joined"));
  if (alive > 1 || joined > 1) {
    return r->FieldError("overlay.alive", "not a boolean");
  }
  alive_ = alive != 0;
  joined_ = joined != 0;
  if (joined_ && !alive_) {
    return r->FieldError("overlay.joined",
                         "node " + std::to_string(id_) +
                             " marked joined but not alive");
  }
  MIND_ASSIGN_OR_RETURN(code_, ReadCode(r, "overlay.code"));
  MIND_ASSIGN_OR_RETURN(join_parent_,
                        ReadNodeId(r, "overlay.join_parent", fleet));

  uint32_t peer_count;
  MIND_ASSIGN_OR_RETURN(peer_count, r->U32("overlay.peer_count"));
  if (peer_count > fleet) {
    return r->FieldError("overlay.peer_count", "more peers than hosts");
  }
  peers_.clear();
  NodeId prev_peer = kInvalidNode;
  for (uint32_t i = 0; i < peer_count; ++i) {
    NodeId peer;
    MIND_ASSIGN_OR_RETURN(peer, ReadNodeId(r, "overlay.peer.id", fleet));
    if (peer == kInvalidNode || peer == id_) {
      return r->FieldError("overlay.peer.id",
                           "node " + std::to_string(id_) +
                               " lists an invalid peer");
    }
    if (i > 0 && peer <= prev_peer) {
      return r->FieldError("overlay.peer.id", "peer ids not ascending");
    }
    prev_peer = peer;
    MIND_ASSIGN_OR_RETURN(peers_[peer], ReadCode(r, "overlay.peer.code"));
  }

  uint32_t seen_count;
  MIND_ASSIGN_OR_RETURN(seen_count, r->U32("overlay.last_seen.count"));
  last_seen_.clear();
  for (uint32_t i = 0; i < seen_count; ++i) {
    NodeId peer;
    MIND_ASSIGN_OR_RETURN(peer, ReadNodeId(r, "overlay.last_seen.id", fleet));
    MIND_ASSIGN_OR_RETURN(last_seen_[peer], r->U64("overlay.last_seen.time"));
  }

  uint32_t avoid_count;
  MIND_ASSIGN_OR_RETURN(avoid_count, r->U32("overlay.avoid.count"));
  avoid_until_.clear();
  for (uint32_t i = 0; i < avoid_count; ++i) {
    NodeId peer;
    MIND_ASSIGN_OR_RETURN(peer, ReadNodeId(r, "overlay.avoid.id", fleet));
    MIND_ASSIGN_OR_RETURN(avoid_until_[peer], r->U64("overlay.avoid.time"));
  }

  MIND_ASSIGN_OR_RETURN(join_seq_, r->U64("overlay.join_seq"));
  MIND_ASSIGN_OR_RETURN(ring_seq_, r->U64("overlay.ring_seq"));
  MIND_ASSIGN_OR_RETURN(probe_seq_, r->U64("overlay.probe_seq"));
  MIND_ASSIGN_OR_RETURN(bcast_seq_, r->U64("overlay.bcast_seq"));
  uint32_t failures;
  MIND_ASSIGN_OR_RETURN(failures, r->U32("overlay.join_failures"));
  join_failures_ = static_cast<int>(failures);

  uint8_t hb_live;
  MIND_ASSIGN_OR_RETURN(hb_live, r->U8("overlay.heartbeat.present"));
  if (hb_live > 1) {
    return r->FieldError("overlay.heartbeat.present", "not a boolean");
  }
  if (hb_live != 0) {
    SimTime hb_time;
    MIND_ASSIGN_OR_RETURN(hb_time, r->U64("overlay.heartbeat.time"));
    uint8_t band;
    MIND_ASSIGN_OR_RETURN(band, r->U8("overlay.heartbeat.band"));
    uint64_t ukey;
    MIND_ASSIGN_OR_RETURN(ukey, r->U64("overlay.heartbeat.ukey"));
    if (hb_time < events_->now()) {
      return r->FieldError("overlay.heartbeat.time",
                           "heartbeat at " + std::to_string(hb_time) +
                               " is before the restored clock " +
                               std::to_string(events_->now()));
    }
    heartbeat_timer_ = events_->ScheduleAtKeyed(
        hb_time, band, ukey, [this] { OnHeartbeatTimer(); });
  } else {
    heartbeat_timer_ = 0;
  }

  return ReadRngState(r, &rng_, "overlay.rng");
}

}  // namespace mind
