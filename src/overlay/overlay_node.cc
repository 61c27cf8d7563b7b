#include "overlay/overlay_node.h"

#include <algorithm>

#include "util/logging.h"
#include "util/ordered.h"
#include "util/validate.h"

namespace mind {

OverlayNode::OverlayNode(Simulator* sim, OverlayOptions options,
                         std::optional<GeoPoint> position)
    : sim_(sim),
      net_(&sim->network()),
      events_(&sim->events()),
      options_(options),
      rng_(options.seed) {
  id_ = position ? net_->AddHost(this, *position) : net_->AddHost(this);
  // Bind all of this node's timers and self-scheduled work to the queue that
  // owns its id — a shard queue under the parallel engine, the global queue
  // otherwise (where queue_for returns exactly &sim->events()).
  events_ = sim->queue_for(id_);
  rng_ = Rng(options.seed).Fork(static_cast<uint64_t>(id_) + 1);
  telemetry::MetricsRegistry& m = sim->metrics();
  tm_.delivered = &m.counter("overlay.route.delivered");
  tm_.forwarded = &m.counter("overlay.route.forwarded");
  tm_.dropped = &m.counter("overlay.route.dropped");
  tm_.dead_ends = &m.counter("overlay.route.dead_ends");
  tm_.ring_searches = &m.counter("overlay.ring.searches");
  tm_.ring_found = &m.counter("overlay.ring.found");
  tm_.join_attempts = &m.counter("overlay.join.attempts");
  tm_.join_rejects = &m.counter("overlay.join.rejects");
  tm_.join_reject_reasons = {
      &m.counter("overlay.join.rejects.not_joined"),
      &m.counter("overlay.join.rejects.pending"),
      &m.counter("overlay.join.rejects.max_depth"),
      &m.counter("overlay.join.rejects.stale_code")};
  tm_.join_preemptions = &m.counter("overlay.join.preemptions");
  tm_.takeovers = &m.counter("overlay.recovery.takeovers");
  tm_.peers_declared_dead = &m.counter("overlay.recovery.peers_declared_dead");
  tm_.heartbeats_sent = &m.counter("overlay.heartbeat.sent");
}

void OverlayNode::BecomeFirst() {
  MIND_CHECK(!joined_);
  joined_ = true;
  code_ = BitCode();
  if (options_.heartbeat_interval > 0 && heartbeat_timer_ == 0) {
    heartbeat_timer_ = events_->Schedule(options_.heartbeat_interval,
                                         [this] { OnHeartbeatTimer(); });
  }
  if (on_joined_) on_joined_();
}

void OverlayNode::Join(NodeId bootstrap) {
  MIND_CHECK(!joined_);
  MIND_CHECK_NE(bootstrap, id_);
  bootstrap_ = bootstrap;
  StartJoinAttempt();
}

void OverlayNode::Crash() {
  alive_ = false;
  joined_ = false;
  net_->SetNodeUp(id_, false);
  // Drop all volatile state; a revived node rejoins from scratch.
  code_ = BitCode();
  peers_.clear();
  last_seen_.clear();
  avoid_until_.clear();
  for (auto& [peer, rs] : retry_) {
    if (rs.timer) events_->Cancel(rs.timer);
  }
  retry_.clear();
  for (auto& [sid, rs] : ring_searches_) {
    if (rs.timeout_event) events_->Cancel(rs.timeout_event);
  }
  ring_searches_.clear();
  for (auto& [pid, vp] : vacancy_probes_) {
    if (vp.timeout_event) events_->Cancel(vp.timeout_event);
  }
  vacancy_probes_.clear();
  probed_regions_.clear();
  for (auto& [pid, w] : watches_) {
    if (w.timeout_event) events_->Cancel(w.timeout_event);
  }
  watches_.clear();
  staged_adds_.clear();
  if (pending_join_ && pending_join_->timeout_event) {
    events_->Cancel(pending_join_->timeout_event);
  }
  pending_join_.reset();
  CancelJoinTimer();
  join_state_ = JoinState::kIdle;
  if (heartbeat_timer_) {
    events_->Cancel(heartbeat_timer_);
    heartbeat_timer_ = 0;
  }
}

void OverlayNode::Revive(NodeId bootstrap) {
  MIND_CHECK(!alive_);
  alive_ = true;
  net_->SetNodeUp(id_, true);
  Join(bootstrap);
}

void OverlayNode::SetCode(BitCode new_code) {
  BitCode old = code_;
  code_ = std::move(new_code);
  if (on_code_change_) on_code_change_(old, code_);
}

void OverlayNode::AnnounceCode() {
  // Sorted so the send order (and thus event-queue order) never depends on
  // the peer table's hash layout.
  for (NodeId peer : SortedKeys(peers_)) {
    auto m = MakeMessage<CodeUpdateMsg>();
    m->new_code = code_;
    SendRaw(peer, m);
  }
}

void OverlayNode::SendRaw(NodeId to, MessagePtr msg) {
  net_->Send(id_, to, std::move(msg));
}

void OverlayNode::PrunePeers() {
  const int quota = options_.max_peers_per_level;
  if (static_cast<int>(peers_.size()) <= quota * (code_.length() + 1)) return;
  // Keep the sibling plus the lowest-id `quota` peers per common-prefix
  // level (deterministic). The table iterates in ascending id order, so
  // one pass that counts the peers kept at each level keeps exactly those.
  // The exact sibling is structurally special (takeover, replication): it
  // is kept beyond the quota and does not count against its level.
  std::array<int, BitCode::kMaxLen + 1> kept_at_level{};
  const bool has_sibling = code_.length() > 0;
  const BitCode sibling = has_sibling ? code_.Sibling() : BitCode();
  for (auto it = peers_.begin(); it != peers_.end();) {
    if (has_sibling && it->second == sibling) {
      ++it;
      continue;
    }
    int& kept = kept_at_level[code_.CommonPrefixLen(it->second)];
    if (kept < quota) {
      ++kept;
      ++it;
    } else {
      it = peers_.erase(it);
    }
  }
}

void OverlayNode::SendDirect(NodeId to, MessagePtr msg) {
  if (!alive_) return;
  SendRaw(to, std::move(msg));
}

void OverlayNode::AdoptIntoEmptyLevel(NodeId from, const BitCode& code) {
  if (!joined_ || from == id_ || peers_.count(from) != 0) return;
  const int level = code_.CommonPrefixLen(code);
  // An overlapping code owns no region beside ours; never a routing peer.
  if (level >= std::min(code_.length(), code.length())) return;
  for (const auto& [peer, pcode] : peers_) {
    if (code_.CommonPrefixLen(pcode) == level) return;
  }
  peers_[from] = code;
}

bool OverlayNode::OwnsTarget(const BitCode& target) const {
  int cpl = code_.CommonPrefixLen(target);
  return cpl == std::min(code_.length(), target.length());
}

NodeId OverlayNode::BestNextHop(const BitCode& target) const {
  const SimTime now = events_->now();
  const int my_cpl = code_.CommonPrefixLen(target);
  NodeId best = kInvalidNode;
  int best_cpl = my_cpl;
  for (const auto& [peer, pcode] : peers_) {
    auto avoid = avoid_until_.find(peer);
    if (avoid != avoid_until_.end() && avoid->second > now) continue;
    int cpl = pcode.CommonPrefixLen(target);
    // Ties broken toward the smaller id: the winner must not depend on the
    // peer table's iteration order, or routing diverges across stdlibs.
    if (cpl > best_cpl ||
        (cpl == best_cpl && best != kInvalidNode && peer < best)) {
      best_cpl = cpl;
      best = peer;
    }
  }
  return best;
}

void OverlayNode::Route(const BitCode& target, MessagePtr inner) {
  if (!alive_) return;
  auto env = MakeMessage<RouteEnvelope>();
  env->target = target;
  env->hops = 0;
  env->max_hops = options_.route_max_hops;
  env->origin = id_;
  env->inner = std::move(inner);
  ProcessEnvelope(std::move(env));
}

void OverlayNode::ProcessEnvelope(std::shared_ptr<RouteEnvelope> env) {
  if (!alive_ || !joined_) {
    tm_.dropped->Inc();
    return;
  }
  if (OwnsTarget(env->target)) {
    tm_.delivered->Inc();
    // Routed overlay-control payloads (JoinFind) are handled internally;
    // everything else goes up to the application.
    if (env->inner != nullptr && env->inner->IsOverlay()) {
      auto* om = static_cast<OverlayMsg*>(env->inner.get());
      if (om->kind() == OverlayMsgKind::kJoinFind) {
        OnJoinFind(static_cast<const JoinFindMsg&>(*om));
      } else if (om->kind() == OverlayMsgKind::kRegionVacant) {
        OnRegionVacant(static_cast<const RegionVacantMsg&>(*om));
      } else if (om->kind() == OverlayMsgKind::kRegionProbe) {
        OnRegionProbe(static_cast<const RegionProbeMsg&>(*om));
      }
      return;
    }
    if (on_deliver_) on_deliver_(env->origin, env->inner, env->hops);
    return;
  }
  if (env->hops >= env->max_hops) {
    tm_.dropped->Inc();
    return;
  }
  NodeId next = BestNextHop(env->target);
  if (next == kInvalidNode) {
    tm_.dead_ends->Inc();
    StartRingSearch(std::move(env));
    return;
  }
  env->hops++;
  tm_.forwarded->Inc();
  if (on_forward_) on_forward_(env->inner);
  SendRaw(next, std::move(env));
}

std::vector<NodeId> OverlayNode::ReplicationTargets(int m) const {
  std::vector<NodeId> out;
  if (m < 0) {
    out.reserve(peers_.size());
    for (const auto& [peer, pcode] : peers_) out.push_back(peer);
    std::sort(out.begin(), out.end());
    return out;
  }
  const int len = code_.length();
  for (int level = 1; level <= m; ++level) {
    const int want_cpl = len - level;
    if (want_cpl < 0) break;
    // The replication peer for this level agrees with us on exactly
    // want_cpl bits.
    NodeId best = kInvalidNode;
    for (const auto& [peer, pcode] : peers_) {
      if (code_.CommonPrefixLen(pcode) == want_cpl) {
        if (best == kInvalidNode || peer < best) best = peer;  // deterministic
      }
    }
    if (best != kInvalidNode) out.push_back(best);
  }
  return out;
}

void OverlayNode::Broadcast(MessagePtr inner) {
  if (!alive_) return;
  auto b = MakeMessage<BroadcastMsg>();
  b->origin = id_;
  b->bcast_id = (static_cast<uint64_t>(static_cast<uint32_t>(id_)) << 32) |
                (++bcast_seq_);
  b->inner = std::move(inner);
  OnBroadcastMsg(id_, b);
}

bool OverlayNode::MarkBroadcastSeen(uint64_t bcast_id) {
  BcastSeen& seen = bcast_seen_[static_cast<uint32_t>(bcast_id >> 32)];
  const uint32_t seq = static_cast<uint32_t>(bcast_id);
  if (seq <= seen.floor) return false;
  auto it = std::lower_bound(seen.above.begin(), seen.above.end(), seq);
  if (it != seen.above.end() && *it == seq) return false;
  seen.above.insert(it, seq);
  size_t filled = 0;
  while (filled < seen.above.size() &&
         seen.above[filled] == seen.floor + 1) {
    ++seen.floor;
    ++filled;
  }
  seen.above.erase(seen.above.begin(), seen.above.begin() + filled);
  return true;
}

void OverlayNode::OnBroadcastMsg(NodeId from,
                                 const std::shared_ptr<BroadcastMsg>& b) {
  if (!MarkBroadcastSeen(b->bcast_id)) return;
  if (on_broadcast_) on_broadcast_(b->origin, b->inner);
  // Sorted fan-out: flood order must not leak hash-table iteration order.
  for (NodeId peer : SortedKeys(peers_)) {
    if (peer == from) continue;
    SendRaw(peer, b);
  }
}

void OverlayNode::HandleMessage(NodeId from, const MessagePtr& msg) {
  if (!alive_) return;
  auto* om = msg->IsOverlay() ? static_cast<OverlayMsg*>(msg.get()) : nullptr;
  if (om == nullptr) {
    // Application-level direct traffic (query replies, replication, ...).
    NotePeerAlive(from, nullptr);
    if (on_direct_) on_direct_(from, msg);
    return;
  }
  NotePeerAlive(from, nullptr);
  switch (om->kind()) {
    case OverlayMsgKind::kRouteEnvelope:
      ProcessEnvelope(std::static_pointer_cast<RouteEnvelope>(msg));
      break;
    case OverlayMsgKind::kJoinFind:
      OnJoinFind(static_cast<const JoinFindMsg&>(*om));
      break;
    case OverlayMsgKind::kJoinCandidate:
      OnJoinCandidate(static_cast<const JoinCandidateMsg&>(*om));
      break;
    case OverlayMsgKind::kJoinRequest:
      OnJoinRequest(from, static_cast<const JoinRequestMsg&>(*om));
      break;
    case OverlayMsgKind::kJoinReject: {
      if (join_state_ == JoinState::kWaitCommit ||
          join_state_ == JoinState::kWaitCandidate) {
        tm_.join_rejects->Inc();
        // Heal the stale peer table that proposed this candidate, or the
        // same dead-end proposal would recur indefinitely.
        const auto& rej = static_cast<const JoinRejectMsg&>(*om);
        if (join_state_ == JoinState::kWaitCommit &&
            join_proposer_ != kInvalidNode && from == join_candidate_) {
          auto fix = MakeMessage<PeerCodeCorrectionMsg>();
          fix->subject = from;
          fix->code = rej.actual_code;
          fix->joined = rej.reason != JoinRejectReason::kNotJoined;
          SendRaw(join_proposer_, fix);
        }
        ScheduleJoinRetry();
      }
      break;
    }
    case OverlayMsgKind::kNeighborAdd:
      OnNeighborAdd(from, static_cast<const NeighborAddMsg&>(*om));
      break;
    case OverlayMsgKind::kNeighborAddAck:
      OnNeighborAddAck(from, static_cast<const NeighborAddAckMsg&>(*om));
      break;
    case OverlayMsgKind::kNeighborAddReject:
      OnNeighborAddReject(static_cast<const NeighborAddRejectMsg&>(*om));
      break;
    case OverlayMsgKind::kNeighborAddCancel: {
      const auto& c = static_cast<const NeighborAddCancelMsg&>(*om);
      auto it = staged_adds_.find(c.join_id);
      if (it != staged_adds_.end()) {
        if (it->second.expiry_event) events_->Cancel(it->second.expiry_event);
        staged_adds_.erase(it);
      }
      break;
    }
    case OverlayMsgKind::kJoinCommit:
      OnJoinCommit(from, static_cast<const JoinCommitMsg&>(*om));
      break;
    case OverlayMsgKind::kJoinAbort:
      OnJoinAbort();
      break;
    case OverlayMsgKind::kJoinDecline:
      OnJoinDecline(from);
      break;
    case OverlayMsgKind::kJoinCommitNotify:
      OnJoinCommitNotify(from, static_cast<const JoinCommitNotifyMsg&>(*om));
      break;
    case OverlayMsgKind::kPeerCodeCorrection: {
      const auto& fix = static_cast<const PeerCodeCorrectionMsg&>(*om);
      auto it = peers_.find(fix.subject);
      if (it == peers_.end()) break;
      if (!fix.joined) {
        // A ghost left behind by an aborted join: it owns no region.
        peers_.erase(it);
      } else {
        it->second = fix.code;
      }
      break;
    }
    case OverlayMsgKind::kCodeUpdate: {
      const auto& cu = static_cast<const CodeUpdateMsg&>(*om);
      auto it = peers_.find(from);
      if (it != peers_.end()) {
        BitCode old = it->second;
        it->second = cu.new_code;
        // Cascade: our exact sibling relabeled away into a vacant region
        // elsewhere; its old slot (our sibling region) is now empty and we
        // absorb it. (Not triggered by a split — then the old code is a
        // prefix of the new one — nor by a takeover that absorbed *us* —
        // then the new code is a prefix of ours.)
        if (code_.length() > 0 && old == code_.Sibling() &&
            old != cu.new_code && !old.IsPrefixOf(cu.new_code) &&
            !cu.new_code.IsPrefixOf(code_)) {
          tm_.takeovers->Inc();
          SetCode(code_.Parent());
          AnnounceCode();
          if (on_takeover_) on_takeover_(old);
        }
      }
      break;
    }
    case OverlayMsgKind::kHeartbeat: {
      const auto& hb = static_cast<const HeartbeatMsg&>(*om);
      AdoptIntoEmptyLevel(from, hb.code);
      NotePeerAlive(from, &hb.code);
      auto ack = MakeMessage<HeartbeatAckMsg>();
      ack->code = code_;
      SendRaw(from, ack);
      break;
    }
    case OverlayMsgKind::kHeartbeatAck: {
      const auto& hb = static_cast<const HeartbeatAckMsg&>(*om);
      NotePeerAlive(from, &hb.code);
      break;
    }
    case OverlayMsgKind::kRingFind:
      OnRingFind(from, std::static_pointer_cast<RingFindMsg>(msg));
      break;
    case OverlayMsgKind::kRingFound:
      OnRingFound(from, static_cast<const RingFoundMsg&>(*om));
      break;
    case OverlayMsgKind::kRegionVacant:
    case OverlayMsgKind::kRegionProbe:
      // These only arrive as routed-envelope payloads (handled on delivery).
      break;
    case OverlayMsgKind::kRegionAlive:
      OnRegionAlive(static_cast<const RegionAliveMsg&>(*om));
      break;
    case OverlayMsgKind::kBroadcast:
      OnBroadcastMsg(from, std::static_pointer_cast<BroadcastMsg>(msg));
      break;
  }
}

void OverlayNode::HandleSendFailure(NodeId to, const MessagePtr& msg) {
  if (!alive_) return;
  auto* om = msg->IsOverlay() ? static_cast<OverlayMsg*>(msg.get()) : nullptr;
  if (om != nullptr) {
    switch (om->kind()) {
      case OverlayMsgKind::kHeartbeat:
      case OverlayMsgKind::kHeartbeatAck:
        // Failure detection is handled by the heartbeat timer; no retry.
        return;
      case OverlayMsgKind::kRingFind:
      case OverlayMsgKind::kRingFound:
      case OverlayMsgKind::kBroadcast:
        // Best-effort traffic.
        return;
      default:
        break;
    }
  }
  QueueForRetry(to, msg);
}

}  // namespace mind
