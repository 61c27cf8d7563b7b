// The randomized join protocol (paper §3.3, Figure 4).
//
// A joiner routes a JoinFind to a uniformly random code; the owner proposes
// the shallowest node of its neighborhood as attachment point. The joiner
// asks that node (the "parent") to split: parent extends its code with 0, the
// joiner takes the sibling code ending in 1, and the parent's peers stage the
// new neighbor. Concurrent joins serialize without deadlock: every node acks
// optimistically, but a staged join is preempted by a competing join whose
// parent is *shallower*; the preempted joiner aborts and retries.
#include "overlay/overlay_node.h"
#include "util/logging.h"
#include "util/ordered.h"

namespace mind {

void OverlayNode::CancelJoinTimer() {
  if (join_timer_) {
    events_->Cancel(join_timer_);
    join_timer_ = 0;
  }
}

void OverlayNode::ScheduleJoinRetry() {
  CancelJoinTimer();
  join_state_ = JoinState::kIdle;
  join_candidate_ = kInvalidNode;
  // Exponential backoff with jitter: under a burst of concurrent joins the
  // contenders must decongest or they preempt each other forever.
  join_failures_ = std::min(join_failures_ + 1, 6);
  SimTime base = options_.join_retry_delay << (join_failures_ - 1);
  SimTime delay = base + static_cast<SimTime>(rng_.Uniform(base));
  join_timer_ = events_->Schedule(delay, [this] {
    join_timer_ = 0;
    if (alive_ && !joined_) StartJoinAttempt();
  });
}

void OverlayNode::StartJoinAttempt() {
  if (!alive_ || joined_) return;
  tm_.join_attempts->Inc();
  join_state_ = JoinState::kWaitCandidate;

  // Route a JoinFind to a uniformly random point of the code space through
  // the bootstrap node.
  auto find = MakeMessage<JoinFindMsg>();
  find->joiner = id_;
  auto env = MakeMessage<RouteEnvelope>();
  env->target = BitCode::FromBits(rng_.Next(), BitCode::kMaxLen);
  env->max_hops = options_.route_max_hops;
  env->origin = id_;
  env->inner = find;
  SendRaw(bootstrap_, env);

  CancelJoinTimer();
  join_timer_ = events_->Schedule(options_.join_phase_timeout, [this] {
    join_timer_ = 0;
    if (alive_ && !joined_) ScheduleJoinRetry();
  });
}

void OverlayNode::OnJoinFind(const JoinFindMsg& m) {
  if (!joined_) return;
  // Choose the shallowest node in our neighborhood (ourselves included);
  // ties break randomly to avoid herding every concurrent joiner onto the
  // same parent.
  NodeId best = id_;
  BitCode best_code = code_;
  int ties = 1;
  // Sorted iteration: the reservoir sample below both consumes rng_ draws
  // and picks the winner in visit order, so hash-layout order would make
  // the choice (and the rng stream) diverge across runs.
  for (NodeId peer : SortedKeys(peers_)) {
    const BitCode& pcode = peers_.find(peer)->second;
    if (pcode.length() < best_code.length()) {
      best = peer;
      best_code = pcode;
      ties = 1;
    } else if (pcode.length() == best_code.length()) {
      ++ties;
      if (rng_.Uniform(static_cast<uint64_t>(ties)) == 0) {
        best = peer;
        best_code = pcode;
      }
    }
  }
  auto reply = MakeMessage<JoinCandidateMsg>();
  reply->candidate = best;
  reply->candidate_code = best_code;
  reply->proposer = id_;
  SendRaw(m.joiner, reply);
}

void OverlayNode::OnJoinCandidate(const JoinCandidateMsg& m) {
  if (joined_ || join_state_ != JoinState::kWaitCandidate) return;
  join_state_ = JoinState::kWaitCommit;
  join_candidate_ = m.candidate;
  join_proposer_ = m.proposer;
  auto req = MakeMessage<JoinRequestMsg>();
  req->joiner = id_;
  req->expected_parent_code = m.candidate_code;
  SendRaw(m.candidate, req);
  CancelJoinTimer();
  join_timer_ = events_->Schedule(options_.join_phase_timeout, [this] {
    join_timer_ = 0;
    if (alive_ && !joined_) ScheduleJoinRetry();
  });
}

void OverlayNode::OnJoinRequest(NodeId from, const JoinRequestMsg& m) {
  MIND_CHECK_EQ(from, m.joiner);
  std::optional<JoinRejectReason> reject;
  if (!joined_) {
    reject = JoinRejectReason::kNotJoined;
  } else if (pending_join_.has_value()) {
    reject = JoinRejectReason::kPending;
  } else if (code_.length() >= BitCode::kMaxLen) {
    reject = JoinRejectReason::kMaxDepth;
  } else if (m.expected_parent_code != code_) {
    // The depth-mismatch reject matters for balance: the joiner selected us
    // from a possibly stale peer table; if we've split since, we are no
    // longer the shallowest choice and the joiner must re-sample.
    reject = JoinRejectReason::kStaleCode;
  }
  if (reject) {
    tm_.join_reject_reasons[static_cast<int>(*reject)]->Inc();
    auto rej = MakeMessage<JoinRejectMsg>();
    rej->reason = *reject;
    rej->actual_code = code_;
    SendRaw(from, rej);
    return;
  }

  PendingJoin pj;
  pj.join_id = (static_cast<uint64_t>(static_cast<uint32_t>(id_)) << 32) |
               (++join_seq_);
  pj.joiner = m.joiner;
  pj.joiner_code = code_.Child(1);
  pj.my_new_code = code_.Child(0);
  for (const auto& [peer, pcode] : peers_) pj.awaiting_acks.insert(peer);
  pending_join_ = std::move(pj);

  if (pending_join_->awaiting_acks.empty()) {
    // Singleton overlay: commit immediately.
    CommitPendingJoin();
    return;
  }

  for (NodeId peer : SortedKeys(peers_)) {
    auto add = MakeMessage<NeighborAddMsg>();
    add->join_id = pending_join_->join_id;
    add->parent = id_;
    add->parent_depth = code_.length();
    add->joiner = pending_join_->joiner;
    add->joiner_code = pending_join_->joiner_code;
    add->parent_new_code = pending_join_->my_new_code;
    SendRaw(peer, add);
  }
  pending_join_->timeout_event =
      events_->Schedule(options_.join_phase_timeout, [this] {
        if (pending_join_) {
          pending_join_->timeout_event = 0;
          AbortPendingJoin(/*notify_joiner=*/true);
        }
      });
}

void OverlayNode::OnNeighborAdd(NodeId from, const NeighborAddMsg& m) {
  if (!joined_) {
    SendRaw(from, [&] {
      auto r = MakeMessage<NeighborAddRejectMsg>();
      r->join_id = m.join_id;
      return r;
    }());
    return;
  }

  // Serialization rule: a join whose parent is shallower wins.
  // (a) Against our own pending join (we are a parent too).
  if (pending_join_.has_value()) {
    if (m.parent_depth < code_.length()) {
      tm_.join_preemptions->Inc();
      AbortPendingJoin(/*notify_joiner=*/true);
      // fall through to accept the shallower join
    } else {
      auto r = MakeMessage<NeighborAddRejectMsg>();
      r->join_id = m.join_id;
      SendRaw(from, r);
      return;
    }
  }
  // (b) Against other staged joins in this neighborhood. Scanned in join-id
  // order: when the table holds both a join this one preempts and a join
  // that rejects this one, which happens first decides what state survives,
  // so the scan order must not depend on the hash layout.
  for (uint64_t staged_id : SortedKeys(staged_adds_)) {
    auto it = staged_adds_.find(staged_id);
    if (m.parent_depth < it->second.parent_depth) {
      // New join preempts the staged one: tell its parent.
      auto r = MakeMessage<NeighborAddRejectMsg>();
      r->join_id = it->first;
      SendRaw(it->second.parent, r);
      if (it->second.expiry_event) events_->Cancel(it->second.expiry_event);
      staged_adds_.erase(it);
      tm_.join_preemptions->Inc();
    } else if (it->second.parent_depth < m.parent_depth ||
               it->second.parent != m.parent) {
      // An equally-or-more shallow staged join exists: reject the newcomer.
      auto r = MakeMessage<NeighborAddRejectMsg>();
      r->join_id = m.join_id;
      SendRaw(from, r);
      return;
    }
  }

  StagedAdd staged;
  staged.parent = m.parent;
  staged.parent_depth = m.parent_depth;
  staged.joiner = m.joiner;
  staged.joiner_code = m.joiner_code;
  staged.parent_new_code = m.parent_new_code;
  uint64_t join_id = m.join_id;
  staged.expiry_event = events_->Schedule(
      4 * options_.join_phase_timeout,
      [this, join_id] { staged_adds_.erase(join_id); });
  staged_adds_[join_id] = std::move(staged);

  auto ack = MakeMessage<NeighborAddAckMsg>();
  ack->join_id = m.join_id;
  SendRaw(from, ack);
}

void OverlayNode::OnNeighborAddAck(NodeId from, const NeighborAddAckMsg& m) {
  if (!pending_join_ || pending_join_->join_id != m.join_id) return;
  pending_join_->awaiting_acks.erase(from);
  if (pending_join_->awaiting_acks.empty()) CommitPendingJoin();
}

void OverlayNode::OnNeighborAddReject(const NeighborAddRejectMsg& m) {
  if (!pending_join_ || pending_join_->join_id != m.join_id) return;
  AbortPendingJoin(/*notify_joiner=*/true);
}

void OverlayNode::CommitPendingJoin() {
  MIND_CHECK(pending_join_.has_value());
  PendingJoin pj = std::move(*pending_join_);
  pending_join_.reset();
  if (pj.timeout_event) events_->Cancel(pj.timeout_event);

  // Build the peer snapshot for the joiner before we mutate our table.
  auto commit = MakeMessage<JoinCommitMsg>();
  commit->joiner_code = pj.joiner_code;
  commit->parent_new_code = pj.my_new_code;
  commit->parent = id_;
  commit->peers = peers_;

  SetCode(pj.my_new_code);
  peers_[pj.joiner] = pj.joiner_code;
  PrunePeers();
  AnnounceCode();

  SendRaw(pj.joiner, commit);
  for (NodeId peer : SortedKeys(peers_)) {
    if (peer == pj.joiner) continue;
    auto notify = MakeMessage<JoinCommitNotifyMsg>();
    notify->join_id = pj.join_id;
    SendRaw(peer, notify);
  }
}

void OverlayNode::AbortPendingJoin(bool notify_joiner) {
  if (!pending_join_) return;
  if (pending_join_->timeout_event) {
    events_->Cancel(pending_join_->timeout_event);
  }
  if (notify_joiner) {
    SendRaw(pending_join_->joiner, MakeMessage<JoinAbortMsg>());
  }
  // Tell peers to drop their staged entries right away: a stale staged add
  // blocks later joins in this neighborhood until it expires.
  for (NodeId peer : SortedKeys(peers_)) {
    auto cancel = MakeMessage<NeighborAddCancelMsg>();
    cancel->join_id = pending_join_->join_id;
    SendRaw(peer, cancel);
  }
  pending_join_.reset();
}

void OverlayNode::OnJoinCommit(NodeId from, const JoinCommitMsg& m) {
  if (joined_ || join_state_ != JoinState::kWaitCommit ||
      join_candidate_ != from) {
    // The commit raced with our timeout/retry: the parent split for nothing
    // and must undo, or the region ending in ...1 would be orphaned.
    SendRaw(from, MakeMessage<JoinDeclineMsg>());
    return;
  }
  CancelJoinTimer();
  join_state_ = JoinState::kIdle;
  join_failures_ = 0;
  joined_ = true;
  code_ = m.joiner_code;
  peers_ = m.peers;
  peers_[m.parent] = m.parent_new_code;
  join_parent_ = m.parent;
  PrunePeers();
  if (options_.heartbeat_interval > 0 && heartbeat_timer_ == 0) {
    heartbeat_timer_ = events_->Schedule(options_.heartbeat_interval,
                                         [this] { OnHeartbeatTimer(); });
  }
  if (on_code_change_) on_code_change_(BitCode(), code_);
  if (on_joined_) on_joined_();
  (void)from;
}

void OverlayNode::OnJoinDecline(NodeId from) {
  // Our committed joiner never took its code: undo the split.
  if (!joined_) return;
  auto it = peers_.find(from);
  if (it == peers_.end()) return;
  if (!(code_.length() > 0 && it->second == code_.Sibling())) return;
  peers_.erase(it);
  SetCode(code_.Parent());
  AnnounceCode();
}

void OverlayNode::OnJoinAbort() {
  if (joined_ || join_state_ != JoinState::kWaitCommit) return;
  ScheduleJoinRetry();
}

void OverlayNode::OnJoinCommitNotify(NodeId from,
                                     const JoinCommitNotifyMsg& m) {
  auto it = staged_adds_.find(m.join_id);
  if (it == staged_adds_.end()) return;
  const StagedAdd& s = it->second;
  MIND_CHECK_EQ(s.parent, from);
  peers_[s.joiner] = s.joiner_code;
  peers_[s.parent] = s.parent_new_code;
  if (s.expiry_event) events_->Cancel(s.expiry_event);
  staged_adds_.erase(it);
  PrunePeers();
}

}  // namespace mind
