// Failure handling (paper §3.8): reconnect backoff on transient link
// failures, heartbeat-based failure detection, sibling takeover by code
// shortening, and expanding-ring recovery when greedy routing dead-ends.
#include "overlay/overlay_node.h"
#include "util/logging.h"
#include "util/ordered.h"

namespace mind {

void OverlayNode::OnHeartbeatTimer() {
  heartbeat_timer_ = 0;
  if (!alive_ || !joined_) return;
  const SimTime now = events_->now();
  const SimTime deadline =
      options_.heartbeat_interval *
      static_cast<SimTime>(options_.heartbeat_miss_limit);

  // Collect the dead first: DeclarePeerDead mutates peers_. Sorted order so
  // takeover/vacancy-watch cascades fire identically on every run.
  std::vector<NodeId> dead;
  for (NodeId peer : SortedKeys(peers_)) {
    auto it = last_seen_.find(peer);
    SimTime seen = (it == last_seen_.end()) ? 0 : it->second;
    if (seen == 0) {
      // Never heard from this peer: start its clock now.
      last_seen_[peer] = now;
      continue;
    }
    if (now - seen > deadline) dead.push_back(peer);
  }
  for (NodeId peer : dead) DeclarePeerDead(peer);

  for (NodeId peer : SortedKeys(peers_)) {
    auto hb = MakeMessage<HeartbeatMsg>();
    hb->code = code_;
    SendRaw(peer, hb);
    tm_.heartbeats_sent->Inc();
  }
  heartbeat_timer_ = events_->Schedule(options_.heartbeat_interval,
                                       [this] { OnHeartbeatTimer(); });
}

void OverlayNode::NotePeerAlive(NodeId peer, const BitCode* code_hint) {
  // last_seen_ is only ever read by OnHeartbeatTimer; skip the per-message
  // map write when failure detection is off.
  if (options_.heartbeat_interval > 0) last_seen_[peer] = events_->now();
  if (code_hint != nullptr) {
    auto it = peers_.find(peer);
    if (it != peers_.end()) it->second = *code_hint;
  }
}

void OverlayNode::DeclarePeerDead(NodeId peer) {
  auto it = peers_.find(peer);
  if (it == peers_.end()) return;
  BitCode peer_code = it->second;
  peers_.erase(it);
  last_seen_.erase(peer);
  tm_.peers_declared_dead->Inc();

  auto rit = retry_.find(peer);
  if (rit != retry_.end()) {
    if (rit->second.timer) events_->Cancel(rit->second.timer);
    retry_.erase(rit);
  }

  // Sibling takeover: absorb the failed sibling's region by shortening our
  // code (§3.8). Replicas of its data are already here when replication >= 1.
  // Guard: a recursive takeover may already have relabeled another node into
  // that region (the dead peer's code can be stale) — never absorb a region
  // a live peer covers.
  if (code_.length() > 0 && peer_code == code_.Sibling() &&
      !RegionCoveredByPeer(peer_code)) {
    tm_.takeovers->Inc();
    BitCode absorbed = peer_code;
    SetCode(code_.Parent());
    AnnounceCode();
    if (on_takeover_) on_takeover_(absorbed);
    return;
  }

  // The dead peer's exact sibling may not exist as a node (its sibling is a
  // subtree), or may be dead too. Watch the region: probe, notify the
  // sibling subtree, re-probe and escalate upward until some live branch
  // absorbs the vacancy (recursive takeover, §3.8).
  if (peer_code.length() > 0) {
    StartVacancyWatch(peer_code, options_.vacancy_escalations,
                      /*recheck_phase=*/false);
  }
}

void OverlayNode::StartVacancyWatch(const BitCode& region,
                                    int escalations_left, bool recheck_phase) {
  if (!alive_ || !joined_ || region.length() == 0) return;
  // If we cover it or know someone who does, nothing to repair.
  int cpl = code_.CommonPrefixLen(region);
  if (cpl == std::min(code_.length(), region.length())) return;
  if (RegionCoveredByPeer(region)) return;

  uint64_t probe_id =
      (static_cast<uint64_t>(static_cast<uint32_t>(id_)) << 32) | (++probe_seq_);
  auto probe = MakeMessage<RegionProbeMsg>();
  probe->region = region;
  probe->asker = id_;
  probe->probe_id = probe_id;
  BitCode target = region;
  while (target.length() < BitCode::kMaxLen) target.PushBack(0);
  Route(target, probe);

  VacancyWatch w;
  w.region = region;
  w.escalations_left = escalations_left;
  w.recheck_phase = recheck_phase;
  w.timeout_event = events_->Schedule(2 * options_.region_probe_timeout,
                                      [this, probe_id] {
                                        OnWatchTimeout(probe_id);
                                      });
  watches_[probe_id] = std::move(w);
}

void OverlayNode::OnWatchTimeout(uint64_t probe_id) {
  auto it = watches_.find(probe_id);
  if (it == watches_.end()) return;
  VacancyWatch w = std::move(it->second);
  watches_.erase(it);
  if (!alive_ || !joined_) return;

  if (!w.recheck_phase) {
    // The region is dead: tell its sibling subtree to absorb it, then
    // re-check whether the takeover happened.
    NotifyRegionVacant(w.region);
    StartVacancyWatch(w.region, w.escalations_left, /*recheck_phase=*/true);
    return;
  }
  // Still dead after the notice: the sibling subtree must be dead as well —
  // escalate to the parent region so the next level's sibling absorbs both.
  if (w.escalations_left > 0 && w.region.length() > 1) {
    StartVacancyWatch(w.region.Parent(), w.escalations_left - 1,
                      /*recheck_phase=*/false);
  }
}

void OverlayNode::NotifyRegionVacant(const BitCode& region) {
  auto vacant = MakeMessage<RegionVacantMsg>();
  vacant->vacant = region;
  BitCode target = region.Sibling();
  while (target.length() < BitCode::kMaxLen) target.PushBack(0);
  Route(target, vacant);
}

bool OverlayNode::RegionCoveredByPeer(const BitCode& p) const {
  for (const auto& [peer, pcode] : peers_) {
    if (p.IsPrefixOf(pcode) || pcode.IsPrefixOf(p)) return true;
  }
  return false;
}

void OverlayNode::OnRegionVacant(const RegionVacantMsg& m) {
  const BitCode& p = m.vacant;
  const int len = p.length();
  if (len == 0 || code_.length() < len) return;
  if (RegionCoveredByPeer(p)) return;
  // Check we are structurally eligible before spending a probe.
  bool exact_sibling = (code_.length() == len && code_ == p.Sibling());
  bool zeros_descendant = false;
  if (code_.length() > len && code_.Prefix(len) == p.Sibling()) {
    zeros_descendant = true;
    for (int i = len; i < code_.length(); ++i) {
      if (code_.bit(i) != 0) zeros_descendant = false;
    }
  }
  if (!exact_sibling && !zeros_descendant) return;

  // Probe-before-repair: a takeover elsewhere may already have filled the
  // region; only absorb if nobody answers for it.
  uint64_t region_hash = BitCode::Hash{}(p);
  if (!probed_regions_.insert(region_hash).second) return;  // probe in flight
  uint64_t probe_id =
      (static_cast<uint64_t>(static_cast<uint32_t>(id_)) << 32) | (++probe_seq_);
  auto probe = MakeMessage<RegionProbeMsg>();
  probe->region = p;
  probe->asker = id_;
  probe->probe_id = probe_id;
  BitCode target = p;
  while (target.length() < BitCode::kMaxLen) target.PushBack(0);
  Route(target, probe);

  VacancyProbe vp;
  vp.region = p;
  vp.timeout_event =
      events_->Schedule(options_.region_probe_timeout, [this, probe_id,
                                                        region_hash] {
        auto it = vacancy_probes_.find(probe_id);
        if (it == vacancy_probes_.end()) return;
        BitCode region = it->second.region;
        vacancy_probes_.erase(it);
        probed_regions_.erase(region_hash);
        TryAbsorbRegion(region);
      });
  vacancy_probes_[probe_id] = std::move(vp);
}

void OverlayNode::TryAbsorbRegion(const BitCode& p) {
  const int len = p.length();
  if (len == 0 || code_.length() < len) return;
  if (RegionCoveredByPeer(p)) return;
  if (code_.length() == len) {
    if (code_ == p.Sibling()) {
      tm_.takeovers->Inc();
      SetCode(code_.Parent());
      AnnounceCode();
      if (on_takeover_) on_takeover_(p);
    }
    return;
  }
  if (code_.Prefix(len) != p.Sibling()) return;
  for (int i = len; i < code_.length(); ++i) {
    if (code_.bit(i) != 0) return;
  }
  tm_.takeovers->Inc();
  const BitCode old = code_;
  SetCode(p);
  AnnounceCode();
  if (on_takeover_) on_takeover_(p);
  // Our old region is empty now. Its exact sibling absorbs it on our code
  // update (the cascade in HandleMessage); when the sibling side is split
  // there is no such node, so the side's all-zeros leaf is told instead.
  bool sibling_known = false;
  for (const auto& [peer, pcode] : peers_) {
    if (pcode == old.Sibling()) sibling_known = true;
  }
  if (!sibling_known) NotifyRegionVacant(old);
}

void OverlayNode::OnRegionProbe(const RegionProbeMsg& m) {
  // We received the probe, so we own (part of) the probed region's path:
  // if our code is prefix-compatible with the region itself, the region is
  // alive. The asker is excluded — receiving its own probe back via routing
  // would defeat the check.
  if (m.asker == id_) return;
  int cpl = code_.CommonPrefixLen(m.region);
  if (cpl == std::min(code_.length(), m.region.length())) {
    auto alive = MakeMessage<RegionAliveMsg>();
    alive->probe_id = m.probe_id;
    SendRaw(m.asker, alive);
  }
}

void OverlayNode::OnRegionAlive(const RegionAliveMsg& m) {
  auto it = vacancy_probes_.find(m.probe_id);
  if (it != vacancy_probes_.end()) {
    if (it->second.timeout_event) events_->Cancel(it->second.timeout_event);
    probed_regions_.erase(BitCode::Hash{}(it->second.region));
    vacancy_probes_.erase(it);
    return;
  }
  auto wit = watches_.find(m.probe_id);
  if (wit != watches_.end()) {
    if (wit->second.timeout_event) events_->Cancel(wit->second.timeout_event);
    watches_.erase(wit);
  }
}

void OverlayNode::QueueForRetry(NodeId to, MessagePtr msg) {
  RetryState& rs = retry_[to];
  rs.queue.push_back(std::move(msg));
  if (rs.timer == 0) {
    SimTime backoff = options_.reconnect_backoff
                      << std::min(rs.attempts, 10);  // exponential
    rs.timer = events_->Schedule(backoff, [this, to] { OnRetryTimer(to); });
  }
}

void OverlayNode::OnRetryTimer(NodeId to) {
  auto it = retry_.find(to);
  if (it == retry_.end()) return;
  RetryState& rs = it->second;
  rs.timer = 0;
  rs.attempts++;
  if (rs.attempts > options_.reconnect_max_attempts) {
    GiveUpOnPeerQueue(to);
    return;
  }
  // Re-attempt every queued message; failures will re-enqueue via
  // HandleSendFailure with the incremented attempt count.
  std::deque<MessagePtr> q;
  q.swap(rs.queue);
  for (auto& m : q) SendRaw(to, std::move(m));
  // If everything goes through, no failure events arrive and the queue stays
  // empty; reset the attempt counter after a calm period. The settle band
  // orders the reset after every network event of the same instant, so a
  // failure notification landing exactly at the period's end still counts
  // against this attempt whichever engine runs.
  events_->ScheduleAtKeyed(
      events_->now() + 2 * options_.reconnect_backoff, EventQueue::kBandSettle,
      static_cast<uint32_t>(to), [this, to] {
        auto it2 = retry_.find(to);
        if (it2 != retry_.end() && it2->second.queue.empty() &&
            it2->second.timer == 0) {
          retry_.erase(it2);
        }
      });
}

void OverlayNode::GiveUpOnPeerQueue(NodeId to) {
  auto it = retry_.find(to);
  if (it == retry_.end()) return;
  std::deque<MessagePtr> q;
  q.swap(it->second.queue);
  retry_.erase(it);

  // Avoid this peer for routing decisions for a while.
  avoid_until_[to] = events_->now() + 8 * options_.reconnect_backoff;

  for (auto& m : q) {
    auto* om = m->IsOverlay() ? static_cast<OverlayMsg*>(m.get()) : nullptr;
    if (om != nullptr && om->kind() == OverlayMsgKind::kRouteEnvelope) {
      // Re-route around the failed link.
      ProcessEnvelope(std::static_pointer_cast<RouteEnvelope>(m));
    } else if (om == nullptr) {
      if (on_direct_failed_) on_direct_failed_(to, m);
    }
    // Overlay control messages are dropped; their protocols time out.
  }
}

void OverlayNode::StartRingSearch(std::shared_ptr<RouteEnvelope> env) {
  if (peers_.empty()) {
    tm_.dropped->Inc();
    return;
  }
  tm_.ring_searches->Inc();
  uint64_t search_id =
      (static_cast<uint64_t>(static_cast<uint32_t>(id_)) << 32) | (++ring_seq_);
  RingSearch rs;
  rs.env = std::move(env);
  rs.ttl = 1;
  ring_searches_[search_id] = std::move(rs);
  ContinueRingSearch(search_id);
}

void OverlayNode::ContinueRingSearch(uint64_t search_id) {
  auto it = ring_searches_.find(search_id);
  if (it == ring_searches_.end()) return;
  RingSearch& rs = it->second;
  if (rs.ttl > options_.ring_max_ttl) {
    tm_.dropped->Inc();
    ring_searches_.erase(it);
    return;
  }
  auto find = MakeMessage<RingFindMsg>();
  find->search_id = search_id;
  find->target = rs.env->target;
  // We need a node at least as close as us; strictly closer is ideal but an
  // equal match elsewhere may have a live path onward (§3.8: "overlaps the
  // query's code to an equal or greater extent").
  find->needed_cpl = code_.CommonPrefixLen(rs.env->target) + 1;
  find->stuck_node = id_;
  find->ttl = rs.ttl;
  for (NodeId peer : SortedKeys(peers_)) SendRaw(peer, find);

  rs.timeout_event =
      events_->Schedule(options_.ring_reply_timeout, [this, search_id] {
        auto it2 = ring_searches_.find(search_id);
        if (it2 == ring_searches_.end()) return;
        it2->second.ttl++;
        it2->second.timeout_event = 0;
        ContinueRingSearch(search_id);
      });
}

void OverlayNode::OnRingFind(NodeId from,
                             const std::shared_ptr<RingFindMsg>& m) {
  if (!joined_) return;
  if (!ring_seen_.insert(m->search_id ^ (static_cast<uint64_t>(m->ttl) << 56))
           .second) {
    return;
  }
  if (code_.CommonPrefixLen(m->target) >= m->needed_cpl ||
      OwnsTarget(m->target)) {
    auto found = MakeMessage<RingFoundMsg>();
    found->search_id = m->search_id;
    found->code = code_;
    SendRaw(m->stuck_node, found);
    return;
  }
  if (m->ttl > 1) {
    auto fwd = MakeMessage<RingFindMsg>(*m);
    fwd->ttl = m->ttl - 1;
    for (NodeId peer : SortedKeys(peers_)) {
      if (peer != from) SendRaw(peer, fwd);
    }
  }
}

void OverlayNode::OnRingFound(NodeId from, const RingFoundMsg& m) {
  auto it = ring_searches_.find(m.search_id);
  if (it == ring_searches_.end()) return;  // already resolved
  tm_.ring_found->Inc();
  std::shared_ptr<RouteEnvelope> env = std::move(it->second.env);
  if (it->second.timeout_event) events_->Cancel(it->second.timeout_event);
  ring_searches_.erase(it);
  // Adopt the discovered node as a routing peer and resume forwarding there.
  peers_[from] = m.code;
  env->hops++;
  SendRaw(from, std::move(env));
}

}  // namespace mind
