// One node of the MIND hypercube overlay (paper §3.3, §3.8).
//
// Responsibilities:
//  * vertex code management (join split, failure takeover),
//  * the randomized join protocol of Adler et al. with the paper's
//    deadlock-free serialization of concurrent joins (optimistic accept +
//    preemption by joins to shallower nodes),
//  * greedy prefix routing with reconnect backoff and expanding-ring
//    recovery on dead ends,
//  * heartbeat failure detection and sibling takeover (code shortening),
//  * overlay-wide broadcast with duplicate suppression.
//
// The application layer (mind/) sits on top through callbacks; messages that
// are not OverlayMsg subclasses are passed up as direct application traffic.
#ifndef MIND_OVERLAY_OVERLAY_NODE_H_
#define MIND_OVERLAY_OVERLAY_NODE_H_

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "overlay/messages.h"
#include "overlay/peer_table.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/bitcode.h"
#include "util/digest.h"
#include "util/rng.h"

namespace mind {

struct OverlayOptions {
  /// Heartbeat period; 0 disables failure detection (static experiments).
  /// 0 also disables crash repair: nobody notices a crash, so a crashed
  /// node's old region stays unowned (even after it revives under a new
  /// code) and every query over that region ends with `complete = false`.
  /// Runs that crash nodes need a nonzero period
  /// (RoutingIntegrationTest.CrashAndReviveKeepAnswersExact uses 2 s).
  SimTime heartbeat_interval = 0;
  /// A peer is declared dead after this many silent heartbeat periods.
  int heartbeat_miss_limit = 3;
  /// First reconnect retry delay; doubles per attempt (paper §3.8 observes
  /// ~45 s worst-case reconnect before rerouting).
  SimTime reconnect_backoff = FromSeconds(1);
  int reconnect_max_attempts = 5;
  /// Joiner retry delay after reject/abort/timeout (plus jitter).
  SimTime join_retry_delay = FromMillis(500);
  /// Join phase timeout (candidate wait, commit wait, ack collection).
  SimTime join_phase_timeout = FromSeconds(5);
  int route_max_hops = 64;
  /// Peer-table cap per common-prefix level (the hypercube keeps ~log N
  /// neighbors; without pruning every node would eventually know everyone).
  int max_peers_per_level = 2;
  /// Expanding ring: TTLs 1..ring_max_ttl are tried in turn.
  int ring_max_ttl = 4;
  SimTime ring_reply_timeout = FromMillis(800);
  /// How long a vacancy probe waits for a RegionAlive before absorbing.
  SimTime region_probe_timeout = FromSeconds(3);
  /// Escalation levels for vacancy watches: when a dead region's sibling
  /// subtree is dead too, the watch walks up the virtual tree so some
  /// ancestor's sibling subtree absorbs the whole dead branch (§3.8:
  /// "applied recursively").
  int vacancy_escalations = 8;
  uint64_t seed = 0x07e7;
};

class OverlayNode : public Host {
 public:
  /// Registers the node with the simulator's network (optionally at a
  /// geographic position). The node starts un-joined.
  OverlayNode(Simulator* sim, OverlayOptions options,
              std::optional<GeoPoint> position = std::nullopt);

  NodeId id() const { return id_; }
  const BitCode& code() const { return code_; }
  bool joined() const { return joined_; }
  bool alive() const { return alive_; }
  const PeerTable& peers() const { return peers_; }

  /// Bootstraps a 1-node overlay (empty code).
  void BecomeFirst();

  /// Joins the overlay through any live member. Retries internally until
  /// committed; fires on_joined when done.
  void Join(NodeId bootstrap);

  /// Crashes the node: drops all overlay state and detaches from the network.
  void Crash();

  /// Revives a crashed node and rejoins through `bootstrap`.
  void Revive(NodeId bootstrap);

  // -------- Application-facing API --------------------------------------

  /// Routes `inner` to the node owning `target`; that node's on_deliver runs
  /// with (origin, inner, hops).
  void Route(const BitCode& target, MessagePtr inner);

  /// Sends an application message straight to a known node (query replies,
  /// replication). Retries over transient link failures; gives up to
  /// on_direct_failed after reconnect_max_attempts.
  void SendDirect(NodeId to, MessagePtr msg);

  /// Floods `inner` to every overlay node (including this one).
  void Broadcast(MessagePtr inner);

  /// Peers whose codes share exactly len-1, len-2, ..., len-m leading bits
  /// with ours — the replication set of §3.8. m < 0 returns all peers.
  std::vector<NodeId> ReplicationTargets(int m) const;

  using DeliverFn =
      std::function<void(NodeId origin, const MessagePtr& inner, int hops)>;
  using DirectFn = std::function<void(NodeId from, const MessagePtr& msg)>;
  using DirectFailedFn = std::function<void(NodeId to, const MessagePtr& msg)>;

  void set_on_deliver(DeliverFn fn) { on_deliver_ = std::move(fn); }
  void set_on_broadcast(DirectFn fn) { on_broadcast_ = std::move(fn); }
  void set_on_direct(DirectFn fn) { on_direct_ = std::move(fn); }
  void set_on_direct_failed(DirectFailedFn fn) {
    on_direct_failed_ = std::move(fn);
  }
  void set_on_joined(std::function<void()> fn) { on_joined_ = std::move(fn); }
  void set_on_code_change(std::function<void(BitCode, BitCode)> fn) {
    on_code_change_ = std::move(fn);
  }
  /// Fired when this node takes over a failed sibling's region (the code we
  /// absorbed is passed).
  void set_on_takeover(std::function<void(BitCode)> fn) {
    on_takeover_ = std::move(fn);
  }

  /// Fired with the payload whenever this node forwards a routed envelope
  /// (used to measure per-query overlay visit counts).
  void set_on_forward(std::function<void(const MessagePtr&)> fn) {
    on_forward_ = std::move(fn);
  }

  /// The node we split from when joining (our data sibling), or kInvalidNode
  /// for the bootstrap node.
  NodeId join_parent() const { return join_parent_; }

  // -------- Host interface ------------------------------------------------

  void HandleMessage(NodeId from, const MessagePtr& msg) override;
  void HandleSendFailure(NodeId to, const MessagePtr& msg) override;

  // -------- Correctness tooling -------------------------------------------

  /// Node-local structural checks (safe at any time, including mid-join):
  /// joined implies alive, no self/invalid peer entries, peer codes within
  /// bounds, and a staged split consistent with the current code. Returns OK
  /// trivially when MIND_VALIDATORS is off (see util/validate.h).
  Status ValidateInvariants() const;

  /// Folds the node's logical overlay state (liveness, code, sorted peer
  /// table) into `out`. Independent of hash-table layout.
  void DigestInto(Fnv64* out) const;

 private:
  friend class OverlayTestPeek;

  // ---- core helpers (overlay_node.cc)
  void SetCode(BitCode new_code);
  void AnnounceCode();
  // Enforces max_peers_per_level (always keeps the exact sibling).
  void PrunePeers();
  // Greedy step: forward toward env->target or deliver locally.
  void ProcessEnvelope(std::shared_ptr<RouteEnvelope> env);
  // Best next hop for target: the peer with the longest common prefix,
  // strictly longer than ours, skipping peers whose avoid window is still
  // open; ties go to the smaller id. kInvalidNode if none.
  NodeId BestNextHop(const BitCode& target) const;
  bool OwnsTarget(const BitCode& target) const;
  // Peer-table repair: a heartbeat from a node at a prefix level where we
  // know nobody makes it our peer there. Failures can empty a level (its
  // peers die and are declared dead); we then cannot route into that half
  // of the tree, our vacancy probes into it go unanswered, and silence reads
  // as vacancy. The sender keeps us as its peer, so it is a live route back.
  void AdoptIntoEmptyLevel(NodeId from, const BitCode& code);
  void SendRaw(NodeId to, MessagePtr msg);  // network send, no retry logic
  void OnBroadcastMsg(NodeId from, const std::shared_ptr<BroadcastMsg>& b);

  // ---- join protocol (join.cc)
  void StartJoinAttempt();
  void OnJoinFind(const JoinFindMsg& m);
  void OnJoinCandidate(const JoinCandidateMsg& m);
  void OnJoinRequest(NodeId from, const JoinRequestMsg& m);
  void OnNeighborAdd(NodeId from, const NeighborAddMsg& m);
  void OnNeighborAddAck(NodeId from, const NeighborAddAckMsg& m);
  void OnNeighborAddReject(const NeighborAddRejectMsg& m);
  void OnJoinCommit(NodeId from, const JoinCommitMsg& m);
  void OnJoinDecline(NodeId from);
  void OnJoinAbort();
  void OnJoinCommitNotify(NodeId from, const JoinCommitNotifyMsg& m);
  void CommitPendingJoin();
  void AbortPendingJoin(bool notify_joiner);
  void ScheduleJoinRetry();
  void CancelJoinTimer();

  // ---- failure handling (recovery.cc)
  void OnHeartbeatTimer();
  void NotePeerAlive(NodeId peer, const BitCode* code_hint);
  void DeclarePeerDead(NodeId peer);
  void OnRegionVacant(const RegionVacantMsg& m);
  void OnRegionProbe(const RegionProbeMsg& m);
  void OnRegionAlive(const RegionAliveMsg& m);
  // Drives recursive takeover from the *detector's* side: probe the region;
  // if dead, notify its sibling subtree; re-probe; escalate to the parent
  // region if still dead (the sibling subtree was dead too).
  void StartVacancyWatch(const BitCode& region, int escalations_left,
                         bool recheck_phase);
  void OnWatchTimeout(uint64_t probe_id);
  // Absorbs `p` if the structural conditions still hold for our current code
  // (exact sibling -> shorten; all-zeros descendant of the sibling subtree ->
  // relabel). Re-checked after the probe timeout.
  void TryAbsorbRegion(const BitCode& p);
  // Routes a RegionVacantMsg for `region` to its sibling side's all-zeros
  // leaf, the node eligible to relabel into it.
  void NotifyRegionVacant(const BitCode& region);
  // True if some known peer's code is prefix-compatible with p (someone
  // covers that region).
  bool RegionCoveredByPeer(const BitCode& p) const;
  void QueueForRetry(NodeId to, MessagePtr msg);
  void OnRetryTimer(NodeId to);
  void GiveUpOnPeerQueue(NodeId to);
  void StartRingSearch(std::shared_ptr<RouteEnvelope> env);
  void ContinueRingSearch(uint64_t search_id);
  void OnRingFind(NodeId from, const std::shared_ptr<RingFindMsg>& m);
  void OnRingFound(NodeId from, const RingFoundMsg& m);

  // ---- state
  Simulator* sim_;
  Network* net_;
  EventQueue* events_;
  // mind-digest: skip(construction-time config, not evolving state)
  OverlayOptions options_;
  // mind-digest: skip(RNG cursor; its draws shape state that is digested)
  Rng rng_;
  NodeId id_ = kInvalidNode;

  bool alive_ = true;
  bool joined_ = false;
  BitCode code_;
  PeerTable peers_;

  // join: joiner side
  // Transient join-protocol state: the outcome a digest cares about lands in
  // joined_/code_/peers_, all folded above.
  enum class JoinState { kIdle, kWaitCandidate, kWaitCommit };
  // mind-digest: skip(transient join-protocol state; outcome lands in joined_)
  JoinState join_state_ = JoinState::kIdle;
  // mind-digest: skip(transient join-protocol state; outcome lands in joined_)
  NodeId bootstrap_ = kInvalidNode;
  // mind-digest: skip(transient join-protocol state; outcome lands in joined_)
  NodeId join_candidate_ = kInvalidNode;
  // mind-digest: skip(transient join-protocol state; outcome lands in joined_)
  NodeId join_proposer_ = kInvalidNode;
  // mind-digest: skip(transient join-protocol state; outcome lands in joined_)
  NodeId join_parent_ = kInvalidNode;
  // mind-digest: skip(pending-timer handle; cancelled/fired before quiesce)
  EventId join_timer_ = 0;
  // mind-digest: skip(retry backoff counter; resets once the join commits)
  int join_failures_ = 0;  // consecutive, drives retry backoff

  // join: parent side
  struct PendingJoin {
    uint64_t join_id = 0;
    NodeId joiner = kInvalidNode;
    BitCode joiner_code;
    BitCode my_new_code;
    std::unordered_set<NodeId> awaiting_acks;
    EventId timeout_event = 0;
  };
  // mind-digest: skip(transient parent-side join state; commit folds into peers_)
  std::optional<PendingJoin> pending_join_;
  // mind-digest: skip(join id allocator; ids are local and never stored)
  uint64_t join_seq_ = 0;

  // join: peer side (staged neighbor additions)
  struct StagedAdd {
    NodeId parent;
    int parent_depth;
    NodeId joiner;
    BitCode joiner_code;
    BitCode parent_new_code;
    EventId expiry_event = 0;
  };
  // mind-digest: skip(staged additions expire or commit into digested peers_)
  std::unordered_map<uint64_t, StagedAdd> staged_adds_;

  // failure detection / reliable send
  // mind-digest: skip(liveness observations; failure handling edits peers_)
  std::unordered_map<NodeId, SimTime> last_seen_;
  struct RetryState {
    std::deque<MessagePtr> queue;
    int attempts = 0;
    EventId timer = 0;
  };
  // mind-digest: skip(reliable-send queue; drains or fails into peers_ edits)
  std::unordered_map<NodeId, RetryState> retry_;
  // mind-digest: skip(routing penalty box; expires without lasting state)
  std::unordered_map<NodeId, SimTime> avoid_until_;
  // mind-digest: skip(pending-timer handle; cancelled/fired before quiesce)
  EventId heartbeat_timer_ = 0;

  // ring searches in progress at this (stuck) node
  struct RingSearch {
    std::shared_ptr<RouteEnvelope> env;
    int ttl = 0;
    EventId timeout_event = 0;
  };
  // mind-digest: skip(in-flight search state; results land in digested peers_)
  std::unordered_map<uint64_t, RingSearch> ring_searches_;
  // mind-digest: skip(dedup memory for in-flight searches, drains at quiesce)
  std::unordered_set<uint64_t> ring_seen_;
  // mind-digest: skip(search id allocator; ids are local and never stored)
  uint64_t ring_seq_ = 0;

  // vacancy probes in flight at this node (probe_id -> region)
  struct VacancyProbe {
    BitCode region;
    EventId timeout_event = 0;
  };
  // mind-digest: skip(in-flight probe state; outcomes fold into joined_/code_)
  std::unordered_map<uint64_t, VacancyProbe> vacancy_probes_;

  // detector-side vacancy watches (probe_id -> state)
  struct VacancyWatch {
    BitCode region;
    int escalations_left = 0;
    bool recheck_phase = false;
    EventId timeout_event = 0;
  };
  // mind-digest: skip(in-flight watch state; escalations fold into peers_)
  std::unordered_map<uint64_t, VacancyWatch> watches_;
  // mind-digest: skip(dedup memory for in-flight probes, drains at quiesce)
  std::unordered_set<uint64_t> probed_regions_;  // hashes, dedup in flight
  // mind-digest: skip(probe id allocator; ids are local and never stored)
  uint64_t probe_seq_ = 0;

  // Broadcast dedup. An id is (origin << 32 | origin's sequence number, from
  // 1), so per origin the node keeps a floor (every seq <= floor was seen)
  // plus the seen seqs above it, sorted; a flood fills the gaps and the
  // floor advances. Memory stays one entry per origin instead of one per
  // broadcast ever received.
  struct BcastSeen {
    uint32_t floor = 0;
    std::vector<uint32_t> above;
  };
  /// Records `bcast_id`; false if it was seen before.
  bool MarkBroadcastSeen(uint64_t bcast_id);
  // mind-digest: skip(dedup memory; delivery effects land in digested state)
  std::unordered_map<uint32_t, BcastSeen> bcast_seen_;  // by origin
  // mind-digest: skip(broadcast id allocator; ids are local and never stored)
  uint64_t bcast_seq_ = 0;

  // callbacks
  DeliverFn on_deliver_;
  DirectFn on_broadcast_;
  DirectFn on_direct_;
  DirectFailedFn on_direct_failed_;
  std::function<void()> on_joined_;
  std::function<void(BitCode, BitCode)> on_code_change_;
  std::function<void(BitCode)> on_takeover_;
  std::function<void(const MessagePtr&)> on_forward_;

  // Registry instruments (`overlay.*`), aggregated across all nodes sharing
  // one Simulator. Cached once at construction; never null.
  struct Instruments {
    telemetry::Counter* delivered;
    telemetry::Counter* forwarded;
    telemetry::Counter* dropped;
    telemetry::Counter* dead_ends;
    telemetry::Counter* ring_searches;
    telemetry::Counter* ring_found;
    telemetry::Counter* join_attempts;
    telemetry::Counter* join_rejects;  // counted at the joiner
    // Counted at the candidate, indexed by JoinRejectReason.
    std::array<telemetry::Counter*, kJoinRejectReasons> join_reject_reasons;
    telemetry::Counter* join_preemptions;
    telemetry::Counter* takeovers;
    telemetry::Counter* peers_declared_dead;
    telemetry::Counter* heartbeats_sent;
  };
  // mind-digest: skip(registry instrument handles; observation only)
  Instruments tm_;
};

/// Fleet-wide overlay checks, valid in quiescent states (no join, takeover
/// or vacancy repair in flight — e.g. right after a build completes or at a
/// churn-free checkpoint):
///  * the codes of alive+joined nodes are prefix-free and tile the code
///    space with no gap or overlap (exact arithmetic, CheckCompleteCover);
///  * exact-sibling links are symmetric and carry the sibling's true code;
///  * every node passes its local ValidateInvariants().
/// Mid-churn these properties are transiently violated by design (a join
/// narrows the parent's code before the joiner owns its half), so callers
/// gate this on quiescence. Returns OK trivially when MIND_VALIDATORS is off.
Status ValidateOverlayInvariants(const std::vector<const OverlayNode*>& nodes);

}  // namespace mind

#endif  // MIND_OVERLAY_OVERLAY_NODE_H_
