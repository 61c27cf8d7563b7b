// Simulated wide-area network: geographic propagation delay, per-link FIFO
// bandwidth queues, jitter, link outages and node crashes.
//
// This substrate replaces the paper's PlanetLab deployment (see DESIGN.md §2):
// it reproduces the properties the evaluation depends on — propagation delay
// that follows real geography, queuing hotspots, transient link failures and
// node churn — under deterministic, seedable control.
#ifndef MIND_SIM_NETWORK_H_
#define MIND_SIM_NETWORK_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "sim/event_queue.h"
#include "sim/message.h"
#include "sim/time.h"
#include "telemetry/metrics.h"
#include "util/rng.h"

namespace mind {

/// Latitude/longitude in degrees; used to derive propagation delays.
struct GeoPoint {
  double lat_deg = 0.0;
  double lon_deg = 0.0;
};

/// Great-circle distance in kilometres.
double GreatCircleKm(const GeoPoint& a, const GeoPoint& b);

/// One-way propagation delay for a fibre path between two points: distance at
/// ~2/3 c with a path-stretch factor, plus a fixed per-link overhead.
SimTime PropagationDelayUs(const GeoPoint& a, const GeoPoint& b);

class ParallelEngine;

struct NetworkOptions {
  /// One-way latency used for host pairs without coordinates or overrides.
  SimTime default_latency = FromMillis(20);
  /// Per-directed-link service rate; transmission time = size / bandwidth.
  double bandwidth_bytes_per_sec = 2.0 * 1024 * 1024;
  /// Additive jitter: lognormal with these parameters, in milliseconds.
  /// Defaults give a ~0.5 ms median with an occasional multi-ms tail — the
  /// shape we attribute to shared PlanetLab hosts in the paper's runs.
  double jitter_mu_ln_ms = -0.7;
  double jitter_sigma_ln = 1.0;
  /// Time for a sender to detect that a send failed (peer dead / link down).
  SimTime send_fail_detect = FromMillis(200);
  /// Local loopback delivery delay (from == to).
  SimTime loopback_delay = 10;  // us
  /// Seeds the counter-based jitter streams (see Network::Send).
  uint64_t seed = 0x5eed;
};

/// \brief The simulated network fabric.
///
/// Hosts register and obtain dense NodeIds. Send() models FIFO queuing on the
/// directed link, propagation delay and jitter, then delivers via
/// Host::HandleMessage. If the link is down or the destination dead, the
/// sender gets Host::HandleSendFailure after a detection delay.
///
/// Delivery follows one determinism discipline, whichever engine runs it:
/// every random value on the delivery path is a pure function of (seed,
/// directed link, per-link send index), deliveries and failure notifications
/// carry engine-independent ordering keys (EventQueue::ScheduleAtKeyed), and
/// in-flight loss to a planned outage is resolved at send time from the
/// immutable failure plan. The sequential engine and the sharded engine at
/// any thread count therefore produce bit-identical state digests.
class Network {
 public:
  /// `metrics` is optional; when set, the fabric records per-send metrics
  /// (`sim.net.*`: message/byte counters, queue-wait and delivery-delay
  /// histograms) into it.
  Network(EventQueue* events, NetworkOptions options,
          telemetry::MetricsRegistry* metrics = nullptr);

  /// Registers a host without coordinates.
  NodeId AddHost(Host* host);
  /// Registers a host at a geographic position; latency to other positioned
  /// hosts follows great-circle distance.
  NodeId AddHost(Host* host, GeoPoint position);

  size_t host_count() const { return hosts_.size(); }

  /// Overrides the one-way latency between a and b (both directions).
  void SetLatency(NodeId a, NodeId b, SimTime one_way);

  /// One-way latency currently in effect between a and b.
  SimTime Latency(NodeId a, NodeId b) const;

  /// Bumped by every SetLatency; consumers caching latency-derived values
  /// (per-link memos, the parallel engine's lookahead matrix) recompute when
  /// it moves.
  uint64_t latency_generation() const { return latency_epoch_; }

  /// Sends a message. See class comment for delivery/failure semantics.
  void Send(NodeId from, NodeId to, MessagePtr msg);

  /// Marks a node dead/alive. Dead nodes neither send nor receive; a message
  /// already in flight toward a node that dies is lost, and its sender is
  /// notified one return-path latency after the would-be arrival (the reset
  /// travelling back). Serial context only.
  void SetNodeUp(NodeId id, bool up);
  bool IsNodeUp(NodeId id) const;

  /// Takes the (undirected) link down for `duration` from now: shorthand for
  /// PlanLinkOutage(a, b, now, now + duration). Overlapping calls extend the
  /// outage; a zero duration does nothing.
  void SetLinkDown(NodeId a, NodeId b, SimTime duration);
  bool IsLinkUp(NodeId a, NodeId b) const;

  /// Pre-registers a node outage over [down_at, up_at). The failure plan is
  /// immutable while shards execute, so any shard can resolve
  /// "will the destination be alive at arrival?" at send time without
  /// cross-shard reads. The node still runs its own timers while planned-down;
  /// only network delivery to/from it is suppressed (overlay-level crash
  /// protocols remain a sequential-engine feature).
  void PlanNodeOutage(NodeId id, SimTime down_at, SimTime up_at);
  /// Pre-registers an outage of the (undirected) link over [down_at, up_at).
  void PlanLinkOutage(NodeId a, NodeId b, SimTime down_at, SimTime up_at);

  /// Node liveness at virtual time `t`: the dynamic up flag AND no planned
  /// outage covering t. Safe to call from any shard during a parallel phase
  /// (the flag and the plan are both frozen while shards run).
  bool IsNodeUpAt(NodeId id, SimTime t) const;
  /// Link liveness at `t`: no planned outage of the link covers t.
  bool IsLinkUpAt(NodeId a, NodeId b, SimTime t) const;

  /// Wires the parallel engine in (Simulator does this); sends then route to
  /// the destination's shard queue, buffering across shard boundaries during
  /// a parallel phase. Serial context only.
  void set_parallel_engine(ParallelEngine* engine);
  /// The queue that owns `id`'s events: its shard queue under the parallel
  /// engine, the global queue otherwise.
  EventQueue* queue_for(NodeId id) const;

  bool has_delay_observer() const { return static_cast<bool>(delay_observer_); }

  /// Grows the dense per-host link table to its full host_count x host_count
  /// extent. The parallel engine calls this (in serial context) before every
  /// run: LinkTo() grows the table lazily, and a reallocation from one shard
  /// worker would race with reads from another. After pre-sizing, workers
  /// only ever touch rows owned by their own shard's senders.
  void PresizeLinkTable();

  /// Per-directed-link transfer counters (Fig 12 uses the message counts).
  struct LinkStats {
    uint64_t messages = 0;
    uint64_t bytes = 0;
  };
  LinkStats GetLinkStats(NodeId from, NodeId to) const;

  /// Heap bytes held by the per-directed-link table: the per-sender row
  /// vector plus every row's slots (64 bytes each, capacity included).
  /// Telemetry only; serial context.
  size_t LinkTableBytes() const;

  /// Observer invoked on each delivery with (from, to, total one-way delay).
  /// Used by the Fig 8 bench to trace per-link transmission delays.
  /// Serial context only: every shard consults the observer on delivery, so
  /// swapping it mid-phase would race (and unobserved swaps would not replay).
  using DelayObserver = std::function<void(NodeId, NodeId, SimTime)>;
  void SetDelayObserver(DelayObserver obs);

  EventQueue* events() const { return events_; }

 private:
  struct HostState {
    Host* host = nullptr;
    bool has_position = false;
    GeoPoint position;
    bool up = true;
    uint64_t loopback_count = 0;  // keys same-host deliveries
  };
  // Per-directed-link state. Rows are indexed densely by sender; within a
  // row, destinations live in a sparse open-addressed table (LinkRow below):
  // a node only ever talks to its overlay neighbors plus direct-reply
  // targets, so at 10k+ hosts the old dense row (hosts x 64 bytes = 640 KB
  // per sender, 6.4 GB total) would dwarf every other structure. Every field
  // is written only by the sending side, so under the parallel engine a row
  // is touched exclusively by the shard that owns its sender. Outages live
  // in the sparse maps below (shared, but frozen while shards execute),
  // keeping this hot-path struct lean.
  // alignas(64): one directed link's hot state, its row key included,
  // occupies exactly one cache line. A send's probe reads that one line, and
  // a shard worker's send never shares a line with another link.
  struct alignas(64) LinkState {
    SimTime busy_until = 0;    // FIFO transmit queue tail (directed)
    SimTime last_arrival = 0;  // enforces in-order (TCP-like) delivery
    uint64_t send_count = 0;   // per-link jitter counter + ukey
    LinkStats stats;
    // Memoized Latency(from, to), valid while latency_epoch matches the
    // network's epoch. Every send used to recompute great-circle trig (or an
    // override hash lookup); now a link pays that once per SetLatency epoch.
    // Pure cache — never digested, bumping the epoch never changes results.
    SimTime cached_latency = 0;
    uint64_t latency_epoch = 0;  // 0 = never filled (epochs start at 1)
    // The LinkRow key: this link's destination, kInvalidNode in an empty
    // slot. It fills what would otherwise be the line's padding.
    NodeId dst = kInvalidNode;
  };
  struct Outage {
    SimTime from = 0;
    SimTime until = 0;
  };

  /// One sender's destination table: open-addressed, power-of-two capacity,
  /// linear probing, no erase (links never disappear, only their hosts do).
  /// A slot is the link's LinkState, keyed by its `dst`. Behavior is
  /// identical to the former dense row — storage layout is the only change,
  /// and nothing iterates a row in table order.
  class LinkRow {
   public:
    LinkState& FindOrInsert(NodeId to) {
      if (slots_.empty()) Rehash(8);
      size_t i = Probe(to);
      if (slots_[i].dst == to) return slots_[i];
      if ((size_ + 1) * 4 > slots_.size() * 3) {
        Rehash(slots_.size() * 2);
        i = Probe(to);
      }
      slots_[i].dst = to;
      ++size_;
      return slots_[i];
    }
    const LinkState* Find(NodeId to) const {
      if (slots_.empty()) return nullptr;
      const size_t i = Probe(to);
      return slots_[i].dst == to ? &slots_[i] : nullptr;
    }
    size_t HeapBytes() const { return slots_.capacity() * sizeof(Slot); }

   private:
    using Slot = LinkState;
    static_assert(sizeof(Slot) == 64, "one cache line per directed link");
    size_t Probe(NodeId to) const {
      const size_t mask = slots_.size() - 1;
      size_t i = (static_cast<uint64_t>(static_cast<uint32_t>(to)) *
                  0x9e3779b97f4a7c15ull >> 32) & mask;
      while (slots_[i].dst != to && slots_[i].dst != kInvalidNode) {
        i = (i + 1) & mask;
      }
      return i;
    }
    void Rehash(size_t cap) {
      std::vector<Slot> old = std::move(slots_);
      slots_.assign(cap, Slot{});
      for (auto& s : old) {
        if (s.dst == kInvalidNode) continue;
        slots_[Probe(s.dst)] = std::move(s);
      }
    }
    std::vector<Slot> slots_;
    size_t size_ = 0;
  };

  uint64_t DirKey(NodeId from, NodeId to) const {
    return (static_cast<uint64_t>(static_cast<uint32_t>(from)) << 32) |
           static_cast<uint32_t>(to);
  }
  // (host id, per-link counter) packed into an engine-independent ordering
  // key: unique within its band at the destination queue.
  static uint64_t PackUkey(NodeId id, uint64_t counter) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(id)) << 40) |
           (counter & ((uint64_t{1} << 40) - 1));
  }

  LinkState& LinkTo(NodeId from, NodeId to) {
    // The engine calls PresizeLinkTable() before every parallel run, so the
    // lazy growth of the outer vector below can only trigger in serial
    // context. Growth *within* a row is shard-safe: a row belongs to its
    // sender, and a sender is executed by exactly one shard worker.
    // mind-lint: allow(phase-safety): presized before parallel runs
    if (links_.size() < hosts_.size()) links_.resize(hosts_.size());
    return links_[static_cast<size_t>(from)].FindOrInsert(to);
  }

  // Latency(from, to) through the link's per-epoch memo (see LinkState).
  // The memo is sender-owned like every LinkState field, so shard workers
  // fill it race-free for their own senders.
  SimTime CachedLatency(NodeId from, NodeId to, LinkState& link) const {
    if (link.latency_epoch != latency_epoch_) {
      link.cached_latency = Latency(from, to);
      link.latency_epoch = latency_epoch_;
    }
    return link.cached_latency;
  }
  // Jitter: pure function of (seed, link, send index).
  SimTime JitterCounterUs(NodeId from, NodeId to, uint64_t counter) const;
  // Schedules the sender's notification that send `send_ix` from -> to was
  // lost in flight, at time `at` on the sender's queue.
  void NotifyInFlightLoss(NodeId from, NodeId to, MessagePtr msg,
                          uint64_t send_ix, SimTime at);
  // Routes a keyed event to `to`'s owning queue, buffering across shard
  // boundaries during a parallel phase.
  void DispatchKeyed(NodeId to, SimTime t, uint8_t band, uint64_t ukey,
                     EventFn fn);
  bool InParallelPhase() const;

  EventQueue* events_;
  NetworkOptions options_;
  ParallelEngine* engine_ = nullptr;
  // Cached instruments (nullptr when constructed without a registry).
  telemetry::Counter* msgs_counter_ = nullptr;
  telemetry::Counter* bytes_counter_ = nullptr;
  telemetry::Counter* loopback_counter_ = nullptr;
  telemetry::Counter* send_fail_counter_ = nullptr;
  telemetry::Counter* inflight_fail_counter_ = nullptr;
  telemetry::SimHistogram* queue_wait_ms_ = nullptr;
  telemetry::SimHistogram* delivery_delay_ms_ = nullptr;
  std::vector<HostState> hosts_;
  std::vector<LinkRow> links_;
  std::vector<std::vector<Outage>> node_outages_;     // planned, per node
  std::unordered_map<uint64_t, std::vector<Outage>> link_outages_;  // planned
  std::unordered_map<uint64_t, SimTime> latency_override_;
  // mind-digest: skip(cache invalidation epoch; latency memos are derived)
  uint64_t latency_epoch_ = 1;
  DelayObserver delay_observer_;
};

}  // namespace mind

#endif  // MIND_SIM_NETWORK_H_
