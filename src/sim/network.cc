#include "sim/network.h"

#include <algorithm>
#include <cmath>

#include "sim/parallel_engine.h"
#include "util/logging.h"

namespace mind {

namespace {
constexpr double kEarthRadiusKm = 6371.0;
// Speed of light in fibre ~ 200 km/ms; real paths are not great circles.
constexpr double kFibreKmPerMs = 200.0;
constexpr double kPathStretch = 1.3;
constexpr double kPerLinkOverheadMs = 1.5;

double DegToRad(double d) { return d * M_PI / 180.0; }
}  // namespace

double GreatCircleKm(const GeoPoint& a, const GeoPoint& b) {
  double phi1 = DegToRad(a.lat_deg), phi2 = DegToRad(b.lat_deg);
  double dphi = phi2 - phi1;
  double dlambda = DegToRad(b.lon_deg - a.lon_deg);
  double h = std::sin(dphi / 2) * std::sin(dphi / 2) +
             std::cos(phi1) * std::cos(phi2) * std::sin(dlambda / 2) *
                 std::sin(dlambda / 2);
  return 2.0 * kEarthRadiusKm * std::asin(std::min(1.0, std::sqrt(h)));
}

SimTime PropagationDelayUs(const GeoPoint& a, const GeoPoint& b) {
  double km = GreatCircleKm(a, b) * kPathStretch;
  double ms = km / kFibreKmPerMs + kPerLinkOverheadMs;
  return FromMillis(ms);
}

Network::Network(EventQueue* events, NetworkOptions options,
                 telemetry::MetricsRegistry* metrics)
    : events_(events), options_(options) {
  if (metrics != nullptr) {
    telemetry::MetricsRegistry& m = *metrics;
    msgs_counter_ = &m.counter("sim.net.messages");
    bytes_counter_ = &m.counter("sim.net.bytes");
    loopback_counter_ = &m.counter("sim.net.loopback");
    send_fail_counter_ = &m.counter("sim.net.send_failures");
    inflight_fail_counter_ = &m.counter("sim.net.inflight_failures");
    queue_wait_ms_ = &m.histogram("sim.net.queue_wait_ms");
    delivery_delay_ms_ = &m.histogram("sim.net.delivery_delay_ms");
  }
}

NodeId Network::AddHost(Host* host) {
  MIND_CHECK(host != nullptr);
  MIND_CHECK(!InParallelPhase()) << "AddHost during a parallel phase";
  hosts_.push_back(HostState{host, false, GeoPoint{}, true, 0});
  return static_cast<NodeId>(hosts_.size() - 1);
}

NodeId Network::AddHost(Host* host, GeoPoint position) {
  NodeId id = AddHost(host);
  hosts_[id].has_position = true;
  hosts_[id].position = position;
  return id;
}

void Network::PresizeLinkTable() {
  MIND_CHECK(!InParallelPhase());
  // Only the outer (per-sender) vector must be at full extent before a
  // parallel run: shard workers index it concurrently. Rows stay sparse and
  // grow sender-locally (see LinkTo).
  links_.resize(hosts_.size());
}

void Network::SetLatency(NodeId a, NodeId b, SimTime one_way) {
  MIND_CHECK(!InParallelPhase()) << "SetLatency during a parallel phase";
  latency_override_[DirKey(a, b)] = one_way;
  latency_override_[DirKey(b, a)] = one_way;
  ++latency_epoch_;  // invalidates every per-link latency memo
}

SimTime Network::Latency(NodeId a, NodeId b) const {
  if (!latency_override_.empty()) {
    auto it = latency_override_.find(DirKey(a, b));
    if (it != latency_override_.end()) return it->second;
  }
  const HostState& ha = hosts_[a];
  const HostState& hb = hosts_[b];
  if (ha.has_position && hb.has_position) {
    return PropagationDelayUs(ha.position, hb.position);
  }
  return options_.default_latency;
}

SimTime Network::JitterCounterUs(NodeId from, NodeId to,
                                 uint64_t counter) const {
  double ms = CounterLogNormal(options_.seed, DirKey(from, to), counter,
                               options_.jitter_mu_ln_ms,
                               options_.jitter_sigma_ln);
  return FromMillis(ms);
}

bool Network::InParallelPhase() const {
  return engine_ != nullptr && engine_->in_parallel_phase();
}

void Network::set_parallel_engine(ParallelEngine* engine) {
  MIND_CHECK(!InParallelPhase()) << "set_parallel_engine during a parallel phase";
  engine_ = engine;
}

void Network::SetDelayObserver(DelayObserver obs) {
  MIND_CHECK(!InParallelPhase()) << "SetDelayObserver during a parallel phase";
  delay_observer_ = std::move(obs);
}

EventQueue* Network::queue_for(NodeId id) const {
  return engine_ != nullptr ? engine_->queue_for(id) : events_;
}

void Network::DispatchKeyed(NodeId to, SimTime t, uint8_t band, uint64_t ukey,
                            EventFn fn) {
  if (engine_ != nullptr) {
    engine_->ScheduleKeyed(to, t, band, ukey, std::move(fn));
  } else {
    events_->ScheduleAtKeyed(t, band, ukey, std::move(fn));
  }
}

void Network::Send(NodeId from, NodeId to, MessagePtr msg) {
  MIND_CHECK(from >= 0 && static_cast<size_t>(from) < hosts_.size());
  MIND_CHECK(to >= 0 && static_cast<size_t>(to) < hosts_.size());
  EventQueue* src_q = queue_for(from);
  SimTime now = src_q->now();
  if (!IsNodeUpAt(from, now)) return;  // a dead node cannot send

  if (from == to) {
    if (loopback_counter_ != nullptr) loopback_counter_->Inc();
    SimTime arrival = now + options_.loopback_delay;
    // loopback_count is written only by its owning sender, and a shard's
    // senders run on exactly one worker — no cross-shard write is possible.
    // mind-lint: allow(phase-safety): sender-owned field, shard-exclusive
    uint64_t ukey = PackUkey(from, hosts_[from].loopback_count++);
    // Loopback never crosses a shard; liveness is re-checked at delivery
    // against the sender's own flag and the immutable plan.
    DispatchKeyed(to, arrival, EventQueue::kBandDelivery, ukey,
                  [this, from, to, msg = std::move(msg), arrival]() {
                    if (IsNodeUpAt(to, arrival)) {
                      hosts_[to].host->HandleMessage(from, msg);
                    }
                  });
    return;
  }

  LinkState& link = LinkTo(from, to);
  uint64_t send_ix = link.send_count++;
  if (!IsLinkUpAt(from, to, now) || !IsNodeUpAt(to, now)) {
    if (send_fail_counter_ != nullptr) send_fail_counter_->Inc();
    DispatchKeyed(from, now + options_.send_fail_detect,
                  EventQueue::kBandNotify, PackUkey(to, send_ix),
                  [this, from, to, msg = std::move(msg)]() {
                    if (IsNodeUpAt(from, queue_for(from)->now())) {
                      hosts_[from].host->HandleSendFailure(to, msg);
                    }
                  });
    return;
  }

  // SizeBytes is virtual and may walk the payload (a routed envelope's inner
  // message, a batch's tuples): read it once.
  const size_t size_bytes = msg->SizeBytes();
  double tx_sec =
      static_cast<double>(size_bytes) / options_.bandwidth_bytes_per_sec;
  SimTime queue_wait = link.busy_until > now ? link.busy_until - now : 0;
  SimTime depart = std::max(now, link.busy_until) + FromSeconds(tx_sec);
  link.busy_until = depart;
  SimTime arrival = depart + CachedLatency(from, to, link) +
                    JitterCounterUs(from, to, send_ix);
  // The paper's prototype speaks TCP: per-link delivery is in order. Jitter
  // therefore stretches the stream but never reorders it.
  arrival = std::max(arrival, link.last_arrival + 1);
  link.last_arrival = arrival;
  SimTime delay = arrival - now;
  link.stats.messages++;
  link.stats.bytes += size_bytes;
  if (msgs_counter_ != nullptr) {
    msgs_counter_->Inc();
    bytes_counter_->Inc(size_bytes);
    queue_wait_ms_->Record(ToSeconds(queue_wait) * 1e3);
    delivery_delay_ms_->Record(ToSeconds(delay) * 1e3);
  }

  if (!IsNodeUpAt(to, arrival)) {
    // In-flight loss, resolved at send time: the failure plan already knows
    // the destination will be down at arrival, so the sender schedules its
    // own notification locally — no cross-shard zero-lookahead event needed.
    NotifyInFlightLoss(from, to, std::move(msg), send_ix, arrival);
    return;
  }

  DispatchKeyed(to, arrival, EventQueue::kBandDelivery, PackUkey(from, send_ix),
                [this, from, to, msg = std::move(msg), delay, send_ix]() {
                  if (hosts_[to].up) {
                    if (delay_observer_) delay_observer_(from, to, delay);
                    hosts_[to].host->HandleMessage(from, msg);
                    return;
                  }
                  // The destination died unplanned (OverlayNode::Crash)
                  // while the message was in flight; the flag only mutates
                  // outside parallel phases, so every engine reads the same
                  // value. The sender hears of it when the reset travels
                  // back: a return-path latency is at least the engine's
                  // lookahead, so this is a valid cross-shard event.
                  NotifyInFlightLoss(
                      from, to, msg, send_ix,
                      queue_for(to)->now() + Latency(to, from));
                });
}

void Network::NotifyInFlightLoss(NodeId from, NodeId to, MessagePtr msg,
                                 uint64_t send_ix, SimTime at) {
  DispatchKeyed(from, at, EventQueue::kBandNotify, PackUkey(to, send_ix),
                [this, from, to, msg = std::move(msg), at]() {
                  if (inflight_fail_counter_ != nullptr) {
                    inflight_fail_counter_->Inc();
                  }
                  if (IsNodeUpAt(from, at)) {
                    hosts_[from].host->HandleSendFailure(to, msg);
                  }
                });
}

void Network::SetNodeUp(NodeId id, bool up) {
  MIND_CHECK(id >= 0 && static_cast<size_t>(id) < hosts_.size());
  MIND_CHECK(!InParallelPhase()) << "SetNodeUp during a parallel phase";
  hosts_[id].up = up;
}

bool Network::IsNodeUp(NodeId id) const {
  MIND_CHECK(id >= 0 && static_cast<size_t>(id) < hosts_.size());
  return hosts_[id].up;
}

void Network::SetLinkDown(NodeId a, NodeId b, SimTime duration) {
  if (duration == 0) return;
  const SimTime now = events_->now();
  PlanLinkOutage(a, b, now, now + duration);
}

bool Network::IsLinkUp(NodeId a, NodeId b) const {
  return IsLinkUpAt(a, b, events_->now());
}

void Network::PlanNodeOutage(NodeId id, SimTime down_at, SimTime up_at) {
  MIND_CHECK(id >= 0 && static_cast<size_t>(id) < hosts_.size());
  MIND_CHECK(!InParallelPhase()) << "PlanNodeOutage during a parallel phase";
  MIND_CHECK_LT(down_at, up_at);
  if (node_outages_.size() < hosts_.size()) node_outages_.resize(hosts_.size());
  node_outages_[id].push_back(Outage{down_at, up_at});
}

void Network::PlanLinkOutage(NodeId a, NodeId b, SimTime down_at,
                             SimTime up_at) {
  MIND_CHECK(!InParallelPhase()) << "PlanLinkOutage during a parallel phase";
  MIND_CHECK_LT(down_at, up_at);
  link_outages_[DirKey(a, b)].push_back(Outage{down_at, up_at});
  link_outages_[DirKey(b, a)].push_back(Outage{down_at, up_at});
}

bool Network::IsNodeUpAt(NodeId id, SimTime t) const {
  MIND_CHECK(id >= 0 && static_cast<size_t>(id) < hosts_.size());
  if (!hosts_[id].up) return false;
  if (static_cast<size_t>(id) < node_outages_.size()) {
    for (const Outage& o : node_outages_[id]) {
      if (o.from <= t && t < o.until) return false;
    }
  }
  return true;
}

bool Network::IsLinkUpAt(NodeId a, NodeId b, SimTime t) const {
  if (!link_outages_.empty()) {
    auto it = link_outages_.find(DirKey(a, b));
    if (it != link_outages_.end()) {
      for (const Outage& o : it->second) {
        if (o.from <= t && t < o.until) return false;
      }
    }
  }
  return true;
}

Network::LinkStats Network::GetLinkStats(NodeId from, NodeId to) const {
  if (static_cast<size_t>(from) >= links_.size()) return LinkStats{};
  const LinkState* link = links_[static_cast<size_t>(from)].Find(to);
  return link != nullptr ? link->stats : LinkStats{};
}

size_t Network::LinkTableBytes() const {
  size_t bytes = links_.capacity() * sizeof(LinkRow);
  for (const LinkRow& row : links_) bytes += row.HeapBytes();
  return bytes;
}

}  // namespace mind
