#include "frontend/query_service.h"

#include <algorithm>
#include <cstddef>

#include "util/logging.h"

namespace mind {
namespace frontend {

QueryService::QueryService(MindNet* net, QueryServiceOptions options)
    : net_(net), options_(options) {
  auto& m = net_->sim().metrics();
  tm_.submitted = &m.counter("frontend.query.submitted");
  tm_.admitted = &m.counter("frontend.query.admitted");
  tm_.queued = &m.counter("frontend.query.queued");
  tm_.rejected_quota = &m.counter("frontend.query.rejected_quota");
  tm_.rejected_cost = &m.counter("frontend.query.rejected_cost");
  tm_.rejected_overload = &m.counter("frontend.query.rejected_overload");
  tm_.completed = &m.counter("frontend.query.completed");
  tm_.deadline_cancels = &m.counter("frontend.query.deadline_cancels");
  tm_.standing_fires = &m.counter("frontend.query.standing_fires");
  tm_.latency_ms = &m.histogram("frontend.query.latency_ms");
  tm_.wait_ms = &m.histogram("frontend.query.wait_ms");
  tm_.result_tuples = &m.histogram("frontend.query.result_tuples");
  tm_.cost_estimate = &m.histogram("frontend.query.cost_estimate");
  // Per-index epochs advance as version-open broadcasts land; chains are
  // per-node, so track the maximum any node has reached. Versions opened
  // before the service existed (the initial index-creation flood, typically)
  // never reach the observer, so seed from the chains' current state.
  for (size_t i = 0; i < net_->size(); ++i) {
    MindNode& node = net_->node(i);
    for (const std::string& name : node.IndexNames()) {
      const IndexVersions* v = node.PrimaryVersions(name);
      if (v == nullptr) continue;
      uint64_t& e = epochs_[name];
      if (v->epoch() > e) e = v->epoch();
    }
    node.set_on_version_opened(
        [this](const std::string& index, VersionId /*version*/,
               uint64_t epoch) {
          uint64_t& e = epochs_[index];
          if (epoch > e) e = epoch;
        });
  }
}

ClientId QueryService::RegisterClient(NodeId home) {
  clients_.push_back(Client{home, 0});
  return static_cast<ClientId>(clients_.size() - 1);
}

uint64_t QueryService::IndexEpoch(const std::string& index) const {
  auto it = epochs_.find(index);
  return it == epochs_.end() ? 0 : it->second;
}

void QueryService::ObserveInsert(const std::string& index,
                                 const Point& point) {
  auto it = selectivity_.find(index);
  if (it == selectivity_.end()) {
    const IndexDef* def = net_->node(0).GetIndexDef(index);
    if (def == nullptr) return;  // not (yet) an index we know
    it = selectivity_
             .emplace(index, std::make_unique<Histogram>(
                                 def->schema, options_.cost_bins_per_dim))
             .first;
  }
  it->second->Add(point);
}

double QueryService::EstimateCost(const std::string& index,
                                  const Rect& rect) const {
  auto it = selectivity_.find(index);
  if (it == selectivity_.end()) return 0;  // cold: admit optimistically
  if (rect.dims() != it->second->schema().dims()) return 0;
  return it->second->MassInRect(rect);
}

Result<QueryService::SubmitOutcome> QueryService::Submit(
    ClientId client, const std::string& index, const Rect& rect,
    DeliverFn deliver, SimTime deadline) {
  return SubmitInternal(client, index, rect, std::move(deliver), deadline,
                        /*standing_id=*/0);
}

Result<QueryService::SubmitOutcome> QueryService::SubmitInternal(
    ClientId client, const std::string& index, const Rect& rect,
    DeliverFn deliver, SimTime deadline, uint64_t standing_id) {
  if (client >= clients_.size()) {
    return Status::NotFound("unknown client");
  }
  tm_.submitted->Inc();
  Client& c = clients_[client];
  if (c.active >= options_.per_client_quota) {
    ++rejected_total_;
    tm_.rejected_quota->Inc();
    return SubmitOutcome{Admission::kRejectedQuota, 0};
  }
  const double estimate = EstimateCost(index, rect);
  tm_.cost_estimate->Record(estimate);
  if (options_.max_cost_tuples > 0 && estimate > options_.max_cost_tuples) {
    ++rejected_total_;
    tm_.rejected_cost->Inc();
    return SubmitOutcome{Admission::kRejectedCost, 0};
  }
  const bool slot_free = inflight_ < options_.max_inflight;
  if (!slot_free && wait_queue_.size() >= options_.max_queue) {
    ++rejected_total_;
    tm_.rejected_overload->Inc();
    return SubmitOutcome{Admission::kRejectedOverload, 0};
  }

  const uint64_t ticket = ++ticket_seq_;
  Pending p;
  p.client = client;
  p.index = index;
  p.rect = rect;
  p.deliver = std::move(deliver);
  p.standing_id = standing_id;
  p.deadline = deadline > 0 ? deadline : options_.default_deadline;
  p.submitted = net_->sim().now();
  pending_.emplace(ticket, std::move(p));
  ++c.active;
  ++admitted_total_;
  tm_.admitted->Inc();

  if (slot_free) {
    Dispatch(ticket);
    return SubmitOutcome{Admission::kDispatched, ticket};
  }
  wait_queue_.push_back(ticket);
  tm_.queued->Inc();
  return SubmitOutcome{Admission::kQueued, ticket};
}

void QueryService::Dispatch(uint64_t ticket) {
  auto it = pending_.find(ticket);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  MIND_CHECK(!p.dispatched);
  p.dispatched = true;
  ++inflight_;
  tm_.wait_ms->Record(ToSeconds(net_->sim().now() - p.submitted) * 1e3);

  const NodeId home = clients_[p.client].home;
  auto qid = net_->node(home).Query(
      p.index, p.rect,
      [this, ticket](const QueryResult& r) { OnCoreResult(ticket, r); });
  if (!qid.ok()) {
    // The core refused (unknown index, bad arity, an inverted interval):
    // complete as failed.
    QueryResult failed;
    failed.complete = false;
    OnCoreResult(ticket, failed);
    return;
  }
  p.core_query_id = *qid;
  p.deadline_event =
      net_->sim().events().Schedule(p.deadline, [this, ticket] {
        auto pit = pending_.find(ticket);
        if (pit == pending_.end() || !pit->second.dispatched) return;
        ++deadline_cancels_;
        tm_.deadline_cancels->Inc();
        const NodeId h = clients_[pit->second.client].home;
        // Reclaims the core-side trackers now; the core callback fires
        // with complete=false at the end of this instant (MindNode::Query)
        // and lands in OnCoreResult.
        (void)net_->node(h).CancelQuery(pit->second.core_query_id);
      });
}

void QueryService::OnCoreResult(uint64_t ticket, const QueryResult& result) {
  auto it = pending_.find(ticket);
  if (it == pending_.end()) return;
  Pending p = std::move(it->second);
  pending_.erase(it);
  if (p.deadline_event) net_->sim().events().Cancel(p.deadline_event);
  --inflight_;
  --clients_[p.client].active;
  ++completed_total_;
  tm_.completed->Inc();

  QueryResult r = result;  // own a copy: delivery outlives the callback
  r.latency = net_->sim().now() - p.submitted;  // service-side latency
  tm_.latency_ms->Record(ToSeconds(r.latency) * 1e3);
  tm_.result_tuples->Record(static_cast<double>(r.tuples.size()));

  DispatchFromQueue();
  StreamResult(ticket, std::move(p), std::move(r));
}

void QueryService::StreamResult(uint64_t ticket, Pending pending,
                                QueryResult result) {
  if (!pending.deliver) return;
  const uint64_t epoch = IndexEpoch(pending.index);
  const size_t chunk = std::max<size_t>(1, options_.delivery_chunk_tuples);
  const size_t n = result.tuples.size();
  const size_t chunks = n == 0 ? 1 : (n + chunk - 1) / chunk;
  auto tuples =
      std::make_shared<std::vector<Tuple>>(std::move(result.tuples));
  auto deliver = std::make_shared<DeliverFn>(std::move(pending.deliver));
  const uint64_t standing_id = pending.standing_id;
  const bool complete = result.complete;
  const SimTime latency = result.latency;
  for (size_t k = 0; k < chunks; ++k) {
    const size_t lo = k * chunk;
    const size_t hi = std::min(n, lo + chunk);
    const bool last = k + 1 == chunks;
    net_->sim().events().Schedule(
        static_cast<SimTime>(k) * options_.delivery_stride,
        [ticket, standing_id, tuples, deliver, lo, hi, last, complete,
         latency, epoch] {
          Delivery d;
          d.ticket = ticket;
          d.standing_id = standing_id;
          d.tuples.assign(tuples->begin() + static_cast<std::ptrdiff_t>(lo),
                          tuples->begin() + static_cast<std::ptrdiff_t>(hi));
          d.done = last;
          if (last) {
            d.complete = complete;
            d.latency = latency;
            d.epoch = epoch;
          }
          (*deliver)(d);
        });
  }
}

void QueryService::DispatchFromQueue() {
  while (inflight_ < options_.max_inflight && !wait_queue_.empty()) {
    const uint64_t ticket = wait_queue_.front();
    wait_queue_.pop_front();
    if (pending_.count(ticket) == 0) continue;
    Dispatch(ticket);
  }
}

Result<uint64_t> QueryService::AddStanding(ClientId client,
                                           const std::string& index,
                                           Rect rect, SimTime period,
                                           DeliverFn deliver) {
  if (client >= clients_.size()) return Status::NotFound("unknown client");
  if (period == 0) return Status::InvalidArgument("standing period must be > 0");
  const uint64_t id = ++standing_seq_;
  Standing s;
  s.client = client;
  s.index = index;
  s.rect = std::move(rect);
  s.period = period;
  s.deliver = std::move(deliver);
  auto [it, inserted] = standing_.emplace(id, std::move(s));
  MIND_CHECK(inserted);
  it->second.next_fire =
      net_->sim().events().Schedule(0, [this, id] { FireStanding(id); });
  return id;
}

Status QueryService::RemoveStanding(uint64_t standing_id) {
  auto it = standing_.find(standing_id);
  if (it == standing_.end()) return Status::NotFound("unknown standing query");
  if (it->second.next_fire) net_->sim().events().Cancel(it->second.next_fire);
  standing_.erase(it);
  return Status::OK();
}

void QueryService::FireStanding(uint64_t standing_id) {
  auto it = standing_.find(standing_id);
  if (it == standing_.end()) return;
  Standing& s = it->second;
  tm_.standing_fires->Inc();
  // Rejections (quota, overload) skip this period; the query re-arms and
  // tries again against the then-freshest index version.
  (void)SubmitInternal(s.client, s.index, s.rect, s.deliver,
                       /*deadline=*/0, standing_id);
  s.next_fire = net_->sim().events().Schedule(
      s.period, [this, standing_id] { FireStanding(standing_id); });
}

}  // namespace frontend
}  // namespace mind
