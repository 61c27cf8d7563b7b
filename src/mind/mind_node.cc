#include "mind/mind_node.h"

#include <algorithm>
#include <cstdlib>
#include <tuple>
#include <utility>

#include "util/logging.h"
#include "util/ordered.h"
#include "util/validate.h"

namespace mind {
namespace {

// MIND_QUERY_DEBUG is read once per process: the environment cannot change
// mid-run and the query paths are hot. Setting it also opts the process into
// debug-level logging, so the [qdbg] lines — emitted through the sim-time-
// aware log clock like every other line — actually surface.
bool QueryDebugEnabled() {
  static const bool enabled = [] {
    const bool on = std::getenv("MIND_QUERY_DEBUG") != nullptr;
    if (on && GetLogThreshold() > LogLevel::kDebug) {
      SetLogThreshold(LogLevel::kDebug);
    }
    return on;
  }();
  return enabled;
}

// A single insert is a train of one: these views let CommitInserts serve
// both message types without copying either into the other's shape.
size_t TupleCount(const InsertMsg&) { return 1; }
size_t TupleCount(const InsertBatchMsg& m) { return m.tuples.size(); }
Tuple& TupleAt(InsertMsg& m, size_t) { return m.tuple; }
Tuple& TupleAt(InsertBatchMsg& m, size_t i) { return m.tuples[i]; }
const BitCode& CodeAt(const InsertMsg& m, size_t) { return m.code; }
const BitCode& CodeAt(const InsertBatchMsg& m, size_t i) { return m.codes[i]; }

// Adds the sorted, distinct `add` to the sorted, distinct `into`.
void UnionInto(const std::vector<NodeId>& add, std::vector<NodeId>* into) {
  const auto mid = static_cast<std::ptrdiff_t>(into->size());
  into->insert(into->end(), add.begin(), add.end());
  std::inplace_merge(into->begin(), into->begin() + mid, into->end());
  into->erase(std::unique(into->begin(), into->end()), into->end());
}

}  // namespace

MindNode::MindNode(Simulator* sim, OverlayOptions overlay_options,
                   MindOptions options, std::optional<GeoPoint> position)
    : sim_(sim),
      events_(&sim->events()),
      options_(options),
      rng_(options.seed),
      overlay_(sim, overlay_options, position),
      cover_cache_(&sim->metrics()) {
  rng_ = Rng(options.seed).Fork(static_cast<uint64_t>(overlay_.id()) + 7919);
  events_ = sim->queue_for(overlay_.id());
  telemetry::MetricsRegistry& m = sim->metrics();
  tm_.inserts = &m.counter("mind.insert.count");
  tm_.queries = &m.counter("mind.query.count");
  tm_.query_timeouts = &m.counter("mind.query.timeouts");
  tm_.replicas_sent = &m.counter("mind.replicate.sent");
  tm_.insert_latency_ms = &m.histogram("mind.insert.latency_ms");
  tm_.insert_hops = &m.histogram("mind.insert.hops");
  tm_.dac_insert_wait_ms = &m.histogram("mind.dac.insert_wait_ms");
  tm_.dac_query_wait_ms = &m.histogram("mind.dac.query_wait_ms");
  tm_.query_latency_ms = &m.histogram("mind.query.latency_ms");
  tm_.subquery_len = &m.histogram("mind.query.subquery_len");
  tm_.replicate_fanout = &m.histogram("mind.replicate.fanout");
  tm_.scan_rows_examined = &m.histogram("storage.scan.rows_examined");
  tm_.scan_rows_returned = &m.histogram("storage.scan.rows_returned");
  overlay_.set_on_deliver(
      [this](NodeId origin, const MessagePtr& inner, int hops) {
        OnDelivered(origin, inner, hops);
      });
  overlay_.set_on_broadcast([this](NodeId origin, const MessagePtr& inner) {
    OnBroadcastMsg(origin, inner);
  });
  overlay_.set_on_direct([this](NodeId from, const MessagePtr& msg) {
    OnDirect(from, msg);
  });
  overlay_.set_on_forward([this](const MessagePtr& inner) { OnForward(inner); });
  overlay_.set_on_joined([this] {
    data_sibling_ = overlay_.join_parent();
    join_time_ = events_->now();
    if (data_sibling_ != kInvalidNode) RequestIndexSync();
  });
  overlay_.set_on_code_change([this](BitCode old_code, BitCode new_code) {
    // Joins, splits and absorptions keep the new region nested with the old
    // one. Only a recursive takeover relabels a node into a disjoint region
    // (OverlayNode::TryAbsorbRegion), leaving its old region's data behind.
    if (!old_code.IsPrefixOf(new_code) && !new_code.IsPrefixOf(old_code)) {
      HandOffRegion(old_code);
      RequestRegionData(new_code);
    }
  });
}

void MindNode::HandOffRegion(const BitCode& old_code) {
  // The old region's heir is the node the overlay makes absorb it: its
  // exact sibling (the code-update cascade), or, when the sibling side is
  // split, that side's all-zeros leaf (it relabels into the vacancy). The
  // heir receives every tuple held here as a replica, exactly the copy a
  // sibling answers from after a primary fails (§3.8); without it, the data
  // is stranded and, if the region's replica holder is dead too, lost to
  // every query. No eligible peer known: nothing to hand to.
  const BitCode sibling = old_code.Sibling();
  NodeId heir = kInvalidNode;
  for (const auto& [peer, pcode] : overlay_.peers()) {
    if (!sibling.IsPrefixOf(pcode)) continue;
    bool zeros = true;
    for (int i = sibling.length(); i < pcode.length(); ++i) {
      if (pcode.bit(i) != 0) zeros = false;
    }
    if (zeros && (heir == kInvalidNode || peer < heir)) heir = peer;
  }
  if (heir != kInvalidNode) SendTuplesAsReplicas(heir, nullptr);
}

void MindNode::RequestRegionData(const BitCode& new_code) {
  for (NodeId peer : SortedKeys(overlay_.peers())) {
    auto req = MakeMessage<RegionDataRequestMsg>();
    req->region = new_code;
    overlay_.SendDirect(peer, req);
  }
}

void MindNode::SendTuplesAsReplicas(NodeId to, const BitCode* region) {
  for (const auto& [name, st] : indices_) {  // map: ordered by name
    for (const IndexVersions* chain : {&st.primary, &st.replicas}) {
      for (const auto& v : chain->Versions()) {
        const TupleStore* store = chain->Store(v.id);
        if (store == nullptr) continue;
        // Canonical send order: layout order depends on compaction timing.
        std::vector<Tuple> tuples = store->AllTuples();
        std::sort(tuples.begin(), tuples.end(),
                  [](const Tuple& a, const Tuple& b) {
                    return std::tie(a.origin, a.seq) < std::tie(b.origin, b.seq);
                  });
        const CutTreeRef cuts = chain->Cuts(v.id);
        size_t sent = 0;
        for (Tuple& t : tuples) {
          BitCode code = cuts->CodeForPoint(t.point, options_.insert_code_len);
          if (region != nullptr && !region->IsPrefixOf(code)) continue;
          auto rep = MakeMessage<ReplicateMsg>();
          rep->index = name;
          rep->version = v.id;
          rep->code = std::move(code);
          rep->tuple = std::move(t);
          overlay_.SendDirect(to, rep);
          ++sent;
        }
        tm_.replicas_sent->Inc(sent);
      }
    }
  }
}

// --------------------------------------------------------------- management

Status MindNode::CreateIndex(const IndexDef& def, CutTreeRef cuts,
                             VersionId version, SimTime start) {
  MIND_RETURN_NOT_OK(def.Validate());
  if (cuts == nullptr || !(cuts->schema() == def.schema)) {
    return Status::InvalidArgument("cut tree missing or schema mismatch");
  }
  if (indices_.count(def.name)) {
    return Status::AlreadyExists("index " + def.name);
  }
  auto m = MakeMessage<CreateIndexMsg>();
  m->def = def;
  m->version = version;
  m->cuts = std::move(cuts);
  m->start = start;
  overlay_.Broadcast(m);  // self-delivery applies it locally too
  return Status::OK();
}

Status MindNode::DropIndex(const std::string& name) {
  if (!indices_.count(name)) return Status::NotFound("index " + name);
  auto m = MakeMessage<DropIndexMsg>();
  m->name = name;
  overlay_.Broadcast(m);
  return Status::OK();
}

Status MindNode::InstallCuts(const std::string& name, VersionId version,
                             CutTreeRef cuts, SimTime start) {
  IndexState* st = FindIndex(name);
  if (st == nullptr) return Status::NotFound("index " + name);
  if (cuts == nullptr || !(cuts->schema() == st->def.schema)) {
    return Status::InvalidArgument("cut tree missing or schema mismatch");
  }
  auto m = MakeMessage<InstallCutsMsg>();
  m->name = name;
  m->version = version;
  m->cuts = std::move(cuts);
  m->start = start;
  overlay_.Broadcast(m);
  return Status::OK();
}

TupleStoreConfig MindNode::StoreConfig() {
  TupleStoreConfig config;
  config.code_len = options_.insert_code_len;
  config.options.compaction = options_.store_compaction;
  config.metrics = &sim_->metrics();
  config.cover_cache = &cover_cache_;
  return config;
}

void MindNode::ApplyCreateIndex(const CreateIndexMsg& m) {
  if (indices_.count(m.def.name)) return;  // duplicate broadcast
  auto [it, inserted] =
      indices_.emplace(m.def.name, IndexState(m.def, StoreConfig()));
  MIND_CHECK(inserted);
  MIND_CHECK_OK(it->second.primary.AddVersion(m.version, m.cuts, m.start));
  MIND_CHECK_OK(it->second.replicas.AddVersion(m.version, m.cuts, m.start));
  if (on_version_opened_) {
    on_version_opened_(m.def.name, m.version, it->second.primary.epoch());
  }
}

void MindNode::ApplyInstallCuts(const InstallCutsMsg& m) {
  IndexState* st = FindIndex(m.name);
  if (st == nullptr) return;  // index unknown here (dropped or lagging)
  // Ignore duplicates / out-of-order repeats.
  if (st->primary.HasVersion(m.version)) return;
  Status s = st->primary.AddVersion(m.version, m.cuts, m.start);
  if (s.ok()) {
    MIND_CHECK_OK(st->replicas.AddVersion(m.version, m.cuts, m.start));
    // The daily freeze retires the cached covers: monitoring queries move to
    // the new version's cuts, and an entry kept for a closed version would
    // pin its tree and hold memory until the table filled (kMaxEntries per
    // node), so the footprint would grow with the query history.
    cover_cache_.Invalidate();
    if (on_version_opened_) {
      on_version_opened_(m.name, m.version, st->primary.epoch());
    }
  } else {
    MIND_LOG(Warning) << "node " << id() << ": cannot install cuts v"
                      << m.version << " on " << m.name << ": " << s.ToString();
  }
}

// --------------------------------------------------------------- insert

Status MindNode::Insert(const std::string& index, Tuple tuple) {
  IndexState* st = FindIndex(index);
  if (st == nullptr) return Status::NotFound("index " + index);
  if (static_cast<int>(tuple.point.size()) != st->def.schema.dims()) {
    return Status::InvalidArgument("tuple arity mismatch for " + index);
  }
  SimTime t = st->def.time_attr >= 0
                  ? static_cast<SimTime>(tuple.point[st->def.time_attr])
                  : events_->now();
  auto versions = st->primary.VersionsOverlapping(t, t);
  if (versions.empty()) {
    return Status::OutOfRange("no index version covers tuple timestamp");
  }
  VersionId version = versions.back();
  CutTreeRef cuts = st->primary.Cuts(version);
  BitCode code = cuts->CodeForPoint(tuple.point, options_.insert_code_len);

  auto m = MakeMessage<InsertMsg>();
  m->index = index;
  m->version = version;
  m->tuple = std::move(tuple);
  m->code = code;
  m->sent_at = events_->now();
  tm_.inserts->Inc();
  ++insert_seq_;
  overlay_.Route(code, m);
  return Status::OK();
}

Status MindNode::InsertBatch(const std::string& index,
                             std::vector<Tuple> tuples) {
  if (tuples.empty()) return Status::OK();
  IndexState* st = FindIndex(index);
  if (st == nullptr) return Status::NotFound("index " + index);
  for (const Tuple& t : tuples) {
    if (static_cast<int>(t.point.size()) != st->def.schema.dims()) {
      return Status::InvalidArgument("tuple arity mismatch for " + index);
    }
  }
  // Destination version is chosen per tuple (by timestamp, as in Insert);
  // one train departs per distinct version.
  std::map<VersionId, std::vector<Tuple>> by_version;
  for (Tuple& t : tuples) {
    SimTime ts = st->def.time_attr >= 0
                     ? static_cast<SimTime>(t.point[st->def.time_attr])
                     : events_->now();
    auto versions = st->primary.VersionsOverlapping(ts, ts);
    if (versions.empty()) {
      return Status::OutOfRange("no index version covers tuple timestamp");
    }
    by_version[versions.back()].push_back(std::move(t));
  }
  for (auto& [version, group] : by_version) {
    CutTreeRef cuts = st->primary.Cuts(version);
    auto m = MakeMessage<InsertBatchMsg>();
    m->index = index;
    m->version = version;
    m->tuples = std::move(group);
    m->codes.reserve(m->tuples.size());
    for (const Tuple& t : m->tuples) {
      m->codes.push_back(cuts->CodeForPoint(t.point, options_.insert_code_len));
    }
    // The train is addressed to the deepest region containing every tuple;
    // it rides as one message until that prefix splits across nodes.
    BitCode common = m->codes.front();
    for (size_t i = 1; i < m->codes.size(); ++i) {
      common = common.Prefix(common.CommonPrefixLen(m->codes[i]));
    }
    m->code = common;
    m->sent_at = events_->now();
    tm_.inserts->Inc(m->tuples.size());
    ++insert_seq_;
    overlay_.Route(common, m);
  }
  return Status::OK();
}

void MindNode::OnInsertBatchArrived(const std::shared_ptr<InsertBatchMsg>& m,
                                    int hops) {
  const BitCode& my = overlay_.code();
  if (my.IsPrefixOf(m->code)) {
    // Every tuple of the train lands in our region: commit as one batch.
    CommitInserts(m, hops);
    return;
  }
  if (m->code.IsPrefixOf(my)) {
    // The train spans several nodes: split by the next code bit and send each
    // sub-train on (mirrors HandleQueryCode).
    const int at = m->code.length();
    auto sub0 = MakeMessage<InsertBatchMsg>();
    auto sub1 = MakeMessage<InsertBatchMsg>();
    for (InsertBatchMsg* sub : {sub0.get(), sub1.get()}) {
      sub->index = m->index;
      sub->version = m->version;
      sub->sent_at = m->sent_at;
    }
    for (size_t i = 0; i < m->tuples.size(); ++i) {
      InsertBatchMsg* sub = m->codes[i].bit(at) ? sub1.get() : sub0.get();
      sub->tuples.push_back(std::move(m->tuples[i]));
      sub->codes.push_back(m->codes[i]);
    }
    for (const auto& sub : {sub0, sub1}) {
      if (sub->tuples.empty()) continue;
      // Re-tighten the prefix: this half's tuples may share more bits, which
      // shortens the remaining route.
      BitCode common = sub->codes.front();
      for (size_t i = 1; i < sub->codes.size(); ++i) {
        common = common.Prefix(common.CommonPrefixLen(sub->codes[i]));
      }
      sub->code = common;
      int cpl = my.CommonPrefixLen(common);
      if (cpl == std::min(my.length(), common.length())) {
        OnInsertBatchArrived(sub, hops);  // still (partly) ours
      } else {
        overlay_.Route(common, sub);
      }
    }
    return;
  }
  // Misrouted during an overlay transient: try again.
  overlay_.Route(m->code, m);
}

template <typename InsertT>
void MindNode::CommitInserts(const std::shared_ptr<InsertT>& m, int hops) {
  IndexState* st = FindIndex(m->index);
  if (st == nullptr) return;  // lagging index creation: drop
  if (!st->primary.HasVersion(m->version)) return;

  // The storage thread (the prototype's DAC) serializes commits.
  const SimTime now = events_->now();
  SimTime dac_wait = dac_busy_until_ > now ? dac_busy_until_ - now : 0;
  tm_.dac_insert_wait_ms->Record(ToSeconds(dac_wait) * 1e3);
  // DAC amortization: the first tuple pays the full commit cost, the rest of
  // a train rides the same storage-thread pass.
  SimTime commit_at =
      std::max(now, dac_busy_until_) + options_.insert_proc_time +
      options_.batch_item_proc_time * static_cast<SimTime>(TupleCount(*m) - 1);
  dac_busy_until_ = commit_at;
  events_->ScheduleAt(commit_at, [this, m, hops, commit_at] {
    IndexState* st2 = FindIndex(m->index);
    if (st2 == nullptr) return;
    TupleStore* store2 = st2->primary.Store(m->version);
    if (store2 == nullptr) return;
    std::vector<NodeId> rep_targets;
    if (options_.replication != 0) {
      rep_targets = overlay_.ReplicationTargets(options_.replication);
    }
    size_t fanout_total = 0;
    for (size_t i = 0; i < TupleCount(*m); ++i) {
      Tuple& tuple = TupleAt(*m, i);
      const BitCode& code = CodeAt(*m, i);
      NodeId origin = tuple.origin;
      // Build the replica copy before the store consumes the tuple.
      std::shared_ptr<ReplicateMsg> rep;
      if (options_.replication != 0) {
        rep = MakeMessage<ReplicateMsg>();
        rep->index = m->index;
        rep->version = m->version;
        rep->tuple = tuple;
        rep->code = code;
      }
      store2->InsertCoded(std::move(tuple), code);
      tm_.insert_latency_ms->Record(ToSeconds(commit_at - m->sent_at) * 1e3);
      tm_.insert_hops->Record(static_cast<double>(hops));
      if (on_stored_) {
        StoredInfo info;
        info.committed_at = commit_at;
        info.latency = commit_at - m->sent_at;
        info.origin = origin;
        info.storer = id();
        info.hops = hops;
        on_stored_(info);
      }
      // Replicate to prefix neighbors (§3.8).
      if (rep != nullptr) {
        for (NodeId target : rep_targets) {
          overlay_.SendDirect(target, rep);
          ++fanout_total;
        }
        tm_.replicate_fanout->Record(static_cast<double>(rep_targets.size()));
      }
    }
    if (options_.replication != 0) tm_.replicas_sent->Inc(fanout_total);
  });
}

// --------------------------------------------------------------- query

Result<uint64_t> MindNode::Query(const std::string& index, const Rect& rect,
                                 QueryCallback callback) {
  IndexState* st = FindIndex(index);
  if (st == nullptr) return Status::NotFound("index " + index);
  if (rect.dims() != st->def.schema.dims()) {
    return Status::InvalidArgument("query arity mismatch for " + index);
  }
  for (int d = 0; d < rect.dims(); ++d) {
    if (rect.interval(d).lo > rect.interval(d).hi) {
      return Status::InvalidArgument("inverted query interval for " + index);
    }
  }
  uint64_t query_id =
      (static_cast<uint64_t>(static_cast<uint32_t>(id())) << 32) |
      (++query_seq_);

  SimTime t1 = 0, t2 = UINT64_MAX;
  if (st->def.time_attr >= 0) {
    t1 = rect.interval(st->def.time_attr).lo;
    t2 = rect.interval(st->def.time_attr).hi;
  }
  auto versions = st->primary.VersionsOverlapping(t1, t2);

  PendingQuery pq;
  pq.index = index;
  pq.rect = rect;
  pq.callback = std::move(callback);
  pq.started = events_->now();
  tm_.queries->Inc();

  if (versions.empty()) {
    // Nothing to ask: complete immediately (async for API consistency).
    queries_.emplace(query_id, std::move(pq));
    events_->Schedule(1, [this, query_id] { FinalizeQuery(query_id, true); });
    return query_id;
  }

  for (VersionId v : versions) {
    CutTreeRef cuts = st->primary.Cuts(v);
    int root_len = std::min(options_.insert_code_len, options_.max_split_len);
    BitCode root = cuts->MinimalContainingCode(rect, root_len);
    pq.trackers.emplace(v, QueryTracker(rect, root, cuts,
                                        options_.max_split_len,
                                        &sim_->metrics()));
  }
  auto [it, inserted] = queries_.emplace(query_id, std::move(pq));
  MIND_CHECK(inserted);
  it->second.timeout_event =
      events_->Schedule(options_.query_timeout, [this, query_id] {
        FinalizeQuery(query_id, false);
      });

  for (auto& [v, tracker] : it->second.trackers) {
    auto m = MakeMessage<QueryMsg>();
    m->query_id = query_id;
    m->index = index;
    m->version = v;
    m->rect = rect;
    m->code = tracker.root();
    m->originator = id();
    m->sent_at = events_->now();
    overlay_.Route(tracker.root(), m);
  }
  return query_id;
}

bool MindNode::CancelQuery(uint64_t query_id) {
  if (queries_.find(query_id) == queries_.end()) return false;
  FinalizeQuery(query_id, /*complete=*/false);
  return true;
}

void MindNode::NoteQueryVisit(uint64_t query_id) {
  if (on_query_visit_) on_query_visit_(query_id, id());
}

void MindNode::OnQueryArrived(const std::shared_ptr<QueryMsg>& m) {
  if (QueryDebugEnabled()) {
    MIND_LOG(Debug) << "[qdbg] node " << id() << " (code "
                    << overlay_.code().ToString() << ") got query "
                    << m->query_id << " code " << m->code.ToString()
                    << " resolve_only=" << m->resolve_only;
  }
  NoteQueryVisit(m->query_id);
  if (m->resolve_only) {
    ResolveAndReply(*m, m->code);
    return;
  }
  HandleQueryCode(m, m->code);
}

void MindNode::HandleQueryCode(const std::shared_ptr<QueryMsg>& m,
                               const BitCode& code) {
  const BitCode& my = overlay_.code();
  if (my.IsPrefixOf(code)) {
    // Our region contains the whole sub-query region: resolve it.
    ResolveAndReply(*m, code);
    return;
  }
  if (code.IsPrefixOf(my)) {
    // The sub-query region spans several nodes: split (§3.6).
    IndexState* st = FindIndex(m->index);
    if (st == nullptr) return;
    CutTreeRef cuts = st->primary.Cuts(m->version);
    if (cuts == nullptr) return;
    for (const BitCode& child :
         cuts->IntersectingChildren(m->rect, code, &walk_cursor_)) {
      int cpl = my.CommonPrefixLen(child);
      if (cpl == std::min(my.length(), child.length())) {
        HandleQueryCode(m, child);  // still (partly) ours: keep splitting
      } else {
        auto sub = MakeMessage<QueryMsg>(*m);
        sub->code = child;
        overlay_.Route(child, sub);
      }
    }
    return;
  }
  // Misrouted during an overlay transient: try again.
  overlay_.Route(code, m);
}

void MindNode::ResolveAndReply(const QueryMsg& m, const BitCode& code) {
  IndexState* st = FindIndex(m.index);
  if (st == nullptr) return;
  CutTreeRef cuts = st->primary.Cuts(m.version);
  if (cuts == nullptr) return;

  tm_.subquery_len->Record(static_cast<double>(code.length()));

  // The reply message doubles as the result buffer: stores append matching
  // rows straight into its columns (QueryColumns), and the originator
  // appends them to its tracker's columns — no Tuple per row and no
  // intermediate vector anywhere on the reply path.
  auto reply = MakeMessage<QueryReplyMsg>();
  reply->rows.dims = static_cast<size_t>(st->def.schema.dims());
  // Read path: const access never materializes a lazy version — a store this
  // node was never written to answers as the empty store it is.
  const TupleStore* primary = std::as_const(st->primary).Store(m.version);
  const TupleStore* replicas = std::as_const(st->replicas).Store(m.version);
  uint64_t examined0 = (primary ? primary->scan_rows_examined() : 0) +
                       (replicas ? replicas->scan_rows_examined() : 0);
  uint64_t matched0 = (primary ? primary->scan_rows_matched() : 0) +
                      (replicas ? replicas->scan_rows_matched() : 0);
  // The scan rectangle is the code's region clipped to the query, built on
  // the walk cursor: no split is mid-walk here (IntersectingChildren returns
  // before its caller's loop body runs), so a resolve builds no Rect.
  if (cuts->WalkTo(code, &walk_cursor_) && walk_cursor_.rect.ClipTo(m.rect)) {
    const Rect& scan_rect = walk_cursor_.rect;
    if (primary != nullptr) primary->QueryColumns(scan_rect, &reply->rows);
    // Replica data answers for failed primaries (transparent failover, §3.8);
    // the originator de-duplicates.
    if (replicas != nullptr) replicas->QueryColumns(scan_rect, &reply->rows);
  }
  uint64_t examined1 = (primary ? primary->scan_rows_examined() : 0) +
                       (replicas ? replicas->scan_rows_examined() : 0);
  uint64_t matched1 = (primary ? primary->scan_rows_matched() : 0) +
                      (replicas ? replicas->scan_rows_matched() : 0);
  tm_.scan_rows_examined->Record(static_cast<double>(examined1 - examined0));
  tm_.scan_rows_returned->Record(static_cast<double>(matched1 - matched0));

  // Forward pointer (§3.4): versions we acquired via index sync (we joined
  // after their creation) may have pre-join data at the node we split from;
  // forward a resolve-only copy there (the paper's joiner->sibling pointer).
  if (!m.resolve_only && data_sibling_ != kInvalidNode &&
      st->synced_versions.count(m.version) > 0) {
    auto fwd = MakeMessage<QueryMsg>(m);
    fwd->resolve_only = true;
    fwd->code = code;
    overlay_.SendDirect(data_sibling_, fwd);
  }

  size_t n = reply->rows.size();
  SimTime now = events_->now();
  SimTime dac_wait = dac_busy_until_ > now ? dac_busy_until_ - now : 0;
  tm_.dac_query_wait_ms->Record(ToSeconds(dac_wait) * 1e3);
  SimTime respond_at = std::max(events_->now(), dac_busy_until_) +
                       options_.query_proc_base +
                       options_.query_proc_per_tuple * n;
  dac_busy_until_ = respond_at;

  if (QueryDebugEnabled()) {
    MIND_LOG(Debug) << "[qdbg] node " << id() << " (code "
                    << overlay_.code().ToString() << ") resolves "
                    << code.ToString() << " -> " << n << " tuples";
  }
  reply->query_id = m.query_id;
  reply->version = m.version;
  reply->covered = code;
  reply->resolver = id();
  reply->supplemental = m.resolve_only;
  NodeId originator = m.originator;
  events_->ScheduleAt(respond_at, [this, reply, originator] {
    if (originator == id()) {
      OnQueryReply(*reply);
    } else {
      overlay_.SendDirect(originator, reply);
    }
  });
}

void MindNode::OnQueryReply(const QueryReplyMsg& m) {
  auto it = queries_.find(m.query_id);
  if (it == queries_.end()) {
    if (QueryDebugEnabled()) {
      MIND_LOG(Debug) << "[qdbg] originator " << id() << ": LATE reply from "
                      << m.resolver << " covered " << m.covered.ToString()
                      << " (" << m.rows.size() << " tuples)";
    }
    return;  // finished or timed out
  }
  auto tit = it->second.trackers.find(m.version);
  if (tit == it->second.trackers.end()) return;
  if (QueryDebugEnabled()) {
    MIND_LOG(Debug) << "[qdbg] originator " << id() << ": reply from "
                    << m.resolver << " covered " << m.covered.ToString()
                    << " (" << m.rows.size() << " tuples)";
  }
  tit->second.AddReply(m.resolver, m.covered, m.rows, !m.supplemental);
  for (auto& [v, tracker] : it->second.trackers) {
    if (!tracker.IsComplete()) return;
  }
  FinalizeQuery(m.query_id, true);
}

void MindNode::FinalizeQuery(uint64_t query_id, bool complete) {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) return;
  PendingQuery& pq = it->second;
  if (pq.timeout_event) events_->Cancel(pq.timeout_event);

  QueryResult result;
  result.query_id = query_id;
  result.complete = complete;
  result.latency = events_->now() - pq.started;
  tm_.query_latency_ms->Record(ToSeconds(result.latency) * 1e3);
  if (!complete) tm_.query_timeouts->Inc();
  // The one place reply rows become tuples.
  result.tuples = MergeResults(pq.trackers);
  std::vector<NodeId> responders, positive;  // unions over versions, sorted
  for (auto& [v, tracker] : pq.trackers) {
    UnionInto(tracker.responders(), &responders);
    UnionInto(tracker.positive_responders(), &positive);
  }
  result.responders = responders.size();
  result.positive_responders = positive.size();
  // The originator and every responder (a reply reaches its tracker only).
  result.nodes_visited =
      responders.size() +
      (std::binary_search(responders.begin(), responders.end(), id()) ? 0 : 1);
  QueryCallback cb = std::move(pq.callback);
  queries_.erase(it);
  if (cb) {
    sim_->Deliver(query_id, [cb = std::move(cb), result = std::move(result)] {
      cb(result);
    });
  }
}

// --------------------------------------------------------------- histograms

Status MindNode::StartRebalance(const RebalanceParams& params,
                                std::function<void(Status)> done) {
  IndexState* st = FindIndex(params.index);
  if (st == nullptr) return Status::NotFound("index " + params.index);
  if (st->primary.Cuts(params.source_version) == nullptr) {
    return Status::NotFound("unknown source version");
  }
  uint64_t collection_id =
      (static_cast<uint64_t>(static_cast<uint32_t>(id())) << 32) |
      (++collection_seq_);
  PendingCollection pc;
  pc.params = params;
  pc.merged =
      std::make_shared<Histogram>(st->def.schema, params.bins_per_dim);
  pc.done = std::move(done);
  collections_.emplace(collection_id, std::move(pc));

  auto req = MakeMessage<HistRequestMsg>();
  req->collection_id = collection_id;
  req->index = params.index;
  req->version = params.source_version;
  req->bins_per_dim = params.bins_per_dim;
  req->time_shift = params.time_shift;
  req->collector = id();
  overlay_.Broadcast(req);

  events_->Schedule(params.collect_window, [this, collection_id] {
    auto it = collections_.find(collection_id);
    if (it == collections_.end()) return;
    PendingCollection pc2 = std::move(it->second);
    collections_.erase(it);
    IndexState* st2 = FindIndex(pc2.params.index);
    Status status = Status::OK();
    if (st2 == nullptr) {
      status = Status::NotFound("index dropped during rebalance");
    } else {
      auto cuts = CutTree::Balanced(st2->def.schema, *pc2.merged,
                                    pc2.params.cut_depth);
      if (!cuts.ok()) {
        status = cuts.status();
      } else {
        status = InstallCuts(
            pc2.params.index, pc2.params.new_version,
            std::make_shared<CutTree>(std::move(cuts).value()),
            pc2.params.new_start);
      }
    }
    if (pc2.done) pc2.done(status);
  });
  return Status::OK();
}

void MindNode::OnHistRequest(const HistRequestMsg& m) {
  IndexState* st = FindIndex(m.index);
  if (st == nullptr) return;
  const TupleStore* store = std::as_const(st->primary).Store(m.version);
  auto reply = MakeMessage<HistReplyMsg>();
  reply->collection_id = m.collection_id;
  reply->histogram = std::make_shared<Histogram>(
      store != nullptr
          ? store->BuildHistogram(m.bins_per_dim, st->def.time_attr,
                                  m.time_shift)
          : Histogram(st->def.schema, m.bins_per_dim));
  if (m.collector == id()) {
    OnHistReply(*reply);
  } else {
    overlay_.SendDirect(m.collector, reply);
  }
}

void MindNode::OnHistReply(const HistReplyMsg& m) {
  auto it = collections_.find(m.collection_id);
  if (it == collections_.end()) return;
  if (m.histogram != nullptr) {
    Status s = it->second.merged->Merge(*m.histogram);
    if (!s.ok()) {
      MIND_LOG(Warning) << "histogram merge failed: " << s.ToString();
      return;
    }
    ++it->second.replies;
  }
}

// --------------------------------------------------------------- sync/churn

void MindNode::RequestIndexSync() {
  overlay_.SendDirect(data_sibling_, MakeMessage<IndexSyncRequestMsg>());
}

void MindNode::Crash() {
  overlay_.Crash();
  // Pending queries this node originated are abandoned by the crash. Finalize
  // them (complete=false) rather than just dropping the map: the Query()
  // contract is that the callback fires exactly once, and a front-end holding
  // per-query state on top of us would otherwise leak it until ITS timeout.
  // Sorted ids — finalization records telemetry and, for a crash issued
  // between runs, runs callbacks inline: an ordered-emit hazard.
  for (uint64_t qid : SortedKeys(queries_)) {
    FinalizeQuery(qid, /*complete=*/false);
  }
  queries_.clear();  // anything an inline callback re-submitted mid-crash
  // Volatile state is lost. Cached covers pin their cut trees, so dropping
  // the stores here would otherwise keep those trees alive via the cache.
  indices_.clear();
  cover_cache_.Invalidate();
  collections_.clear();
  dac_busy_until_ = 0;
  data_sibling_ = kInvalidNode;
}

void MindNode::Revive(NodeId bootstrap) { overlay_.Revive(bootstrap); }

// --------------------------------------------------------------- plumbing

void MindNode::OnDelivered(NodeId origin, const MessagePtr& inner, int hops) {
  (void)origin;
  auto* mm = inner != nullptr && inner->IsMind() ? static_cast<MindMsg*>(inner.get()) : nullptr;
  if (mm == nullptr) return;
  switch (mm->kind()) {
    case MindMsgKind::kInsert:
      CommitInserts(std::static_pointer_cast<InsertMsg>(inner), hops);
      break;
    case MindMsgKind::kInsertBatch:
      OnInsertBatchArrived(std::static_pointer_cast<InsertBatchMsg>(inner),
                           hops);
      break;
    case MindMsgKind::kQuery:
      OnQueryArrived(std::static_pointer_cast<QueryMsg>(inner));
      break;
    default:
      break;
  }
}

void MindNode::OnBroadcastMsg(NodeId origin, const MessagePtr& inner) {
  (void)origin;
  auto* mm = inner != nullptr && inner->IsMind() ? static_cast<MindMsg*>(inner.get()) : nullptr;
  if (mm == nullptr) return;
  switch (mm->kind()) {
    case MindMsgKind::kCreateIndex:
      ApplyCreateIndex(static_cast<const CreateIndexMsg&>(*mm));
      break;
    case MindMsgKind::kDropIndex:
      indices_.erase(static_cast<const DropIndexMsg&>(*mm).name);
      // Release cut trees that only the cover cache still pins.
      cover_cache_.Invalidate();
      break;
    case MindMsgKind::kInstallCuts:
      ApplyInstallCuts(static_cast<const InstallCutsMsg&>(*mm));
      break;
    case MindMsgKind::kHistRequest:
      OnHistRequest(static_cast<const HistRequestMsg&>(*mm));
      break;
    default:
      break;
  }
}

void MindNode::OnDirect(NodeId from, const MessagePtr& msg) {
  auto* mm = msg->IsMind() ? static_cast<MindMsg*>(msg.get()) : nullptr;
  if (mm == nullptr) return;
  switch (mm->kind()) {
    case MindMsgKind::kReplicate: {
      const auto& r = static_cast<const ReplicateMsg&>(*mm);
      IndexState* st = FindIndex(r.index);
      if (st == nullptr) break;
      TupleStore* store = st->replicas.Store(r.version);
      if (store != nullptr) store->InsertCoded(r.tuple, r.code);
      break;
    }
    case MindMsgKind::kQueryReply:
      OnQueryReply(static_cast<const QueryReplyMsg&>(*mm));
      break;
    case MindMsgKind::kRegionDataRequest:
      SendTuplesAsReplicas(
          from, &static_cast<const RegionDataRequestMsg&>(*mm).region);
      break;
    case MindMsgKind::kQuery: {
      // resolve_only forwards arrive as direct messages.
      auto q = std::static_pointer_cast<QueryMsg>(msg);
      if (q->resolve_only) {
        NoteQueryVisit(q->query_id);
        ResolveAndReply(*q, q->code);
      }
      break;
    }
    case MindMsgKind::kHistReply:
      OnHistReply(static_cast<const HistReplyMsg&>(*mm));
      break;
    case MindMsgKind::kIndexSyncRequest: {
      auto reply = MakeMessage<IndexSyncReplyMsg>();
      for (const auto& [name, st] : indices_) {
        IndexSyncReplyMsg::IndexSnapshot snap;
        snap.def = st.def;
        for (const auto& info : st.primary.Versions()) {
          IndexSyncReplyMsg::IndexSnapshot::VersionSnapshot vs;
          vs.id = info.id;
          vs.cuts = st.primary.Cuts(info.id);
          vs.start = info.start;
          snap.versions.push_back(std::move(vs));
        }
        reply->indices.push_back(std::move(snap));
      }
      overlay_.SendDirect(from, reply);
      break;
    }
    case MindMsgKind::kIndexSyncReply: {
      const auto& r = static_cast<const IndexSyncReplyMsg&>(*mm);
      for (const auto& snap : r.indices) {
        if (indices_.count(snap.def.name)) continue;
        auto [it, inserted] = indices_.emplace(
            snap.def.name, IndexState(snap.def, StoreConfig()));
        MIND_CHECK(inserted);
        for (const auto& vs : snap.versions) {
          MIND_CHECK_OK(it->second.primary.AddVersion(vs.id, vs.cuts, vs.start));
          MIND_CHECK_OK(
              it->second.replicas.AddVersion(vs.id, vs.cuts, vs.start));
          it->second.synced_versions.insert(vs.id);
        }
      }
      break;
    }
    default:
      break;
  }
}

void MindNode::OnForward(const MessagePtr& inner) {
  auto* mm = inner != nullptr && inner->IsMind() ? static_cast<MindMsg*>(inner.get()) : nullptr;
  if (mm != nullptr && mm->kind() == MindMsgKind::kQuery) {
    NoteQueryVisit(static_cast<const QueryMsg&>(*mm).query_id);
  }
}

// --------------------------------------------------------------- accessors

MindNode::IndexState* MindNode::FindIndex(const std::string& name) {
  auto it = indices_.find(name);
  return it == indices_.end() ? nullptr : &it->second;
}

const MindNode::IndexState* MindNode::FindIndex(const std::string& name) const {
  auto it = indices_.find(name);
  return it == indices_.end() ? nullptr : &it->second;
}

const IndexDef* MindNode::GetIndexDef(const std::string& name) const {
  const IndexState* st = FindIndex(name);
  return st ? &st->def : nullptr;
}

std::vector<std::string> MindNode::IndexNames() const {
  return SortedKeys(indices_);
}

size_t MindNode::PrimaryTupleCount(const std::string& name) const {
  const IndexState* st = FindIndex(name);
  return st ? st->primary.TotalTuples() : 0;
}

size_t MindNode::ReplicaTupleCount(const std::string& name) const {
  const IndexState* st = FindIndex(name);
  return st ? st->replicas.TotalTuples() : 0;
}

const IndexVersions* MindNode::PrimaryVersions(const std::string& name) const {
  const IndexState* st = FindIndex(name);
  return st ? &st->primary : nullptr;
}

// --------------------------------------------------------------- correctness

Status MindNode::ValidateInvariants() const {
#if MIND_VALIDATORS_ENABLED
  MIND_RETURN_NOT_OK(overlay_.ValidateInvariants());
  for (const auto& [name, st] : indices_) {
    MIND_VALIDATE(st.def.name == name,
                  "mind: node " << id() << " index map key '" << name
                                << "' does not match its def name '"
                                << st.def.name << "'");
    MIND_RETURN_NOT_OK(st.primary.ValidateInvariants());
    MIND_RETURN_NOT_OK(st.replicas.ValidateInvariants());
    for (VersionId v : st.synced_versions) {
      MIND_VALIDATE(st.primary.HasVersion(v),
                    "mind: node " << id() << " index '" << name
                                  << "' records synced version " << v
                                  << " missing from the primary chain");
    }
  }
#endif  // MIND_VALIDATORS_ENABLED
  return Status::OK();
}

void MindNode::DigestInto(Fnv64* out) const {
  overlay_.DigestInto(out);
  out->Mix(dac_busy_until_);
  out->Mix(query_seq_);
  out->Mix(insert_seq_);
  out->Mix(static_cast<uint64_t>(static_cast<int64_t>(data_sibling_)));
  out->Mix(join_time_);
  out->Mix(static_cast<uint64_t>(indices_.size()));
  for (const auto& [name, st] : indices_) {  // std::map: deterministic order
    out->Mix(name);
    st.primary.DigestInto(out);
    st.replicas.DigestInto(out);
    out->Mix(static_cast<uint64_t>(st.synced_versions.size()));
    for (VersionId v : st.synced_versions) out->Mix(static_cast<uint64_t>(v));
  }
}

}  // namespace mind
