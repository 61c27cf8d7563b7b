// Whole-deployment snapshot/restore: the MSN1 format (DESIGN.md §14).
//
// A snapshot captures everything the StateDigest folds — virtual clock,
// pending re-armable timers, network liveness and outage plans, every node's
// overlay and index state, and every RNG cursor — so that a restored net,
// run forward, is bit-identical to the net that never stopped. The restore
// path proves it: LoadSnapshot recomputes StateDigest() and refuses the
// restore unless it equals the digest recorded at save time.
//
// Layout (all little-endian, via SnapWriter/SnapReader; the trailer carries
// a running FNV-1a 64 checksum of every preceding byte):
//
//   "MSN1"  u16 version(3)
//   u64 node_count  u64 sim_now  u64 state_digest
//   rng(simulator root)
//   [network section]
//   u32 tree_count  [interned cut trees]
//   per node: u32 index-framing  [overlay section]  [index chains]  rng
//   u64 checksum
#include <cstdio>
#include <cstring>
#include <functional>
#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mind/mind_net.h"
#include "sim/simulator.h"
#include "util/snapio.h"

namespace mind {

namespace {

std::string Hex64(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Older streams are refused as unsupported: version 1 carried an
// engine-mode flag and legacy insertion sequence numbers, version 2 an index
// layout byte and layout-selection evidence per version-chain entry,
// version 3 a dynamic link-outage table beside the planned outages.
constexpr uint16_t kSnapshotVersion = 4;

uint64_t IdBits(NodeId id) {
  return static_cast<uint64_t>(static_cast<int64_t>(id));
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

}  // namespace

// ---- MindNode ------------------------------------------------------------

void MindNode::ForEachCutTree(
    const std::function<void(const CutTreeRef&)>& fn) const {
  for (const auto& [name, st] : indices_) {
    for (const auto& chain : {&st.primary, &st.replicas}) {
      for (const auto& v : chain->Versions()) fn(chain->Cuts(v.id));
    }
  }
}

Status MindNode::SaveSnapshotState(
    SnapWriter* w,
    const std::function<uint32_t(const CutTreeRef&)>& tree_index) const {
  // Application-level quiescence: an in-flight query or collection round
  // holds callbacks and trackers no byte stream can carry across processes.
  const std::string who = "mind node " + std::to_string(id());
  if (!queries_.empty()) {
    return Status::Internal("snapshot: " + who + " has " +
                            std::to_string(queries_.size()) +
                            " originated quer" +
                            (queries_.size() == 1 ? "y" : "ies") +
                            " awaiting completion");
  }
  if (!collections_.empty()) {
    return Status::Internal("snapshot: " + who + " has " +
                            std::to_string(collections_.size()) +
                            " histogram collection round(s) in flight");
  }
  MIND_RETURN_NOT_OK(overlay_.SaveSnapshotState(w));

  w->U32(static_cast<uint32_t>(indices_.size()));
  for (const auto& [name, st] : indices_) {  // map: lexicographic, stable
    w->Str(st.def.name);
    w->U32(static_cast<uint32_t>(st.def.schema.dims()));
    for (const AttributeDef& a : st.def.schema.attrs()) {
      w->Str(a.name);
      w->U64(a.min);
      w->U64(a.max);
    }
    w->U32(static_cast<uint32_t>(st.def.carried.size()));
    for (const std::string& c : st.def.carried) w->Str(c);
    w->U64(static_cast<uint64_t>(static_cast<int64_t>(st.def.time_attr)));
    w->U32(static_cast<uint32_t>(st.synced_versions.size()));
    for (VersionId v : st.synced_versions) w->U32(v);  // set: ascending
    st.primary.SaveSnapshotState(w, tree_index);
    st.replicas.SaveSnapshotState(w, tree_index);
  }

  w->U64(query_seq_);
  w->U64(insert_seq_);
  w->U64(collection_seq_);
  w->U64(dac_busy_until_);
  w->U64(IdBits(data_sibling_));
  w->U64(join_time_);
  WriteRngState(w, rng_);
  return Status::OK();
}

Status MindNode::LoadSnapshotState(SnapReader* r,
                                   const std::vector<CutTreeRef>& trees) {
  if (!indices_.empty()) {
    return Status::Internal("snapshot: restoring into a node that already has " +
                            std::to_string(indices_.size()) + " index(es)");
  }
  MIND_RETURN_NOT_OK(overlay_.LoadSnapshotState(r));

  uint32_t index_count;
  MIND_ASSIGN_OR_RETURN(index_count, r->U32("node.index_count"));
  if (index_count > (1u << 16)) {
    return r->FieldError("node.index_count", "implausible index count " +
                                                 std::to_string(index_count));
  }
  std::string prev_name;
  for (uint32_t i = 0; i < index_count; ++i) {
    IndexDef def;
    MIND_ASSIGN_OR_RETURN(def.name, r->Str("index.name"));
    if (i > 0 && def.name <= prev_name) {
      return r->FieldError("index.name", "index names not ascending");
    }
    prev_name = def.name;
    uint32_t dims;
    MIND_ASSIGN_OR_RETURN(dims, r->U32("index.schema.dims"));
    if (dims == 0 || dims > 64) {
      return r->FieldError("index.schema.dims", "dimension count " +
                                                    std::to_string(dims) +
                                                    " outside (0, 64]");
    }
    std::vector<AttributeDef> attrs(dims);
    for (AttributeDef& a : attrs) {
      MIND_ASSIGN_OR_RETURN(a.name, r->Str("index.schema.attr.name"));
      MIND_ASSIGN_OR_RETURN(a.min, r->U64("index.schema.attr.min"));
      MIND_ASSIGN_OR_RETURN(a.max, r->U64("index.schema.attr.max"));
    }
    def.schema = Schema(std::move(attrs));
    uint32_t carried_count;
    MIND_ASSIGN_OR_RETURN(carried_count, r->U32("index.carried.count"));
    if (carried_count > 4096) {
      return r->FieldError("index.carried.count", "implausible carried count");
    }
    def.carried.resize(carried_count);
    for (std::string& c : def.carried) {
      MIND_ASSIGN_OR_RETURN(c, r->Str("index.carried.name"));
    }
    uint64_t time_attr_raw;
    MIND_ASSIGN_OR_RETURN(time_attr_raw, r->U64("index.time_attr"));
    def.time_attr = static_cast<int>(static_cast<int64_t>(time_attr_raw));
    if (def.time_attr < -1 || def.time_attr >= static_cast<int>(dims)) {
      return r->FieldError("index.time_attr",
                           "timestamp attribute " +
                               std::to_string(def.time_attr) +
                               " outside the schema's " +
                               std::to_string(dims) + " dimension(s)");
    }
    MIND_RETURN_NOT_OK(def.Validate());

    auto [it, inserted] =
        indices_.try_emplace(def.name, std::move(def), StoreConfig());
    if (!inserted) {
      return r->FieldError("index.name", "duplicate index name");
    }
    IndexState& st = it->second;

    uint32_t synced_count;
    MIND_ASSIGN_OR_RETURN(synced_count, r->U32("index.synced.count"));
    if (synced_count > (1u << 20)) {
      return r->FieldError("index.synced.count", "implausible synced count");
    }
    VersionId prev_v = 0;
    for (uint32_t s = 0; s < synced_count; ++s) {
      VersionId v;
      MIND_ASSIGN_OR_RETURN(v, r->U32("index.synced.version"));
      if (s > 0 && v <= prev_v) {
        return r->FieldError("index.synced.version",
                             "synced versions not ascending");
      }
      prev_v = v;
      st.synced_versions.insert(st.synced_versions.end(), v);
    }
    MIND_RETURN_NOT_OK(st.primary.LoadSnapshotState(r, trees));
    MIND_RETURN_NOT_OK(st.replicas.LoadSnapshotState(r, trees));
  }

  MIND_ASSIGN_OR_RETURN(query_seq_, r->U64("node.query_seq"));
  MIND_ASSIGN_OR_RETURN(insert_seq_, r->U64("node.insert_seq"));
  MIND_ASSIGN_OR_RETURN(collection_seq_, r->U64("node.collection_seq"));
  MIND_ASSIGN_OR_RETURN(dac_busy_until_, r->U64("node.dac_busy_until"));
  MIND_ASSIGN_OR_RETURN(
      data_sibling_,
      ReadNodeId(r, "node.data_sibling", sim_->network().host_count()));
  MIND_ASSIGN_OR_RETURN(join_time_, r->U64("node.join_time"));
  return ReadRngState(r, &rng_, "node.rng");
}

// ---- MindNet -------------------------------------------------------------

Status MindNet::SaveSnapshot(std::ostream& out) const {
  // Quiescence audit: every pending event across every queue must be one of
  // the nodes' re-armable heartbeat timers. Anything else — a query timeout
  // sweep, a join retry, a failure-injector callback — would be silently
  // dropped by the restore, which would then diverge.
  const size_t pending = sim_->pending_events();
  size_t heartbeats = 0;
  for (const auto& n : nodes_) {
    if (n->overlay().HasPendingHeartbeat()) ++heartbeats;
  }
  if (pending != heartbeats) {
    return Status::Internal(
        "snapshot: " + std::to_string(pending) +
        " pending event(s) but only " + std::to_string(heartbeats) +
        " re-armable heartbeat timer(s); queries, joins and failure "
        "callbacks must drain before SaveSnapshot");
  }

  // Intern the cut trees: one tree is typically shared by every node of an
  // index version, so the table writes each distinct tree exactly once, in
  // first-reference order (node id, then index name, then chain position) —
  // a deterministic order, so identical states write identical bytes.
  std::vector<CutTreeRef> trees;
  std::unordered_map<const CutTree*, uint32_t> tree_ids;
  for (const auto& n : nodes_) {
    n->ForEachCutTree([&](const CutTreeRef& t) {
      if (t != nullptr && tree_ids.emplace(t.get(), trees.size()).second) {
        trees.push_back(t);
      }
    });
  }
  const auto tree_index = [&tree_ids](const CutTreeRef& t) -> uint32_t {
    return tree_ids.at(t.get());
  };

  SnapWriter w(&out);
  w.Bytes("MSN1", 4);
  w.U16(kSnapshotVersion);
  w.U64(nodes_.size());
  w.U64(sim_->events().now());
  w.U64(StateDigest());
  WriteRngState(&w, sim_->rng());
  sim_->network().SaveSnapshotState(&w);

  w.U32(static_cast<uint32_t>(trees.size()));
  for (const CutTreeRef& t : trees) t->SaveSnapshotState(&w);

  for (size_t i = 0; i < nodes_.size(); ++i) {
    w.U32(static_cast<uint32_t>(i));  // framing guard
    MIND_RETURN_NOT_OK(nodes_[i]->SaveSnapshotState(&w, tree_index));
  }

  w.U64(w.checksum());
  return w.status();
}

Status MindNet::LoadSnapshot(std::istream& in) {
  if (sim_->now() != 0 || sim_->pending_events() != 0 ||
      JoinedCount() != 0) {
    return Status::Internal(
        "snapshot: LoadSnapshot requires a freshly constructed, never-run "
        "net");
  }

  SnapReader r(&in);
  char magic[4];
  MIND_RETURN_NOT_OK(r.Bytes(magic, 4, "header.magic"));
  if (std::memcmp(magic, "MSN1", 4) != 0) {
    return r.FieldError("header.magic", "not an MSN1 snapshot");
  }
  uint16_t version;
  MIND_ASSIGN_OR_RETURN(version, r.U16("header.version"));
  if (version != kSnapshotVersion) {
    return r.FieldError("header.version", "unsupported snapshot version " +
                                              std::to_string(version));
  }
  uint64_t node_count;
  MIND_ASSIGN_OR_RETURN(node_count, r.U64("header.node_count"));
  if (node_count != nodes_.size()) {
    return r.FieldError("header.node_count",
                        "snapshot holds " + std::to_string(node_count) +
                            " node(s), this net has " +
                            std::to_string(nodes_.size()));
  }
  uint64_t sim_now, saved_digest;
  MIND_ASSIGN_OR_RETURN(sim_now, r.U64("header.sim_now"));
  MIND_ASSIGN_OR_RETURN(saved_digest, r.U64("header.state_digest"));

  // Clocks first: every queue advances to the saved instant before any
  // timer is re-armed (scheduling into the past is fatal by design).
  sim_->events().AdvanceTo(sim_now);
  if (ParallelEngine* eng = sim_->parallel_engine()) {
    for (int s = 0; s < eng->shard_count(); ++s) {
      eng->shard_queue(s).AdvanceTo(sim_now);
    }
  }
  MIND_RETURN_NOT_OK(ReadRngState(&r, &sim_->rng(), "header.rng"));

  MIND_RETURN_NOT_OK(sim_->network().LoadSnapshotState(&r));

  uint32_t tree_count;
  MIND_ASSIGN_OR_RETURN(tree_count, r.U32("trees.count"));
  if (tree_count > (1u << 20)) {
    return r.FieldError("trees.count", "implausible tree count " +
                                           std::to_string(tree_count));
  }
  std::vector<CutTreeRef> trees;
  trees.reserve(tree_count);
  for (uint32_t i = 0; i < tree_count; ++i) {
    auto tree_or = CutTree::LoadSnapshotState(&r);
    if (!tree_or.ok()) return tree_or.status();
    trees.push_back(
        std::make_shared<const CutTree>(std::move(tree_or).value()));
  }

  for (size_t i = 0; i < nodes_.size(); ++i) {
    uint32_t idx;
    MIND_ASSIGN_OR_RETURN(idx, r.U32("node.framing"));
    if (idx != i) {
      return r.FieldError("node.framing",
                          "expected node " + std::to_string(i) + ", found " +
                              std::to_string(idx));
    }
    MIND_RETURN_NOT_OK(nodes_[i]->LoadSnapshotState(&r, trees));
  }

  const uint64_t computed = r.checksum();
  uint64_t stored;
  MIND_ASSIGN_OR_RETURN(stored, r.U64("trailer.checksum"));
  if (stored != computed) {
    return r.FieldError("trailer.checksum",
                        "stream checksum " + Hex64(computed) +
                            " does not match stored " + Hex64(stored));
  }

  // The gate: a restored net must digest exactly as the saved one did. Any
  // state the format failed to carry — or carried wrong — is caught here,
  // before a single event runs.
  const uint64_t digest = StateDigest();
  if (digest != saved_digest) {
    return Status::Internal("snapshot: restored state digest " +
                            Hex64(digest) + " does not match saved digest " +
                            Hex64(saved_digest));
  }
  ClearStored();
  ClearVisits();
  return Status::OK();
}

}  // namespace mind
