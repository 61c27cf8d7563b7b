#include "mind/mind_net.h"

#include <algorithm>

#include "sim/parallel_engine.h"
#include "util/bitcode.h"
#include "util/digest.h"
#include "util/logging.h"

namespace mind {
namespace {

// Which measurement slot the calling context writes to: 0 outside parallel
// phases, 1 + shard id inside one.
size_t MeasureSlot() {
  int s = ParallelEngine::current_shard();
  return s < 0 ? 0 : static_cast<size_t>(s) + 1;
}

}  // namespace

MindNet::MindNet(size_t n, MindNetOptions options)
    : options_(std::move(options)) {
  MIND_CHECK_GT(n, 0u);
  MIND_CHECK(options_.positions.empty() || options_.positions.size() == n);
  sim_ = std::make_unique<Simulator>(options_.sim);
  const ParallelEngine* engine = sim_->parallel_engine();
  const size_t slots = engine == nullptr ? 1 : engine->shard_count() + 1;
  stored_slots_.resize(slots);
  visit_slots_.resize(slots);
  for (size_t i = 0; i < n; ++i) {
    OverlayOptions oo = options_.overlay;
    oo.seed = options_.sim.seed + 1000 + i;
    MindOptions mo = options_.mind;
    mo.seed = options_.sim.seed + 5000 + i;
    std::optional<GeoPoint> pos;
    if (!options_.positions.empty()) pos = options_.positions[i];
    nodes_.push_back(std::make_unique<MindNode>(sim_.get(), oo, mo, pos));
    MindNode* node = nodes_.back().get();
    node->set_on_stored([this](const MindNode::StoredInfo& info) {
      stored_slots_[MeasureSlot()].push_back(info);
    });
    node->set_on_query_visit([this](uint64_t query_id, NodeId id) {
      visit_slots_[MeasureSlot()][query_id].insert(id);
    });
  }
}

Status MindNet::Build(bool concurrent_joins) {
  nodes_[0]->BecomeFirst();
  for (size_t i = 1; i < nodes_.size(); ++i) {
    if (concurrent_joins) {
      nodes_[i]->Join(0);
    } else {
      MindNode* node = nodes_[i].get();
      // ScheduleOn lands the join on the node's own shard queue under the
      // parallel engine; with the sequential engine it is exactly
      // events().Schedule.
      sim_->ScheduleOn(node->overlay().id(),
                       sim_->now() + options_.join_stagger * i,
                       [node] { node->Join(0); });
    }
  }
  SimTime deadline = sim_->now() + options_.build_deadline;
  while (JoinedCount() < nodes_.size() && sim_->now() < deadline) {
    sim_->RunFor(FromSeconds(1));
  }
  if (JoinedCount() < nodes_.size()) {
    return Status::TimedOut("overlay build incomplete: " +
                            std::to_string(JoinedCount()) + "/" +
                            std::to_string(nodes_.size()));
  }
  return Status::OK();
}

Status MindNet::CreateIndexEverywhere(const IndexDef& def, CutTreeRef cuts,
                                      VersionId version, SimTime start) {
  MIND_RETURN_NOT_OK(nodes_[0]->CreateIndex(def, std::move(cuts), version, start));
  SimTime deadline = sim_->now() + FromSeconds(120);
  auto everywhere = [&] {
    for (const auto& node : nodes_) {
      if (node->overlay().alive() && node->overlay().joined() &&
          !node->HasIndex(def.name)) {
        return false;
      }
    }
    return true;
  };
  while (!everywhere() && sim_->now() < deadline) sim_->RunFor(FromSeconds(1));
  if (!everywhere()) return Status::TimedOut("index flood incomplete");
  return Status::OK();
}

Status MindNet::InstallCutsEverywhere(const std::string& name,
                                      VersionId version, CutTreeRef cuts,
                                      SimTime start) {
  MIND_RETURN_NOT_OK(nodes_[0]->InstallCuts(name, version, std::move(cuts), start));
  SimTime deadline = sim_->now() + FromSeconds(120);
  auto everywhere = [&] {
    for (const auto& node : nodes_) {
      if (!node->overlay().alive() || !node->overlay().joined()) continue;
      const IndexVersions* pv = node->PrimaryVersions(name);
      if (pv == nullptr || !pv->HasVersion(version)) return false;
    }
    return true;
  };
  while (!everywhere() && sim_->now() < deadline) sim_->RunFor(FromSeconds(1));
  if (!everywhere()) return Status::TimedOut("cuts flood incomplete");
  return Status::OK();
}

const std::vector<MindNode::StoredInfo>& MindNet::stored() const {
  if (stored_slots_.size() == 1) return stored_slots_[0];
  size_t total = 0;
  for (const auto& slot : stored_slots_) total += slot.size();
  // Buffers are append-only between Clear calls, so a matching size means the
  // cached merge is current (stored() is only legal between runs).
  if (stored_merged_.size() != total) {
    stored_merged_.clear();
    stored_merged_.reserve(total);
    for (const auto& slot : stored_slots_) {
      stored_merged_.insert(stored_merged_.end(), slot.begin(), slot.end());
    }
    // (committed_at, storer) is a deterministic order: a storer always lives
    // on the same shard (fixed shard count), and its commits are appended in
    // virtual-time order, so stable_sort resolves ties identically for every
    // thread count.
    std::stable_sort(stored_merged_.begin(), stored_merged_.end(),
                     [](const MindNode::StoredInfo& a,
                        const MindNode::StoredInfo& b) {
                       if (a.committed_at != b.committed_at) {
                         return a.committed_at < b.committed_at;
                       }
                       return a.storer < b.storer;
                     });
  }
  return stored_merged_;
}

void MindNet::ClearStored() {
  for (auto& slot : stored_slots_) slot.clear();
  stored_merged_.clear();
}

size_t MindNet::QueryVisitCount(uint64_t query_id) const {
  if (visit_slots_.size() == 1) {
    auto it = visit_slots_[0].find(query_id);
    return it == visit_slots_[0].end() ? 0 : it->second.size();
  }
  std::unordered_set<NodeId> merged;
  for (const auto& slot : visit_slots_) {
    auto it = slot.find(query_id);
    if (it != slot.end()) merged.insert(it->second.begin(), it->second.end());
  }
  return merged.size();
}

void MindNet::ClearVisits() {
  for (auto& slot : visit_slots_) slot.clear();
}

size_t MindNet::TotalPrimaryTuples(const std::string& index) const {
  size_t n = 0;
  for (const auto& node : nodes_) n += node->PrimaryTupleCount(index);
  return n;
}

std::vector<size_t> MindNet::PrimaryTupleDistribution(
    const std::string& index) const {
  std::vector<size_t> out;
  out.reserve(nodes_.size());
  for (const auto& node : nodes_) out.push_back(node->PrimaryTupleCount(index));
  return out;
}

size_t MindNet::JoinedCount() const {
  size_t n = 0;
  for (const auto& node : nodes_) {
    if (node->overlay().joined()) ++n;
  }
  return n;
}

bool MindNet::CodesFormCompleteCover() const {
  std::vector<BitCode> codes;
  for (const auto& node : nodes_) {
    if (!node->overlay().alive() || !node->overlay().joined()) continue;
    codes.push_back(node->overlay().code());
  }
  return CheckCompleteCover(codes).ok();
}

// ------------------------------------------------------------- correctness

Status MindNet::ValidateInvariants(bool quiescent) const {
  MIND_RETURN_NOT_OK(sim_->events().ValidateInvariants());
  if (const ParallelEngine* engine = sim_->parallel_engine()) {
    for (int s = 0; s < engine->shard_count(); ++s) {
      MIND_RETURN_NOT_OK(engine->shard_queue(s).ValidateInvariants());
    }
  }
  if (quiescent) {
    std::vector<const OverlayNode*> overlays;
    overlays.reserve(nodes_.size());
    for (const auto& node : nodes_) overlays.push_back(&node->overlay());
    MIND_RETURN_NOT_OK(ValidateOverlayInvariants(overlays));
  }
  for (const auto& node : nodes_) {
    MIND_RETURN_NOT_OK(node->ValidateInvariants());
  }
  return Status::OK();
}

uint64_t MindNet::StateDigest() const {
  Fnv64 d;
  d.Mix(static_cast<uint64_t>(nodes_.size()));
  // The pending-event set is digested by (time, band, ukey), so the value is
  // identical whether events live in one queue or S shard queues.
  sim_->DigestEventsKeyed(&d);
  for (const auto& node : nodes_) node->DigestInto(&d);
  return d.value();
}

void MindNet::EnablePeriodicValidation(SimTime interval) {
  if (ParallelEngine* engine = sim_->parallel_engine()) {
    // Shard queues cannot run fleet-wide validators mid-phase; piggyback on
    // the window barrier instead, where all shards are quiescent.
    engine->set_barrier_hook(
        [this] { MIND_CHECK_OK(ValidateInvariants(/*quiescent=*/false)); },
        interval);
    return;
  }
  sim_->events().set_validation_hook(
      [this] { MIND_CHECK_OK(ValidateInvariants(/*quiescent=*/false)); },
      interval);
}

}  // namespace mind
