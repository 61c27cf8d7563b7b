// MSN1 snapshot/restore (DESIGN.md §14).
//
// The contract under test: a net restored from a snapshot and run forward is
// bit-identical — StateDigest and observable results — to the net that never
// stopped. Serial and parallel, across thread and shard counts, with outage
// plans in force and heartbeat timers live. Plus the refusal paths:
// non-quiescent saves, stale nets, corrupted and truncated streams, each with
// a precise field-level error.
#include <cstdint>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "frontend/ingest_pipeline.h"
#include "frontend/trace_source.h"
#include "mind/mind_net.h"
#include "sim/simulator.h"
#include "traffic/indices.h"
#include "traffic/topology.h"
#include "util/digest.h"
#include "util/rng.h"

namespace mind {
namespace {

constexpr size_t kFleet = 12;

IndexDef SnapIndexDef() {
  IndexDef def;
  def.name = "snap_idx";
  def.schema = Schema({{"x", 0, 9999}, {"ts", 0, UINT64_MAX}, {"y", 0, 9999}});
  def.carried = {"payload"};
  def.time_attr = 1;
  return def;
}

Tuple SnapTuple(Rng* rng, uint64_t seq) {
  Tuple t;
  t.point = {rng->Uniform(10000), 1000 + seq, rng->Uniform(10000)};
  t.extra = {seq};
  t.origin = static_cast<int>(rng->Uniform(kFleet));
  t.seq = seq;
  return t;
}

/// `threads == 0` is the sequential engine; > 0 the sharded parallel engine.
MindNetOptions SnapOpts(int threads, int shards = 0) {
  MindNetOptions opts;
  opts.sim.seed = 0x5aa5;
  opts.sim.threads = threads;
  opts.sim.shards = shards;
  // Live heartbeat timers at save time: the one event class the snapshot
  // layer re-arms, so every round trip here exercises that path.
  opts.overlay.heartbeat_interval = FromSeconds(5);
  return opts;
}

void Phase1(MindNet& net) {
  ASSERT_TRUE(net.Build().ok());
  IndexDef def = SnapIndexDef();
  ASSERT_TRUE(net.CreateIndexEverywhere(
                     def, std::make_shared<CutTree>(CutTree::Even(def.schema)),
                     1, 0)
                  .ok());
  Rng rng(7);
  for (uint64_t i = 0; i < 60; ++i) {
    Tuple t = SnapTuple(&rng, i);
    size_t src = rng.Uniform(kFleet);
    ASSERT_TRUE(net.node(src).Insert("snap_idx", std::move(t)).ok());
    net.sim().RunFor(FromMillis(40));
  }
  net.sim().RunFor(FromSeconds(30));
}

/// Heartbeat messages are periodically in flight, so quiescence is a window,
/// not a permanent state: step until SaveSnapshot succeeds. The caller's
/// timeline continues from exactly the saved instant either way.
std::string SaveWhenQuiet(MindNet& net) {
  for (int i = 0; i < 200; ++i) {
    std::ostringstream out;
    Status st = net.SaveSnapshot(out);
    if (st.ok()) return out.str();
    net.sim().RunFor(FromMillis(100));
  }
  ADD_FAILURE() << "net never reached a quiescent window";
  return {};
}

struct Phase2Result {
  uint64_t digest = 0;
  size_t tuples = 0;
  std::vector<size_t> query_sizes;

  // An AssertionResult rather than a bool, so that a failing
  // EXPECT_TRUE(a == b) reports both arms, not only its streamed context.
  ::testing::AssertionResult operator==(const Phase2Result& o) const {
    if (digest == o.digest && tuples == o.tuples &&
        query_sizes == o.query_sizes) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << ::testing::PrintToString(*this) << " vs "
           << ::testing::PrintToString(o);
  }
};

void PrintTo(const Phase2Result& r, std::ostream* os) {
  *os << "{digest " << DigestToHex(r.digest) << ", " << r.tuples
      << " tuples, query_sizes " << ::testing::PrintToString(r.query_sizes)
      << "}";
}

/// The post-snapshot workload both arms run: more inserts, two range
/// queries, settle. Uses its own RNG so the straight-through and restored
/// timelines drive byte-identical inputs.
Phase2Result Phase2(MindNet& net) {
  Rng rng(13);
  for (uint64_t i = 100; i < 140; ++i) {
    Tuple t = SnapTuple(&rng, i);
    size_t src = rng.Uniform(kFleet);
    EXPECT_TRUE(net.node(src).Insert("snap_idx", std::move(t)).ok());
    net.sim().RunFor(FromMillis(40));
  }
  Phase2Result r;
  auto record = [&r](const QueryResult& qr) {
    EXPECT_TRUE(qr.complete);
    r.query_sizes.push_back(qr.tuples.size());
  };
  EXPECT_TRUE(net.node(2)
                  .Query("snap_idx",
                         Rect({{0, 4999}, {0, UINT64_MAX}, {0, 9999}}), record)
                  .ok());
  EXPECT_TRUE(net.node(7)
                  .Query("snap_idx",
                         Rect({{0, 9999}, {1050, 1120}, {2000, 8000}}), record)
                  .ok());
  net.sim().RunFor(FromSeconds(30));
  r.digest = net.StateDigest();
  r.tuples = net.TotalPrimaryTuples("snap_idx");
  EXPECT_EQ(r.query_sizes.size(), 2u);
  return r;
}

/// Straight-through arm: phase 1, snapshot (kept for the other arm), phase 2.
Phase2Result RunStraight(const MindNetOptions& opts, std::string* snapshot) {
  MindNet net(kFleet, opts);
  Phase1(net);
  *snapshot = SaveWhenQuiet(net);
  return Phase2(net);
}

/// Restored arm: fresh net, LoadSnapshot (digest-gated internally), phase 2.
Phase2Result RunRestored(const MindNetOptions& opts,
                         const std::string& snapshot) {
  MindNet net(kFleet, opts);
  std::istringstream in(snapshot);
  Status st = net.LoadSnapshot(in);
  EXPECT_TRUE(st.ok()) << st.message();
  return Phase2(net);
}

// ------------------------------------------------------------ round trips

TEST(SnapshotTest, RoundTripAcrossBackendsSerialAndParallel) {
  std::string snap;
  Phase2Result straight = RunStraight(SnapOpts(0), &snap);
  ASSERT_FALSE(snap.empty());
  // Same engine restore, and the cross-engine promise: the same snapshot
  // restores into the threads=4 engine with an identical digest.
  Phase2Result serial = RunRestored(SnapOpts(0), snap);
  Phase2Result parallel = RunRestored(SnapOpts(4), snap);
  EXPECT_TRUE(straight == serial);
  EXPECT_TRUE(straight == parallel);
}

TEST(SnapshotTest, DisciplineRestoreAcrossThreadAndShardCounts) {
  std::string snap;
  Phase2Result straight = RunStraight(SnapOpts(0), &snap);
  ASSERT_FALSE(snap.empty());
  for (int threads : {0, 1, 2, 4}) {
    Phase2Result restored = RunRestored(SnapOpts(threads), snap);
    EXPECT_TRUE(straight == restored) << "threads=" << threads;
  }
  // Ordering keys are engine-independent, so even a different shard count
  // restores bit-identically.
  Phase2Result resharded = RunRestored(SnapOpts(2, /*shards=*/5), snap);
  EXPECT_TRUE(straight == resharded);
}

TEST(SnapshotTest, SnapshotMidOutagePlanCarriesThePlan) {
  // Planned link flaps (the failure injector writes them into the network as
  // an immutable plan, no queue events). The snapshot is taken while part of
  // the plan is still in the future; both arms then run through it.
  MindNetOptions opts = SnapOpts(0);
  opts.sim.failures.link_flaps_per_pair_hour = 4.0;
  std::string snap;
  Phase2Result straight;
  {
    MindNet net(kFleet, opts);
    Phase1(net);
    net.sim().failures().Start(FromSeconds(600));  // plan beyond the snapshot
    ASSERT_GT(net.sim().failures().scheduled_flaps(), 0u);
    snap = SaveWhenQuiet(net);
    ASSERT_FALSE(snap.empty());
    straight = Phase2(net);
  }
  Phase2Result restored = RunRestored(opts, snap);
  EXPECT_TRUE(straight == restored);
}

// ------------------------------------------------------------ refusal paths

TEST(SnapshotTest, SaveRefusedWhileEventsAreInFlight) {
  MindNet net(kFleet, SnapOpts(0));
  Phase1(net);
  // An in-flight query holds a timeout event (and reply messages) no byte
  // stream can carry: the quiescence audit must name the pending events.
  ASSERT_TRUE(net.node(0)
                  .Query("snap_idx",
                         Rect({{0, 9999}, {0, UINT64_MAX}, {0, 9999}}),
                         [](const QueryResult&) {})
                  .ok());
  std::ostringstream out;
  Status st = net.SaveSnapshot(out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("pending event"), std::string::npos)
      << st.message();
}

TEST(SnapshotTest, RestoreRequiresFreshNet) {
  std::string snap;
  {
    MindNet net(kFleet, SnapOpts(0));
    Phase1(net);
    snap = SaveWhenQuiet(net);
  }
  MindNet used(kFleet, SnapOpts(0));
  ASSERT_TRUE(used.Build().ok());
  std::istringstream in(snap);
  Status st = used.LoadSnapshot(in);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("freshly constructed"), std::string::npos)
      << st.message();
}

TEST(SnapshotTest, MidIngestSnapshotRefusedUntilPipelineDrains) {
  // A frontend pipeline holding deferred tuples is driver-side state the
  // snapshot format deliberately excludes — so while the pipeline is
  // mid-flight (pump event pending, holdover buffer non-empty) SaveSnapshot
  // must refuse, and once the pipeline drains the same net must snapshot
  // and restore cleanly.
  Topology topo = Topology::Abilene();
  MindNetOptions opts;
  opts.sim.seed = 0xfe05;
  auto net = std::make_unique<MindNet>(topo.size(), opts);
  ASSERT_TRUE(net->Build().ok());
  for (const IndexDef& def : {MakeIndex2({})}) {
    auto cuts = std::make_shared<CutTree>(CutTree::Even(def.schema));
    ASSERT_TRUE(net->CreateIndexEverywhere(def, cuts, 1, 0).ok());
  }
  std::vector<FlowRecord> flows;
  for (int p = 0; p < 40; ++p) {
    const uint32_t dst = 0xc0000000u + static_cast<uint32_t>(p) * 0x10000u;
    for (double dt : {0.0, 0.005}) {
      FlowRecord f;
      f.src_ip = 0x0a000001u;
      f.dst_ip = dst;
      f.src_port = 1234;
      f.dst_port = 80;
      f.bytes = 50'000;
      f.packets = 40;
      f.time_sec = 39600.0 + 0.01 * p + dt;
      f.router = 0;
      flows.push_back(f);
    }
  }
  frontend::VectorTraceSource src(flows);
  frontend::IngestOptions iopts;
  iopts.feed_index1 = false;
  iopts.feed_index3 = false;
  iopts.batcher.batch_max_tuples = 4;
  iopts.batcher.queue_max_tuples = 8;
  iopts.batcher.policy = frontend::OverflowPolicy::kDefer;
  frontend::IngestPipeline pipe(net.get(), &src, iopts);
  pipe.Start();

  bool refused_with_holdover = false;
  for (int i = 0; i < 400 && !pipe.done(); ++i) {
    net->sim().RunFor(FromMillis(125));
    if (pipe.holdover_tuples() > 0 && !refused_with_holdover) {
      std::ostringstream out;
      Status st = net->SaveSnapshot(out);
      ASSERT_FALSE(st.ok()) << "snapshot accepted with "
                            << pipe.holdover_tuples()
                            << " held-over tuples and a pending pump";
      EXPECT_NE(st.message().find("pending event"), std::string::npos)
          << st.message();
      refused_with_holdover = true;
    }
  }
  EXPECT_TRUE(refused_with_holdover)
      << "back-pressure never parked a tuple in the holdover buffer";
  ASSERT_TRUE(pipe.done());
  net->sim().RunFor(FromSeconds(30));
  EXPECT_EQ(pipe.queued_tuples(), 0u);
  EXPECT_EQ(pipe.holdover_tuples(), 0u);

  std::ostringstream out;
  ASSERT_TRUE(net->SaveSnapshot(out).ok());
  MindNet fresh(topo.size(), opts);
  std::istringstream in(out.str());
  Status st = fresh.LoadSnapshot(in);  // digest-gated internally
  EXPECT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(fresh.TotalPrimaryTuples("index2_octets"),
            net->TotalPrimaryTuples("index2_octets"));
}

// ------------------------------------------------------ corrupted streams

class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MindNet net(kFleet, SnapOpts(0));
    Phase1(net);
    snap_ = SaveWhenQuiet(net);
    ASSERT_FALSE(snap_.empty());
  }

  Status Load(const std::string& bytes) {
    MindNet net(kFleet, SnapOpts(0));
    std::istringstream in(bytes);
    return net.LoadSnapshot(in);
  }

  std::string snap_;
};

TEST_F(SnapshotCorruptionTest, ValidStreamRestores) {
  EXPECT_TRUE(Load(snap_).ok());
}

TEST_F(SnapshotCorruptionTest, BadMagicNamesTheField) {
  std::string bad = snap_;
  bad[0] = 'X';
  Status st = Load(bad);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("header.magic"), std::string::npos)
      << st.message();
}

TEST_F(SnapshotCorruptionTest, UnsupportedVersionNamesTheField) {
  // 1, 2 and 3 are retired formats (1 carried an engine-mode flag and legacy
  // insertion sequence numbers, 2 an index layout byte and layout-selection
  // evidence per version-chain entry, 3 a dynamic link-outage table); 9 was
  // never written.
  for (char version : {1, 2, 3, 9}) {
    std::string bad = snap_;
    bad[4] = version;  // u16 version field, little-endian low byte
    Status st = Load(bad);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("header.version"), std::string::npos)
        << st.message();
    EXPECT_NE(st.message().find("unsupported snapshot version " +
                                std::to_string(version)),
              std::string::npos)
        << st.message();
  }
}

TEST_F(SnapshotCorruptionTest, WrongFleetSizeNamesTheCount) {
  MindNet small(kFleet - 2, SnapOpts(0));
  std::istringstream in(snap_);
  Status st = small.LoadSnapshot(in);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("header.node_count"), std::string::npos)
      << st.message();
}

TEST_F(SnapshotCorruptionTest, TruncationReportsFieldAndOffset) {
  Status st = Load(snap_.substr(0, snap_.size() / 2));
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("truncated"), std::string::npos) << st.message();
  EXPECT_NE(st.message().find("offset"), std::string::npos) << st.message();
}

TEST_F(SnapshotCorruptionTest, LateBitRotTripsTheTrailerChecksum) {
  // A flipped byte in the last node's RNG block parses fine (any u64 is a
  // valid RNG word) — the running checksum is what catches it.
  std::string bad = snap_;
  bad[bad.size() - 12] ^= 0x40;
  Status st = Load(bad);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("trailer.checksum"), std::string::npos)
      << st.message();
}

TEST_F(SnapshotCorruptionTest, MidStreamCorruptionNeverRestoresSilently) {
  // Sweep a byte flip across the stream: every position must either fail a
  // field validation, the trailer checksum, or the final digest gate —
  // never restore "successfully" with altered bytes.
  for (size_t pos = 8; pos + 8 < snap_.size(); pos += 97) {
    std::string bad = snap_;
    bad[pos] ^= 0x04;
    Status st = Load(bad);
    EXPECT_FALSE(st.ok()) << "byte flip at offset " << pos
                          << " restored silently";
  }
}

}  // namespace
}  // namespace mind
