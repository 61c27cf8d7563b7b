// Tests for the live front-end (src/frontend): trace sources, the Batcher's
// budget/back-pressure state machine, the streaming ingest pipeline, and the
// admission-controlled query service.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "frontend/frontend.h"
#include "mind/mind_net.h"
#include "traffic/topology.h"
#include "traffic/trace_io.h"
#include "util/digest.h"
#include "util/rng.h"

namespace mind {
namespace frontend {
namespace {

// ------------------------------------------------------------ trace sources

FlowRecord MakeFlow(double time_sec, int router, uint32_t src_ip,
                    uint32_t dst_ip, uint64_t bytes, uint32_t packets = 40) {
  FlowRecord f;
  f.src_ip = src_ip;
  f.dst_ip = dst_ip;
  f.src_port = 1234;
  f.dst_port = 80;
  f.bytes = bytes;
  f.packets = packets;
  f.time_sec = time_sec;
  f.router = router;
  return f;
}

TEST(TraceSourceTest, VectorYieldsInOrderThenEnds) {
  std::vector<FlowRecord> flows = {MakeFlow(1.0, 0, 1, 2, 100),
                                   MakeFlow(2.0, 1, 3, 4, 200)};
  VectorTraceSource src(flows);
  FlowRecord f;
  auto more = src.Next(&f);
  ASSERT_TRUE(more.ok());
  ASSERT_TRUE(more.value());
  EXPECT_EQ(f.time_sec, 1.0);
  more = src.Next(&f);
  ASSERT_TRUE(more.ok());
  ASSERT_TRUE(more.value());
  EXPECT_EQ(f.time_sec, 2.0);
  more = src.Next(&f);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(more.value());
  // Stays exhausted.
  more = src.Next(&f);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(more.value());
}

TEST(TraceSourceTest, BinaryRoundTripsAndErrorsAreFinal) {
  std::vector<FlowRecord> flows = {MakeFlow(1.5, 0, 10, 20, 100),
                                   MakeFlow(2.5, 1, 30, 40, 200)};
  std::ostringstream out;
  ASSERT_TRUE(WriteFlowsBinary(out, flows).ok());

  {
    std::istringstream in(out.str());
    BinaryTraceSource src(&in);
    FlowRecord f;
    for (const auto& want : flows) {
      auto more = src.Next(&f);
      ASSERT_TRUE(more.ok()) << more.status().ToString();
      ASSERT_TRUE(more.value());
      EXPECT_EQ(f.time_sec, want.time_sec);
      EXPECT_EQ(f.router, want.router);
    }
    auto more = src.Next(&f);
    ASSERT_TRUE(more.ok());
    EXPECT_FALSE(more.value());
  }

  {
    // Truncate mid-record: Next surfaces the reader's precise error once,
    // then the source stays (cleanly) exhausted.
    std::string bytes = out.str();
    bytes.resize(bytes.size() - 10);
    std::istringstream in(bytes);
    BinaryTraceSource src(&in);
    FlowRecord f;
    auto more = src.Next(&f);
    ASSERT_TRUE(more.ok());
    ASSERT_TRUE(more.value());
    more = src.Next(&f);
    ASSERT_FALSE(more.ok());
    EXPECT_NE(more.status().message().find("truncated at record 1 of 2"),
              std::string::npos)
        << more.status().ToString();
    more = src.Next(&f);
    ASSERT_TRUE(more.ok());
    EXPECT_FALSE(more.value());
  }
}

TEST(TraceSourceTest, GeneratorIsGloballyTimeOrdered) {
  Topology topo = Topology::Abilene();
  FlowGeneratorOptions gopts;
  gopts.seed = 11;
  FlowGenerator gen(topo, gopts);
  GeneratorTraceSource src(&gen, /*day=*/0, 39600.0, 39690.0);
  FlowRecord f;
  double prev = 0;
  size_t n = 0;
  while (true) {
    auto more = src.Next(&f);
    ASSERT_TRUE(more.ok());
    if (!more.value()) break;
    EXPECT_GE(f.time_sec, prev) << "record " << n << " out of order";
    EXPECT_GE(f.time_sec, 39600.0);
    EXPECT_LT(f.time_sec, 39690.0);
    prev = f.time_sec;
    ++n;
  }
  EXPECT_GT(n, 100u) << "generator produced implausibly few records";
}

// A bad range is reported through Next() as InvalidArgument, once, after
// which the source stays exhausted -- as BinaryTraceSource reports corrupt
// input. Unchecked, a window_sec <= 0 never advances Refill(), and a range
// past midnight trips FlowGenerator::Generate's precondition mid-stream.
TEST(TraceSourceTest, GeneratorRejectsBadRanges) {
  Topology topo = Topology::Abilene();
  FlowGeneratorOptions gopts;
  gopts.seed = 11;
  FlowGenerator gen(topo, gopts);
  struct Case {
    int day;
    double t0, t1, window;
    const char* what;
  };
  const Case kCases[] = {
      {0, 39600.0, 39690.0, 0.0, "window_sec"},
      {0, 39600.0, 39690.0, -30.0, "window_sec"},
      {0, 39600.0, 39690.0, std::nan(""), "window_sec"},
      {0, 86340.0, 86460.0, 30.0, "within one day"},
      {0, -30.0, 60.0, 30.0, "within one day"},
      {-1, 39600.0, 39690.0, 30.0, "within one day"},
  };
  for (const Case& c : kCases) {
    GeneratorTraceSource src(&gen, c.day, c.t0, c.t1, c.window);
    FlowRecord f;
    auto more = src.Next(&f);
    ASSERT_FALSE(more.ok()) << c.what << " " << c.t0 << " " << c.t1;
    EXPECT_TRUE(more.status().IsInvalidArgument());
    EXPECT_NE(more.status().message().find(c.what), std::string::npos)
        << more.status().ToString();
    more = src.Next(&f);
    ASSERT_TRUE(more.ok());
    EXPECT_FALSE(more.value());
  }
}

// Valid ranges keep their stream: the source yields exactly the generator's
// windows, each stable-sorted by time, up to and including midnight.
TEST(TraceSourceTest, GeneratorStreamMatchesWindows) {
  Topology topo = Topology::Abilene();
  FlowGeneratorOptions gopts;
  gopts.seed = 11;
  FlowGenerator gen(topo, gopts);
  std::vector<FlowRecord> want;
  for (double t = 86340.0; t < 86400.0; t += 25.0) {
    auto w = gen.GenerateVec(0, t, std::min(t + 25.0, 86400.0));
    std::stable_sort(w.begin(), w.end(),
                     [](const FlowRecord& a, const FlowRecord& b) {
                       return a.time_sec < b.time_sec;
                     });
    want.insert(want.end(), w.begin(), w.end());
  }
  ASSERT_GT(want.size(), 10u);
  GeneratorTraceSource src(&gen, 0, 86340.0, 86400.0, 25.0);
  FlowRecord f;
  for (const FlowRecord& w : want) {
    auto more = src.Next(&f);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    ASSERT_TRUE(more.value());
    EXPECT_EQ(f.time_sec, w.time_sec);
    EXPECT_EQ(f.src_ip, w.src_ip);
    EXPECT_EQ(f.bytes, w.bytes);
    EXPECT_EQ(f.router, w.router);
  }
  auto more = src.Next(&f);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(more.value());
}

// ----------------------------------------------------------------- Batcher

Tuple MakeT(uint64_t seq) {
  Tuple t;
  t.point = {seq, 100 + seq, 7};  // 3 dims + 1 extra = 56 wire bytes
  t.extra = {42};
  t.origin = 0;
  t.seq = seq;
  return t;
}

TEST(BatcherTest, ClosesOnTupleBudget) {
  BatcherOptions opts;
  opts.batch_max_tuples = 4;
  opts.batch_max_bytes = 1 << 20;
  Batcher b(opts);
  for (uint64_t i = 0; i < 3; ++i) {
    Tuple t = MakeT(i);
    EXPECT_EQ(b.Push(&t, 0), Batcher::Offer::kAccepted);
    EXPECT_FALSE(b.HasReady(0));  // under budget, deadline not reached
  }
  Tuple t = MakeT(3);
  EXPECT_EQ(b.Push(&t, 0), Batcher::Offer::kAccepted);
  ASSERT_TRUE(b.HasReady(0));
  auto batch = b.TakeReady(0);
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_TRUE(b.empty());
}

TEST(BatcherTest, ClosesOnByteBudgetHighWater) {
  BatcherOptions opts;
  opts.batch_max_tuples = 1000;
  opts.batch_max_bytes = 100;  // each tuple is 56 bytes
  Batcher b(opts);
  Tuple t0 = MakeT(0);
  EXPECT_EQ(b.Push(&t0, 0), Batcher::Offer::kAccepted);
  EXPECT_FALSE(b.HasReady(0));
  Tuple t1 = MakeT(1);
  EXPECT_EQ(b.Push(&t1, 0), Batcher::Offer::kAccepted);
  // 112 bytes >= 100: high-water close, the second tuple rides along.
  ASSERT_TRUE(b.HasReady(0));
  EXPECT_EQ(b.TakeReady(0).size(), 2u);
}

TEST(BatcherTest, FlushesOnDeadline) {
  BatcherOptions opts;
  opts.batch_max_tuples = 1000;
  opts.flush_deadline = FromMillis(100);
  Batcher b(opts);
  EXPECT_FALSE(b.NextDeadline().has_value());
  Tuple t = MakeT(0);
  EXPECT_EQ(b.Push(&t, FromMillis(7)), Batcher::Offer::kAccepted);
  ASSERT_TRUE(b.NextDeadline().has_value());
  EXPECT_EQ(*b.NextDeadline(), FromMillis(107));
  EXPECT_FALSE(b.HasReady(FromMillis(106)));
  EXPECT_TRUE(b.TakeReady(FromMillis(106)).empty());
  ASSERT_TRUE(b.HasReady(FromMillis(107)));
  EXPECT_EQ(b.TakeReady(FromMillis(107)).size(), 1u);
  EXPECT_FALSE(b.NextDeadline().has_value());
}

TEST(BatcherTest, DropNewestAtQueueBound) {
  BatcherOptions opts;
  opts.batch_max_tuples = 2;
  opts.queue_max_tuples = 3;
  opts.policy = OverflowPolicy::kDropNewest;
  Batcher b(opts);
  for (uint64_t i = 0; i < 3; ++i) {
    Tuple t = MakeT(i);
    EXPECT_EQ(b.Push(&t, 0), Batcher::Offer::kAccepted);
  }
  EXPECT_EQ(b.queued_tuples(), 3u);  // one closed batch of 2 + one open
  Tuple t = MakeT(3);
  EXPECT_EQ(b.Push(&t, 0), Batcher::Offer::kDropped);
  EXPECT_EQ(b.queued_tuples(), 3u);
  // Taking the closed batch frees budget; the next offer is accepted.
  EXPECT_EQ(b.TakeReady(0).size(), 2u);
  Tuple t2 = MakeT(4);
  EXPECT_EQ(b.Push(&t2, 0), Batcher::Offer::kAccepted);
}

TEST(BatcherTest, DeferLeavesTupleWithCaller) {
  BatcherOptions opts;
  opts.batch_max_tuples = 2;
  opts.queue_max_tuples = 2;
  opts.policy = OverflowPolicy::kDefer;
  Batcher b(opts);
  for (uint64_t i = 0; i < 2; ++i) {
    Tuple t = MakeT(i);
    EXPECT_EQ(b.Push(&t, 0), Batcher::Offer::kAccepted);
  }
  Tuple held = MakeT(9);
  EXPECT_EQ(b.Push(&held, 0), Batcher::Offer::kDeferred);
  // kDefer is lossless: the refused tuple stays intact with the caller.
  EXPECT_EQ(held.seq, 9u);
  ASSERT_EQ(held.point.size(), 3u);
  EXPECT_EQ(held.point[0], 9u);
  EXPECT_EQ(b.TakeReady(0).size(), 2u);
  EXPECT_EQ(b.Push(&held, 0), Batcher::Offer::kAccepted);
}

// --------------------------------------------------------- ingest pipeline

/// Deployment sized to Abilene (11 monitors) with the paper indices.
std::unique_ptr<MindNet> MakeNet(const Topology& topo, uint64_t seed) {
  MindNetOptions opts;
  opts.sim.seed = seed;
  auto net = std::make_unique<MindNet>(topo.size(), opts);
  EXPECT_TRUE(net->Build().ok());
  for (const IndexDef& def : {MakeIndex1({}), MakeIndex2({}), MakeIndex3({})}) {
    auto cuts = std::make_shared<CutTree>(CutTree::Even(def.schema));
    EXPECT_TRUE(net->CreateIndexEverywhere(def, cuts, 1, 0).ok());
  }
  return net;
}

/// Drives the sim until the pipeline reports done (bounded), plus settle.
void RunToDone(MindNet& net, IngestPipeline& pipe) {
  pipe.Start();
  for (int i = 0; i < 200 && !pipe.done(); ++i) {
    net.sim().RunFor(FromSeconds(5));
  }
  ASSERT_TRUE(pipe.done());
  net.sim().RunFor(FromSeconds(30));
}

Rect WholeDomainOf(const IndexDef& def) {
  std::vector<Interval> ivs;
  for (int d = 0; d < def.schema.dims(); ++d) {
    ivs.push_back({def.schema.attr(d).min, def.schema.attr(d).max});
  }
  return Rect(std::move(ivs));
}

size_t TotalPrimaryTuples(MindNet& net, const std::string& index) {
  size_t n = 0;
  for (size_t i = 0; i < net.size(); ++i) {
    n += net.node(i).PrimaryTupleCount(index);
  }
  return n;
}

/// Content-only digest of an index's stored state across the deployment
/// (excludes scheduler residue like MindNode::dac_busy_until_, which batch
/// pacing legitimately perturbs).
uint64_t ContentDigest(MindNet& net, const std::string& index) {
  Fnv64 d;
  for (size_t i = 0; i < net.size(); ++i) {
    const IndexVersions* v = net.node(i).PrimaryVersions(index);
    if (v != nullptr) v->DigestInto(&d);
  }
  return d.value();
}

/// One heavy aggregate per dst prefix: `pairs` prefix pairs, each with two
/// 50 KB flows in one 30 s window at `router` (passes the Index-2 octet
/// threshold, too few short flows for Index-1).
std::vector<FlowRecord> HeavyFlows(int pairs, int router) {
  std::vector<FlowRecord> flows;
  for (int p = 0; p < pairs; ++p) {
    const uint32_t dst = 0xc0000000u + static_cast<uint32_t>(p) * 0x10000u;
    flows.push_back(MakeFlow(39600.0 + 0.01 * p, router, 0x0a000001u, dst,
                             50'000));
    flows.push_back(MakeFlow(39600.0 + 0.01 * p + 0.005, router, 0x0a000001u,
                             dst, 50'000));
  }
  return flows;
}

TEST(IngestPipelineTest, DeliversBatchedTuplesToTheIndex) {
  Topology topo = Topology::Abilene();
  auto net = MakeNet(topo, 0xfe01);
  VectorTraceSource src(HeavyFlows(/*pairs=*/6, /*router=*/0));
  IngestOptions opts;
  opts.feed_index1 = false;
  opts.feed_index3 = false;
  opts.batcher.batch_max_tuples = 4;
  IngestPipeline pipe(net.get(), &src, opts);
  RunToDone(*net, pipe);

  EXPECT_EQ(pipe.records_in(), 12u);
  EXPECT_EQ(pipe.tuples_out(), 6u);  // one aggregate per prefix pair
  EXPECT_EQ(pipe.tuples_dropped(), 0u);
  EXPECT_GE(pipe.batches_sent(), 1u);
  EXPECT_EQ(pipe.queued_tuples(), 0u);
  EXPECT_EQ(TotalPrimaryTuples(*net, "index2_octets"), 6u);
  EXPECT_EQ(TotalPrimaryTuples(*net, "index1_fanout"), 0u);
  EXPECT_TRUE(net->ValidateInvariants(/*quiescent=*/true).ok());
}

TEST(IngestPipelineTest, BatchSizingKnobsAreContentTransparent) {
  // Same trace, radically different batching: what is stored (per-index
  // content digest) must be identical — batch sizing may only change *when*
  // inserts happen, never *what* ends up indexed.
  Topology topo = Topology::Abilene();
  uint64_t digests[2][3];
  const char* names[3] = {"index1_fanout", "index2_octets", "index3_flowsize"};
  for (int cfg = 0; cfg < 2; ++cfg) {
    auto net = MakeNet(topo, 0xfe02);
    FlowGeneratorOptions gopts;
    gopts.seed = 303;
    gopts.peak_flows_per_router_sec = 40;
    FlowGenerator gen(topo, gopts);
    GeneratorTraceSource src(&gen, /*day=*/0, 39600.0, 39660.0);
    IngestOptions opts;
    opts.batcher.policy = OverflowPolicy::kDefer;  // lossless by construction
    if (cfg == 0) {
      opts.batcher.batch_max_tuples = 2;
      opts.batcher.flush_deadline = FromMillis(50);
      opts.pump_interval = FromMillis(50);
    } else {
      opts.batcher.batch_max_tuples = 64;
      opts.batcher.batch_max_bytes = 1 << 16;
      opts.batcher.flush_deadline = FromSeconds(2);
      opts.pump_interval = FromMillis(500);
    }
    IngestPipeline pipe(net.get(), &src, opts);
    RunToDone(*net, pipe);
    ASSERT_GT(pipe.tuples_out(), 0u);
    ASSERT_EQ(pipe.tuples_dropped(), 0u);
    for (int i = 0; i < 3; ++i) {
      digests[cfg][i] = ContentDigest(*net, names[i]);
    }
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(digests[0][i], digests[1][i]) << names[i];
  }
}

TEST(IngestPipelineTest, DeferBackpressureIsLossless) {
  Topology topo = Topology::Abilene();
  auto net = MakeNet(topo, 0xfe03);
  // 40 tuples burst into one lane bounded at 8: the lane must defer, and
  // every deferred tuple must still land eventually.
  VectorTraceSource src(HeavyFlows(/*pairs=*/40, /*router=*/0));
  IngestOptions opts;
  opts.feed_index1 = false;
  opts.feed_index3 = false;
  opts.batcher.batch_max_tuples = 4;
  opts.batcher.queue_max_tuples = 8;
  opts.batcher.policy = OverflowPolicy::kDefer;
  IngestPipeline pipe(net.get(), &src, opts);
  RunToDone(*net, pipe);

  EXPECT_GT(pipe.defer_rounds(), 0u) << "back-pressure never engaged";
  EXPECT_EQ(pipe.tuples_dropped(), 0u);
  EXPECT_EQ(pipe.tuples_out(), 40u);
  EXPECT_EQ(TotalPrimaryTuples(*net, "index2_octets"), 40u);
}

TEST(IngestPipelineTest, DeferHoldoverDrainsOnceThePipelineIsDone) {
  Topology topo = Topology::Abilene();
  auto net = MakeNet(topo, 0xfe05);
  // The same burst as above, stepped finely enough to catch tuples parked
  // in the holdover buffer mid-flight; by the time the pipeline reports done
  // and the net settles, neither the lane nor the holdover may keep any.
  VectorTraceSource src(HeavyFlows(/*pairs=*/40, /*router=*/0));
  IngestOptions opts;
  opts.feed_index1 = false;
  opts.feed_index3 = false;
  opts.batcher.batch_max_tuples = 4;
  opts.batcher.queue_max_tuples = 8;
  opts.batcher.policy = OverflowPolicy::kDefer;
  IngestPipeline pipe(net.get(), &src, opts);
  pipe.Start();
  bool held_over = false;
  for (int i = 0; i < 8000 && !pipe.done(); ++i) {
    net->sim().RunFor(FromMillis(125));
    held_over = held_over || pipe.holdover_tuples() > 0;
  }
  ASSERT_TRUE(pipe.done());
  net->sim().RunFor(FromSeconds(30));

  EXPECT_TRUE(held_over)
      << "back-pressure never parked a tuple in the holdover buffer";
  EXPECT_EQ(pipe.queued_tuples(), 0u);
  EXPECT_EQ(pipe.holdover_tuples(), 0u);
  EXPECT_EQ(pipe.tuples_dropped(), 0u);
  EXPECT_EQ(TotalPrimaryTuples(*net, "index2_octets"), 40u);
}

TEST(IngestPipelineTest, DropNewestCountsWhatItSheds) {
  Topology topo = Topology::Abilene();
  auto net = MakeNet(topo, 0xfe04);
  VectorTraceSource src(HeavyFlows(/*pairs=*/40, /*router=*/0));
  IngestOptions opts;
  opts.feed_index1 = false;
  opts.feed_index3 = false;
  opts.batcher.batch_max_tuples = 4;
  opts.batcher.queue_max_tuples = 8;
  opts.batcher.policy = OverflowPolicy::kDropNewest;
  IngestPipeline pipe(net.get(), &src, opts);
  RunToDone(*net, pipe);

  EXPECT_GT(pipe.tuples_dropped(), 0u);
  EXPECT_EQ(pipe.tuples_out(), 40u);
  EXPECT_EQ(TotalPrimaryTuples(*net, "index2_octets"),
            pipe.tuples_out() - pipe.tuples_dropped());
}

// ------------------------------------------------------------ query service

class QueryServiceTest : public ::testing::Test {
 protected:
  void Start(QueryServiceOptions qopts, uint64_t seed = 0xfe10) {
    MindNetOptions opts;
    opts.sim.seed = seed;
    net_ = std::make_unique<MindNet>(8, opts);
    ASSERT_TRUE(net_->Build().ok());
    def_ = MakeIndex1({});
    auto cuts = std::make_shared<CutTree>(CutTree::Even(def_.schema));
    ASSERT_TRUE(net_->CreateIndexEverywhere(def_, cuts, 1, 0).ok());
    service_ = std::make_unique<QueryService>(net_.get(), qopts);
    client_ = service_->RegisterClient(0);
  }

  /// Inserts `n` Index-1 tuples spread over dst prefixes and monitors.
  void Load(int n) {
    for (int i = 0; i < n; ++i) {
      AggregateRecord rec;
      rec.src_prefix = IpPrefix(0x0a000000u, 16);
      rec.dst_prefix =
          IpPrefix(0xc0000000u + static_cast<uint32_t>(i) * 0x10000u, 16);
      rec.window_start = 39600 + 30 * (static_cast<uint64_t>(i) % 4);
      rec.fanout = 20 + static_cast<uint32_t>(i);
      rec.router = i % 8;
      auto t = ToIndex1Tuple(rec, static_cast<uint64_t>(i));
      ASSERT_TRUE(t.has_value());
      ASSERT_TRUE(net_->node(static_cast<size_t>(i % 8))
                      .Insert("index1_fanout", std::move(*t))
                      .ok());
      net_->sim().RunFor(FromMillis(20));
    }
    net_->sim().RunFor(FromSeconds(30));
  }

  Rect WholeDomain() const {
    std::vector<Interval> ivs;
    for (int d = 0; d < def_.schema.dims(); ++d) {
      ivs.push_back({def_.schema.attr(d).min, def_.schema.attr(d).max});
    }
    return Rect(std::move(ivs));
  }

  std::unique_ptr<MindNet> net_;
  IndexDef def_;
  std::unique_ptr<QueryService> service_;
  ClientId client_ = 0;
};

TEST_F(QueryServiceTest, PerClientQuotaGates) {
  QueryServiceOptions qopts;
  qopts.per_client_quota = 2;
  qopts.max_inflight = 8;
  Start(qopts);
  Load(8);
  auto sink = [](const Delivery&) {};
  auto r1 = service_->Submit(client_, "index1_fanout", WholeDomain(), sink);
  auto r2 = service_->Submit(client_, "index1_fanout", WholeDomain(), sink);
  auto r3 = service_->Submit(client_, "index1_fanout", WholeDomain(), sink);
  ASSERT_TRUE(r1.ok() && r2.ok() && r3.ok());
  EXPECT_EQ(r1.value().admission, QueryService::Admission::kDispatched);
  EXPECT_EQ(r2.value().admission, QueryService::Admission::kDispatched);
  EXPECT_EQ(r3.value().admission, QueryService::Admission::kRejectedQuota);
  EXPECT_EQ(r3.value().ticket, 0u);
  // Another client is unaffected by this client's quota.
  ClientId other = service_->RegisterClient(3);
  auto r4 = service_->Submit(other, "index1_fanout", WholeDomain(), sink);
  ASSERT_TRUE(r4.ok());
  EXPECT_TRUE(QueryService::Admitted(r4.value().admission));
  // Unknown client ids are an error, not a rejection.
  EXPECT_FALSE(service_->Submit(999, "index1_fanout", WholeDomain(), sink).ok());
  net_->sim().RunFor(FromSeconds(60));
  EXPECT_EQ(service_->completed_total(), 3u);
  // Quota released on completion: the client can submit again.
  auto r5 = service_->Submit(client_, "index1_fanout", WholeDomain(), sink);
  ASSERT_TRUE(r5.ok());
  EXPECT_TRUE(QueryService::Admitted(r5.value().admission));
}

TEST_F(QueryServiceTest, OverloadRejectsAndQueueDispatchesFifo) {
  QueryServiceOptions qopts;
  qopts.max_inflight = 1;
  qopts.max_queue = 1;
  qopts.per_client_quota = 8;
  Start(qopts);
  Load(8);
  std::vector<uint64_t> finished;  // tickets in completion order
  auto sink = [&finished](const Delivery& d) {
    if (d.done) finished.push_back(d.ticket);
  };
  auto r1 = service_->Submit(client_, "index1_fanout", WholeDomain(), sink);
  auto r2 = service_->Submit(client_, "index1_fanout", WholeDomain(), sink);
  auto r3 = service_->Submit(client_, "index1_fanout", WholeDomain(), sink);
  ASSERT_TRUE(r1.ok() && r2.ok() && r3.ok());
  EXPECT_EQ(r1.value().admission, QueryService::Admission::kDispatched);
  EXPECT_EQ(r2.value().admission, QueryService::Admission::kQueued);
  EXPECT_EQ(r3.value().admission, QueryService::Admission::kRejectedOverload);
  EXPECT_EQ(service_->inflight(), 1u);
  EXPECT_EQ(service_->queued(), 1u);
  EXPECT_EQ(service_->rejected_total(), 1u);

  net_->sim().RunFor(FromSeconds(120));
  EXPECT_EQ(service_->completed_total(), 2u);
  EXPECT_EQ(service_->inflight(), 0u);
  EXPECT_EQ(service_->queued(), 0u);
  ASSERT_EQ(finished.size(), 2u);
  EXPECT_EQ(finished[0], r1.value().ticket);  // FIFO: first in, first done
  EXPECT_EQ(finished[1], r2.value().ticket);
}

TEST_F(QueryServiceTest, CostGateUsesObservedSelectivity) {
  QueryServiceOptions qopts;
  qopts.max_cost_tuples = 5;
  Start(qopts);
  Load(8);
  auto sink = [](const Delivery&) {};
  // Cold histogram: estimates are 0, everything is admitted.
  auto cold = service_->Submit(client_, "index1_fanout", WholeDomain(), sink);
  ASSERT_TRUE(cold.ok());
  EXPECT_TRUE(QueryService::Admitted(cold.value().admission));
  // Feed 100 observed tuples; a whole-domain scan now estimates ~100.
  for (int i = 0; i < 100; ++i) {
    service_->ObserveInsert(
        "index1_fanout",
        {0xc0000000u + static_cast<uint64_t>(i) * 0x10000u,
         39600 + static_cast<uint64_t>(i % 4) * 30, 20});
  }
  auto scan = service_->Submit(client_, "index1_fanout", WholeDomain(), sink);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan.value().admission, QueryService::Admission::kRejectedCost);
  // A narrow rectangle in an empty corner still clears the gate.
  Rect narrow({{0, 100}, {0, 100}, {0, 5}});
  auto cheap = service_->Submit(client_, "index1_fanout", narrow, sink);
  ASSERT_TRUE(cheap.ok());
  EXPECT_TRUE(QueryService::Admitted(cheap.value().admission));
  net_->sim().RunFor(FromSeconds(60));
}

// The core refuses a rectangle with an inverted interval; the service
// admits it and completes it as failed, with no tuples.
TEST_F(QueryServiceTest, InvertedIntervalCompletesFailed) {
  QueryServiceOptions qopts;
  Start(qopts);
  Load(8);
  std::optional<Delivery> final;
  auto sink = [&final](const Delivery& d) {
    if (d.done) final = d;
  };
  const Rect whole = WholeDomain();
  const Rect inverted({{0xc0100000u, 0xc0000000u}, whole.interval(1),
                       whole.interval(2)});
  auto r = service_->Submit(client_, "index1_fanout", inverted, sink);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(QueryService::Admitted(r.value().admission));
  net_->sim().RunFor(FromSeconds(60));
  ASSERT_TRUE(final.has_value());
  EXPECT_FALSE(final->complete);
  EXPECT_TRUE(final->tuples.empty());
  EXPECT_EQ(service_->completed_total(), 1u);
  EXPECT_EQ(service_->inflight(), 0u);
}

TEST_F(QueryServiceTest, DeadlineCancelDeliversIncomplete) {
  QueryServiceOptions qopts;
  Start(qopts);
  Load(16);
  std::optional<Delivery> final;
  auto sink = [&final](const Delivery& d) {
    if (d.done) final = d;
  };
  // 10 µs: no overlay hop completes that fast, so the service-side deadline
  // must fire, cancel through MindNode::CancelQuery, and deliver incomplete.
  auto r = service_->Submit(client_, "index1_fanout", WholeDomain(), sink,
                            /*deadline=*/10);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().admission, QueryService::Admission::kDispatched);
  net_->sim().RunFor(FromSeconds(60));
  ASSERT_TRUE(final.has_value());
  EXPECT_FALSE(final->complete);
  EXPECT_EQ(service_->deadline_cancels(), 1u);
  EXPECT_EQ(service_->completed_total(), 1u);  // finished, albeit incomplete
  // The core reclaimed the tracker state.
  for (size_t i = 0; i < net_->size(); ++i) {
    EXPECT_EQ(net_->node(i).pending_query_count(), 0u);
  }
}

TEST_F(QueryServiceTest, StandingQueryRefiresAndTracksEpochs) {
  QueryServiceOptions qopts;
  Start(qopts);
  Load(8);
  EXPECT_EQ(service_->IndexEpoch("index1_fanout"), 1u);
  std::vector<Delivery> finals;
  auto sink = [&finals](const Delivery& d) {
    if (d.done) finals.push_back(d);
  };
  auto sid = service_->AddStanding(client_, "index1_fanout", WholeDomain(),
                                   FromSeconds(5), sink);
  ASSERT_TRUE(sid.ok());
  net_->sim().RunFor(FromSeconds(12));  // fires at 0, 5, 10
  ASSERT_GE(finals.size(), 2u);
  for (const auto& d : finals) {
    EXPECT_EQ(d.standing_id, sid.value());
    EXPECT_TRUE(d.complete);
    EXPECT_EQ(d.epoch, 1u);
  }
  const size_t before = finals.size();

  // Install a new cut version: the epoch observer must pick it up and stamp
  // subsequent standing results with the new epoch.
  auto cuts = std::make_shared<CutTree>(CutTree::Even(def_.schema));
  ASSERT_TRUE(net_->InstallCutsEverywhere("index1_fanout", 2, cuts,
                                          net_->sim().now() + FromSeconds(1))
                  .ok());
  EXPECT_EQ(service_->IndexEpoch("index1_fanout"), 2u);
  net_->sim().RunFor(FromSeconds(10));
  ASSERT_GT(finals.size(), before);
  EXPECT_EQ(finals.back().epoch, 2u);

  // Removal stops re-execution.
  ASSERT_TRUE(service_->RemoveStanding(sid.value()).ok());
  const size_t after_remove = finals.size();
  net_->sim().RunFor(FromSeconds(20));
  EXPECT_EQ(finals.size(), after_remove);
  EXPECT_FALSE(service_->RemoveStanding(sid.value()).ok());
}

TEST_F(QueryServiceTest, ResultsStreamInChunks) {
  QueryServiceOptions qopts;
  qopts.delivery_chunk_tuples = 2;
  Start(qopts);
  Load(9);
  std::vector<Delivery> chunks;
  auto sink = [&chunks](const Delivery& d) { chunks.push_back(d); };
  auto r = service_->Submit(client_, "index1_fanout", WholeDomain(), sink);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(QueryService::Admitted(r.value().admission));
  net_->sim().RunFor(FromSeconds(120));
  ASSERT_EQ(chunks.size(), 5u);  // 9 tuples in chunks of 2
  size_t total = 0;
  for (size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].ticket, r.value().ticket);
    EXPECT_LE(chunks[i].tuples.size(), 2u);
    EXPECT_EQ(chunks[i].done, i + 1 == chunks.size());
    total += chunks[i].tuples.size();
  }
  EXPECT_EQ(total, 9u);
  EXPECT_TRUE(chunks.back().complete);
  EXPECT_GT(chunks.back().latency, 0u);
}

// ----------------------------------------------------------------- facade

TEST(FrontendTest, WiresIngestIntoTheCostModel) {
  Topology topo = Topology::Abilene();
  auto net = MakeNet(topo, 0xfe20);
  FlowGeneratorOptions gopts;
  gopts.seed = 505;
  gopts.peak_flows_per_router_sec = 40;
  FlowGenerator gen(topo, gopts);
  auto src = std::make_unique<GeneratorTraceSource>(&gen, /*day=*/0, 39600.0,
                                                    39660.0);
  FrontendOptions fopts;
  fopts.query.max_cost_tuples = 10;
  Frontend fe(net.get(), std::move(src), fopts);
  ClientId c = fe.queries().RegisterClient(2);
  fe.Start();
  for (int i = 0; i < 200 && !fe.ingest().done(); ++i) {
    net->sim().RunFor(FromSeconds(5));
  }
  ASSERT_TRUE(fe.ingest().done());
  ASSERT_GT(fe.ingest().tuples_out(), 10u);
  net->sim().RunFor(FromSeconds(30));

  // Ingest observed every emitted tuple, so a whole-domain scan of a fed
  // index now estimates far above the gate — rejected without a core query.
  // (Index 2 is the reliably fed one here: this trace's aggregates clear the
  // octet threshold often, while fanout >= 16 is rare at this traffic level.)
  ASSERT_GT(net->TotalPrimaryTuples("index2_octets"), 10u);
  const IndexDef def = MakeIndex2({});
  std::vector<Interval> ivs;
  for (int d = 0; d < def.schema.dims(); ++d) {
    ivs.push_back({def.schema.attr(d).min, def.schema.attr(d).max});
  }
  auto sink = [](const Delivery&) {};
  auto r = fe.queries().Submit(c, "index2_octets", Rect(std::move(ivs)), sink);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().admission, QueryService::Admission::kRejectedCost);
  // An index the trace never fed stays cold: admitted optimistically.
  auto cold = fe.queries().Submit(c, "index1_fanout", WholeDomainOf(MakeIndex1({})), sink);
  ASSERT_TRUE(cold.ok());
  EXPECT_TRUE(QueryService::Admitted(cold.value().admission));
  net->sim().RunFor(FromSeconds(60));
}

}  // namespace
}  // namespace frontend
}  // namespace mind
