// Micro-benchmarks (google-benchmark) of MIND's core data-path primitives:
// data-space coding, query covers, histogram maintenance, store operations
// and routing-table decisions. These quantify the per-tuple CPU cost behind
// the system benches.
#include <benchmark/benchmark.h>

#include <memory>

#include "mind/mind_net.h"
#include "overlay/overlay_node.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "space/cut_tree.h"
#include "space/histogram.h"
#include "space/mismatch.h"
#include "storage/sorted_runs_backend.h"
#include "storage/scan_kernels.h"
#include "storage/tuple_store.h"
#include "traffic/flow_generator.h"
#include "traffic/topology.h"
#include "util/bitcode.h"
#include "util/rng.h"

namespace mind {
namespace {

Schema Schema3() {
  return Schema({{"dst", 0, 0xFFFFFFFFull}, {"ts", 0, 86400 * 14}, {"v", 0, 1 << 20}});
}

std::vector<Point> RandomPoints(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pts;
  pts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    pts.push_back({rng.Uniform(0x100000000ull), rng.Uniform(86400 * 14),
                   rng.Uniform(1 << 20)});
  }
  return pts;
}

CutTree BalancedTree(int depth) {
  Schema s = Schema3();
  Histogram h(s, 16);
  for (const auto& p : RandomPoints(20000, 9)) h.Add(p);
  return std::move(CutTree::Balanced(s, h, depth)).value();
}

void BM_BitCodeCommonPrefix(benchmark::State& state) {
  Rng rng(1);
  BitCode a = BitCode::FromBits(rng.Next(), 64);
  BitCode b = BitCode::FromBits(rng.Next(), 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.CommonPrefixLen(b));
  }
}
BENCHMARK(BM_BitCodeCommonPrefix);

void BM_CodeForPointEven(benchmark::State& state) {
  CutTree t = CutTree::Even(Schema3());
  auto pts = RandomPoints(1024, 2);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.CodeForPoint(pts[i++ & 1023], 32));
  }
}
BENCHMARK(BM_CodeForPointEven);

void BM_CodeForPointBalanced(benchmark::State& state) {
  CutTree t = BalancedTree(static_cast<int>(state.range(0)));
  auto pts = RandomPoints(1024, 3);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.CodeForPoint(pts[i++ & 1023], 32));
  }
}
BENCHMARK(BM_CodeForPointBalanced)->Arg(4)->Arg(8)->Arg(12);

void BM_QueryCover(benchmark::State& state) {
  CutTree t = BalancedTree(8);
  Rng rng(4);
  Rect q({{0, 0x7FFFFFFF}, {1000, 1300}, {0, 1 << 20}});
  for (auto _ : state) {
    auto cover = t.Cover(q, static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(cover);
  }
}
BENCHMARK(BM_QueryCover)->Arg(6)->Arg(10);

void BM_HistogramAdd(benchmark::State& state) {
  Histogram h(Schema3(), 16);
  auto pts = RandomPoints(1024, 5);
  size_t i = 0;
  for (auto _ : state) {
    h.Add(pts[i++ & 1023]);
  }
}
BENCHMARK(BM_HistogramAdd);

void BM_BalancedCutConstruction(benchmark::State& state) {
  Schema s = Schema3();
  Histogram h(s, 16);
  for (const auto& p : RandomPoints(20000, 6)) h.Add(p);
  for (auto _ : state) {
    auto t = CutTree::Balanced(s, h, static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_BalancedCutConstruction)->Arg(6)->Arg(10);

void BM_TupleStoreInsert(benchmark::State& state) {
  auto cuts = std::make_shared<CutTree>(CutTree::Even(Schema3()));
  TupleStore store(cuts, /*code_len=*/32);
  auto pts = RandomPoints(4096, 7);
  size_t i = 0;
  for (auto _ : state) {
    Tuple t;
    t.point = pts[i++ & 4095];
    t.seq = i;
    store.Insert(std::move(t));
  }
}
BENCHMARK(BM_TupleStoreInsert);

void BM_TupleStoreQuery(benchmark::State& state) {
  auto cuts = std::make_shared<CutTree>(CutTree::Even(Schema3()));
  TupleStore store(cuts, /*code_len=*/32);
  for (const auto& p : RandomPoints(static_cast<size_t>(state.range(0)), 8)) {
    Tuple t;
    t.point = p;
    store.Insert(std::move(t));
  }
  Rect q({{0, 0x0FFFFFFF}, {0, 86400}, {0, 1 << 20}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Count(q));
  }
}
BENCHMARK(BM_TupleStoreQuery)->ArgName("rows")->Arg(10000)->Arg(100000);

// ------------------------------------------------------- scan kernels
//
// The cache-conscious primitives under the store layout, benchmarked at the
// kernel layer with the same instantiation the sorted runs use.

scan::KeyColumn SortedKeys(size_t n, uint64_t seed) {
  Rng rng(seed);
  scan::KeyColumn keys;
  keys.reserve(n);
  uint64_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    k += 1 + rng.Uniform(64);
    keys.push_back(k);
  }
  return keys;
}

// Branch-free cover probe (binary search with midpoint prefetch): the inner
// loop of every range-scan bound and RoutingTable cover lookup.
void BM_CoverProbe(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  scan::KeyColumn keys = SortedKeys(n, 21);
  const uint64_t span = keys.back() + 64;
  Rng rng(22);
  std::vector<uint64_t> probes(4096);
  for (auto& p : probes) p = rng.Uniform(span);
  size_t i = 0;
  for (auto _ : state) {
    uint64_t probe = probes[i++ & 4095];
    size_t pos = scan::LowerBound(keys.data(), keys.size(), probe);
    benchmark::DoNotOptimize(pos);
  }
}
BENCHMARK(BM_CoverProbe)->ArgName("keys")->Arg(1 << 12)->Arg(1 << 20);

// Random points in a dims-stride column, and the box the query below uses:
// the first dimension's lower 1/4 of the domain (all others full), so ~25%
// of the rows in any key range match.
scan::PointColumn RandomPointColumn(size_t n, size_t dims, uint64_t seed) {
  Rng rng(seed);
  scan::PointColumn points(n * dims);
  for (auto& v : points) v = rng.Uniform(1 << 20);
  return points;
}
scan::Box QuarterBox(size_t dims) {
  scan::Box box(2 * dims);
  for (size_t d = 0; d < dims; ++d) box[2 * d + 1] = (1 << 20) - 1;
  box[1] = (1 << 18) - 1;
  return box;
}

// Two-bound range scan over a sorted run: the sorted_runs_backend shape
// (branchless bounds on the key column, point-column filter sweep, matched
// rows read from the meta column beside the points).
void BM_ScanRangeSorted(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  constexpr size_t kDims = 3;
  scan::KeyColumn keys = SortedKeys(n, 23);
  scan::PointColumn points = RandomPointColumn(n, kDims, 26);
  const scan::Box box = QuarterBox(kDims);
  std::vector<RowMeta> meta(n);
  for (size_t i = 0; i < n; ++i) meta[i] = RowMeta{i * 2 + 1, 0, kNoExtra};
  const uint64_t span = keys.back();
  Rng rng(24);
  uint64_t sink = 0;
  for (auto _ : state) {
    uint64_t lo = rng.Uniform(span);
    uint64_t hi = lo + span / 64;  // ~1.5% of the keys
    auto [b, e] = scan::RangeBounds(keys.data(), keys.size(), lo, hi);
    scan::FilterPoints(points.data(), kDims, b, e, box.data(),
                       [&](size_t i) { sink += meta[i].seq; });
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_ScanRangeSorted)->ArgName("rows")->Arg(100000)->Arg(1000000);

// One out-of-order insert, then one query, on a store of ~6k rows: the shape
// of one churn48 node's store, where every query follows a fresh insert.
// The store is rebuilt (untimed) every 2048 iterations to hold its size.
void BM_TupleStoreChurn(benchmark::State& state) {
  const Schema schema({{"dst", 0, 0xFFFFFFFFull}, {"ts", 0, 86400},
                       {"v", 0, 1 << 20}});
  auto cuts = std::make_shared<CutTree>(CutTree::Even(schema));
  Rng rng(28);
  auto random_tuple = [&rng](uint64_t seq) {
    Tuple t;
    t.point = {rng.Uniform(0x100000000ull), rng.Uniform(86400),
               rng.Uniform(1 << 20)};
    t.extra = {seq};
    t.seq = seq;
    return t;
  };
  constexpr uint64_t kPreload = 6000;
  constexpr uint64_t kRefresh = 2048;
  std::unique_ptr<TupleStore> store;
  uint64_t seq = 0;
  std::vector<Tuple> out;
  for (auto _ : state) {
    if (seq % kRefresh == 0) {
      state.PauseTiming();
      store = std::make_unique<TupleStore>(cuts, /*code_len=*/32);
      for (uint64_t i = 0; i < kPreload; ++i) store->Insert(random_tuple(i));
      state.ResumeTiming();
    }
    store->Insert(random_tuple(kPreload + seq++));
    const Value t0 = rng.Uniform(86400 - 3600);
    out.clear();
    store->QueryInto(Rect({{0, 0x0FFFFFFF}, {t0, t0 + 3600}, {0, 1 << 20}}),
                     &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_TupleStoreChurn);

// ------------------------------------------------------------ event queue
//
// The per-event engine cost. The capture is sized like the insert-commit
// lambda in MindNode::OnInsertArrived (~48 bytes), which is what the hot
// path actually schedules.

struct EventPayload {
  uint64_t a, b, c;
  uint32_t d, e;
};  // 32 bytes; + captured pointer = 40-byte closure

void BM_EventQueueScheduleFire(benchmark::State& state) {
  EventQueue q;
  uint64_t sink = 0;
  EventPayload p{1, 2, 3, 4, 5};
  SimTime t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      q.ScheduleAt(++t, [&sink, p] { sink += p.a + p.e; });
    }
    q.Run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueScheduleFire);

// Timer churn: most timers (heartbeats, retransmits) are cancelled before
// they fire, so Cancel and dead-entry disposal are on the hot path too.
void BM_EventQueueCancelChurn(benchmark::State& state) {
  EventQueue q;
  uint64_t sink = 0;
  EventPayload p{1, 2, 3, 4, 5};
  std::vector<EventId> ids(64);
  SimTime t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      ids[i] = q.ScheduleAt(t + 1000 + i, [&sink, p] { sink += p.a; });
    }
    for (int i = 0; i < 48; ++i) q.Cancel(ids[i]);  // 75% never fire
    q.Run();
    t = q.now();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueCancelChurn);

// ------------------------------------------------------------- send path
//
// Raw Network::Send cost with no MIND routing on top: link-state lookup,
// latency + jitter computation, delivery scheduling, dispatch. The rotating
// destination stride touches every directed (from, to) pair over time, so
// the per-link state table itself (dense per-host rows) is the structure
// under test.

struct SinkHost : Host {
  uint64_t delivered = 0;
  void HandleMessage(NodeId, const MessagePtr&) override { ++delivered; }
};

struct PingMsg : Message {
  const char* TypeName() const override { return "bench.ping"; }
};

void BM_NetworkSendDrain(benchmark::State& state) {
  SimulatorOptions sopts;
  sopts.seed = 0xbe7c;
  Simulator sim(sopts);
  constexpr int kHosts = 64;
  std::vector<std::unique_ptr<SinkHost>> hosts;
  hosts.reserve(kHosts);
  for (int i = 0; i < kHosts; ++i) {
    hosts.push_back(std::make_unique<SinkHost>());
    sim.network().AddHost(hosts.back().get(),
                          GeoPoint{double(i % 8) * 5.0, double(i / 8) * 5.0});
  }
  auto msg = std::make_shared<PingMsg>();
  int stride = 1;
  for (auto _ : state) {
    for (int i = 0; i < kHosts; ++i) {
      sim.network().Send(i, (i + stride) % kHosts, msg);
    }
    stride = stride % (kHosts - 1) + 1;
    sim.Run();  // drain all deliveries
  }
  uint64_t delivered = 0;
  for (const auto& h : hosts) delivered += h->delivered;
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations() * kHosts);
}
BENCHMARK(BM_NetworkSendDrain);

// ------------------------------------------------------------ insert path
//
// End-to-end per-tuple cost of insert_record on a small overlay: routing
// hops, network model, DAC wait, commit and replication — wall-clock per
// committed tuple, everything in virtual time.

std::unique_ptr<MindNet> MicroNet(size_t n, uint64_t seed) {
  MindNetOptions opts;
  opts.sim.seed = seed;
  opts.overlay.heartbeat_interval = 0;  // no periodic traffic in the loop
  auto net = std::make_unique<MindNet>(n, opts);
  if (!net->Build().ok()) std::abort();
  IndexDef def;
  def.name = "micro";
  def.schema = Schema3();
  def.time_attr = 1;
  Status st = net->CreateIndexEverywhere(
      def, std::make_shared<CutTree>(CutTree::Even(def.schema)), 1, 0);
  if (!st.ok()) std::abort();
  net->sim().RunFor(FromSeconds(5));
  return net;
}

void BM_InsertPathSingle(benchmark::State& state) {
  auto net = MicroNet(32, 0x1c0b);
  auto pts = RandomPoints(4096, 12);
  uint64_t seq = 0;
  size_t i = 0;
  for (auto _ : state) {
    for (int k = 0; k < 16; ++k) {
      Tuple t;
      t.point = pts[i & 4095];
      t.seq = ++seq;
      (void)net->node(i++ & 31).Insert("micro", t);
    }
    net->sim().RunFor(FromSeconds(2));
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_InsertPathSingle);

// Same tuple stream as BM_InsertPathSingle, but shipped as one 16-tuple
// train per iteration (InsertBatch): routing, DAC commits and replication
// amortize across the batch.
void BM_InsertPathBatch(benchmark::State& state) {
  auto net = MicroNet(32, 0x1c0b);
  auto pts = RandomPoints(4096, 12);
  uint64_t seq = 0;
  size_t i = 0;
  for (auto _ : state) {
    std::vector<Tuple> batch;
    batch.reserve(16);
    for (int k = 0; k < 16; ++k) {
      Tuple t;
      t.point = pts[i++ & 4095];
      t.seq = ++seq;
      batch.push_back(std::move(t));
    }
    (void)net->node(i & 31).InsertBatch("micro", std::move(batch));
    net->sim().RunFor(FromSeconds(2));
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_InsertPathBatch);

// ------------------------------------------------------------ peer table

// Per-node routing-state growth curve (the skip-web comparison axis from the
// overlay survey): the hypercube keeps ~max_peers_per_level * log2(fleet)
// peers per node, so the x-axis is fleet size and the curve should be
// logarithmic. Timing covers a build + lookup cycle on the sorted
// small-vector PeerTable; the counters report its resident bytes next to the
// former unordered_map representation (libstdc++ node model: one heap node +
// two pointers per entry plus the bucket array) for the same peer set.
void BM_PeerTableGrowth(benchmark::State& state) {
  const int fleet = static_cast<int>(state.range(0));
  int levels = 0;
  while ((1 << levels) < fleet) ++levels;
  const int peers = 2 * levels;  // max_peers_per_level default is 2
  Rng rng(31);
  std::vector<std::pair<NodeId, BitCode>> entries;
  entries.reserve(peers);
  for (int i = 0; i < peers; ++i) {
    entries.push_back({static_cast<NodeId>(rng.Uniform(fleet)),
                       BitCode::FromBits(rng.Next(), levels)});
  }
  for (auto _ : state) {
    PeerTable t;
    for (const auto& [id, code] : entries) t[id] = code;
    for (const auto& [id, code] : entries) {
      benchmark::DoNotOptimize(t.find(id));
    }
  }
  PeerTable t;
  std::unordered_map<NodeId, BitCode> m;
  for (const auto& [id, code] : entries) {
    t[id] = code;
    m[id] = code;
  }
  state.counters["peers"] = static_cast<double>(t.size());
  state.counters["table_bytes"] = static_cast<double>(t.MemoryFootprint());
  state.counters["umap_bytes"] = static_cast<double>(
      sizeof(m) + m.bucket_count() * sizeof(void*) +
      m.size() * (sizeof(std::pair<const NodeId, BitCode>) + 2 * sizeof(void*)));
}
BENCHMARK(BM_PeerTableGrowth)
    ->ArgNames({"fleet"})
    ->Arg(1 << 10)
    ->Arg(1 << 12)
    ->Arg(1 << 14)
    ->Arg(1 << 17);

void BM_Mismatch(benchmark::State& state) {
  Schema s = Schema3();
  Histogram a(s, 8), b(s, 8);
  for (const auto& p : RandomPoints(20000, 10)) a.Add(p);
  for (const auto& p : RandomPoints(20000, 11)) b.Add(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MismatchFraction(a, b));
  }
}
BENCHMARK(BM_Mismatch);

// ------------------------------------------------------------------ traffic

// Prefix-popularity draw at the backbone universe size (34 routers x 8
// prefixes): the generator's hottest call, ~8.7 per flow.
void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler zipf(272, 0.9);
  Rng rng(17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(&rng));
  }
}
BENCHMARK(BM_ZipfSample);

// One 30 s window at 11:00 of the trace perfbench's backbone_live replays
// (fig21's seed 0x21f1 at 400 peak flows/router/s); items/s counts emitted
// records.
void BM_FlowGeneratorWindow(benchmark::State& state) {
  FlowGeneratorOptions opts;
  opts.peak_flows_per_router_sec = 400;
  opts.seed = 0x21f1;
  FlowGenerator gen(Topology::AbileneGeant(), opts);
  size_t records = 0;
  for (auto _ : state) {
    gen.Generate(0, 39600.0, 39630.0,
                 [&records](const FlowRecord&) { ++records; });
  }
  state.SetItemsProcessed(static_cast<int64_t>(records));
}
BENCHMARK(BM_FlowGeneratorWindow)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mind

BENCHMARK_MAIN();
