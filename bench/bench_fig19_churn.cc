// "Figure 19" (churn extrapolation, no paper counterpart): mixed
// insert/query workloads where writes and reads interleave tightly — the
// worst case for the per-node tuple stores, whose lazily-sorted rows must be
// restored to key order on every insert->query transition.
//
// Two sections, both wall-clock measured:
//  * store churn: one large TupleStore driven with a bulk-ingest phase and
//    then interleaved single inserts and rectangle queries (the headline
//    `store_churn_ops_per_sec`); this is the isolated per-node query path,
//    no network. It prints the matches and the store digest, and exports
//    the bulk-ingest phase as `ingest_rows_per_sec`.
//  * deployment churn: a flat MindNet preloaded through InsertBatch trains,
//    then driven with interleaved singles and monitoring queries
//    (`net_queries_per_sec_wall`), the end-to-end view.
//
// Duty cycle: MIND_BENCH_DUTY=<percent> (or argv[1]) follows the fig18
// 1k-node convention and scales the whole workload (store size, preload,
// driven window) down for CI smoke runs. Before/after comparisons must use
// the same duty. Results export to BENCH_fig19_churn.json regardless.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/common.h"

using namespace mind;
using namespace mind::bench;

namespace {

Schema ChurnSchema() {
  return Schema({{"dst", 0, 0xFFFFFFFFull}, {"ts", 0, 86400}, {"v", 0, 1 << 20}});
}

int DutyPercent(int argc, char** argv) {
  int duty = 100;
  if (const char* env = std::getenv("MIND_BENCH_DUTY")) duty = std::atoi(env);
  if (argc > 1) duty = std::atoi(argv[1]);
  if (duty < 1) duty = 1;
  if (duty > 100) duty = 100;
  return duty;
}

Point RandomPoint(Rng* rng) {
  return {rng->Uniform(0x100000000ull), rng->Uniform(86401), rng->Uniform(1 << 20)};
}

// A monitoring query in the paper's style against ChurnSchema: uniform
// random ranges on dst and v, a 5-minute window at a random position of the
// day on ts.
Rect ChurnQuery(Rng* rng) {
  Value a = rng->Uniform(0x100000000ull), b = rng->Uniform(0x100000000ull);
  Value t_end = rng->UniformRange(300, 86400);
  Value c = rng->Uniform(1 << 20), d = rng->Uniform(1 << 20);
  return Rect({{std::min(a, b), std::max(a, b)},
               {t_end - 300, t_end},
               {std::min(c, d), std::max(c, d)}});
}

double Secs(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// The store-churn section: bulk-ingest kStoreRows rows (timed), then
// kChurnRounds tight insert->query alternations (timed — the transition that
// defeats a lazily-sorted flat row vector: every insert invalidates the
// order, every following query pays the re-sort). Matches and the store
// digest are returned for the report.
struct StoreChurnOutcome {
  double ingest_wall = 0;
  double churn_wall = 0;
  size_t churn_matches = 0;
  uint64_t digest = 0;
};

StoreChurnOutcome RunStoreChurn(size_t store_rows, size_t churn_rounds,
                                int queries_per_round) {
  Schema schema = ChurnSchema();
  auto cuts = std::make_shared<CutTree>(CutTree::Even(schema));
  TupleStore store(cuts, /*code_len=*/32);
  Rng rng(0x19191919);
  StoreChurnOutcome out;

  const auto ingest_t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < store_rows; ++i) {
    Tuple t;
    t.point = RandomPoint(&rng);
    t.origin = static_cast<int>(i % 64);
    t.seq = i;
    store.Insert(std::move(t));
  }
  out.ingest_wall = Secs(ingest_t0);
  (void)store.Query(ChurnQuery(&rng));  // settle the initial sort

  const auto churn_t0 = std::chrono::steady_clock::now();
  uint64_t seq = store_rows;
  for (size_t round = 0; round < churn_rounds; ++round) {
    Tuple t;
    t.point = RandomPoint(&rng);
    t.origin = static_cast<int>(round % 64);
    t.seq = ++seq;
    store.Insert(std::move(t));
    for (int q = 0; q < queries_per_round; ++q) {
      out.churn_matches += store.Query(ChurnQuery(&rng)).size();
    }
  }
  out.churn_wall = Secs(churn_t0);
  Fnv64 d;
  store.DigestInto(&d);
  out.digest = d.value();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const int duty = DutyPercent(argc, argv);

  // ---------------------------------------------------------- store churn
  // One store at the size a busy node reaches late in a day.
  const size_t kStoreRows = std::max<size_t>(5000, 200000 * duty / 100);
  const size_t kChurnRounds = 256;
  const int kQueriesPerRound = 4;
  const size_t churn_ops = kChurnRounds * (1 + kQueriesPerRound);

  const StoreChurnOutcome churn =
      RunStoreChurn(kStoreRows, kChurnRounds, kQueriesPerRound);
  const double store_wall = churn.churn_wall;
  const double store_ops_per_sec = store_wall > 0 ? churn_ops / store_wall : 0;
  const double ingest_rows_per_sec =
      churn.ingest_wall > 0 ? kStoreRows / churn.ingest_wall : 0;

  std::printf("=== Figure 19: mixed insert/query churn (duty %d%%) ===\n\n", duty);
  std::printf("store churn: %zu rows, %zu ops (%zu inserts + %zu queries, %zu matches)\n",
              kStoreRows + kChurnRounds, churn_ops, kChurnRounds,
              kChurnRounds * kQueriesPerRound, churn.churn_matches);
  std::printf(
      "store: ingest %.3f s (%.0f rows/s), churn %.3f s (%.0f ops/s), "
      "digest %016llx\n\n",
      churn.ingest_wall, ingest_rows_per_sec, store_wall, store_ops_per_sec,
      static_cast<unsigned long long>(churn.digest));

  // ------------------------------------------------------ deployment churn
  // A flat deployment preloaded to fig19-scale stores, then driven with the
  // same tight insert/query interleave through the full distributed path
  // (splitting, DAC queueing, replica scans, reply assembly).
  const size_t kNodes = 48;
  const size_t kPreloadPerNode = std::max<size_t>(500, 6000 * duty / 100);
  const double drive_sec = std::max(5.0, 60.0 * duty / 100.0);

  Schema schema = ChurnSchema();
  Rng rng(0x19190000);
  DeploymentOptions dopts;
  dopts.seed = 0x19f19f;
  dopts.heartbeat_interval = 0;  // focus the event budget on the data path
  auto net = MakeFlatDeployment(kNodes, dopts);

  IndexDef def;
  def.name = "churn";
  def.schema = schema;
  def.time_attr = 1;
  Status st = net->CreateIndexEverywhere(
      def, std::make_shared<CutTree>(CutTree::Even(def.schema)), 1, 0);
  if (!st.ok()) {
    std::fprintf(stderr, "create index failed: %s\n", st.ToString().c_str());
    return 1;
  }
  net->sim().RunFor(FromSeconds(10));  // let the overlay settle

  // Preload through batch trains: every node ships 64-tuple batches on a
  // 0.5 s cadence until its share is in.
  uint64_t net_seq = 0;
  const size_t kBatch = 64;
  for (size_t n = 0; n < kNodes; ++n) {
    for (size_t done = 0; done < kPreloadPerNode; done += kBatch) {
      size_t count = std::min(kBatch, kPreloadPerNode - done);
      std::vector<Tuple> batch;
      batch.reserve(count);
      for (size_t k = 0; k < count; ++k) {
        Tuple t;
        t.point = RandomPoint(&rng);
        t.origin = static_cast<int>(n);
        t.seq = ++net_seq;
        batch.push_back(std::move(t));
      }
      net->sim().events().Schedule(
          FromSeconds(0.5 * static_cast<double>(done / kBatch)),
          [&net, n, batch]() mutable {
            (void)net->node(n).InsertBatch("churn", std::move(batch));
          });
    }
  }
  double preload_window = 0.5 * static_cast<double>(kPreloadPerNode / kBatch + 2);
  net->sim().RunFor(FromSeconds(preload_window + 30));

  // Drive: per sim second, every node inserts one tuple and 48 random
  // monitoring queries are issued from random origins.
  size_t queries_issued = 0, queries_done = 0, queries_complete = 0;
  for (double t = 0; t < drive_sec; t += 1.0) {
    for (size_t n = 0; n < kNodes; ++n) {
      Tuple tup;
      tup.point = RandomPoint(&rng);
      tup.origin = static_cast<int>(n);
      tup.seq = ++net_seq;
      net->sim().events().Schedule(FromSeconds(t + 0.001 * static_cast<double>(n)),
                                   [&net, n, tup] {
                                     (void)net->node(n).Insert("churn", tup);
                                   });
    }
    for (size_t q = 0; q < kNodes; ++q) {
      size_t from = rng.Uniform(kNodes);
      Rect rect = ChurnQuery(&rng);
      net->sim().events().Schedule(
          FromSeconds(t + 0.01 * static_cast<double>(q)),
          [&net, &queries_issued, &queries_done, &queries_complete, from, rect] {
            ++queries_issued;
            (void)net->node(from).Query("churn", rect,
                                        [&](const QueryResult& r) {
                                          ++queries_done;
                                          if (r.complete) ++queries_complete;
                                        });
          });
    }
  }

  auto& sm = net->sim().metrics();
  const uint64_t events_before = sm.counter("sim.events.processed").value();
  const auto net_t0 = std::chrono::steady_clock::now();
  net->sim().RunFor(FromSeconds(drive_sec + 30));  // workload + settle
  const double net_wall = Secs(net_t0);
  const uint64_t events =
      sm.counter("sim.events.processed").value() - events_before;
  const double net_qps = net_wall > 0 ? static_cast<double>(queries_done) / net_wall : 0;

  std::printf("deployment churn: %zu nodes, %zu preloaded tuples, %.0f s driven\n",
              kNodes, kNodes * kPreloadPerNode, drive_sec);
  std::printf("engine: %llu events in %.2f s wall = %.0f events/s\n",
              static_cast<unsigned long long>(events), net_wall,
              net_wall > 0 ? events / net_wall : 0);
  std::printf("queries: issued=%zu answered=%zu complete=%zu -> %.0f queries/s wall\n\n",
              queries_issued, queries_done, queries_complete, net_qps);
  PrintLatencyRowHist("query latency", sm.histogram("mind.query.latency_ms"));
  PrintLatencyRowHist("insert latency", sm.histogram("mind.insert.latency_ms"));

  // Bench-level results ride in the sim's own registry so the export carries
  // the full engine snapshot (storage.*, mind.*, sim.*) alongside them.
  sm.gauge("bench.fig19.store_churn_ops_per_sec").Set(store_ops_per_sec);
  sm.gauge("bench.fig19.store_churn_wall_seconds").Set(store_wall);
  sm.gauge("bench.fig19.store_rows").Set(static_cast<double>(kStoreRows));
  sm.gauge("bench.fig19.ingest_rows_per_sec").Set(ingest_rows_per_sec);
  sm.gauge("bench.fig19.ingest_wall_seconds").Set(churn.ingest_wall);
  sm.gauge("bench.fig19.net_wall_seconds").Set(net_wall);
  sm.gauge("bench.fig19.net_events_per_sec_wall")
      .Set(net_wall > 0 ? events / net_wall : 0);
  sm.gauge("bench.fig19.net_queries_per_sec_wall").Set(net_qps);
  sm.gauge("bench.fig19.queries_complete")
      .Set(static_cast<double>(queries_complete));

  telemetry::RunMeta meta;
  meta.bench = "fig19_churn";
  meta.seed = dopts.seed;
  meta.topology = "flat_synthetic";
  meta.nodes = static_cast<int>(kNodes);
  meta.extra["duty_percent"] = std::to_string(duty);
  meta.extra["drive_seconds"] = std::to_string(drive_sec);
  meta.extra["preload_per_node"] = std::to_string(kPreloadPerNode);
  meta.extra["store_rows"] = std::to_string(kStoreRows);
  ExportBench(sm, meta);
  return 0;
}
