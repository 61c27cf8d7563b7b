// Figure 18 (scale extrapolation, no paper counterpart): a 1024-node
// synthetic deployment driven with a mixed insert/batch/query workload.
// The paper stops at 102 nodes (Figures 14-15); this bench checks that the
// simulator itself stays fast enough to host 10x that, and reports the
// engine-level numbers that matter at this scale: wall-clock event
// throughput, insert/query latency distributions and the routing-cache hit
// rate on the hot forwarding path.
//
// Duty cycle: MIND_BENCH_DUTY=<percent> (or argv[1]) scales the driven
// sim-time window down for CI smoke runs, e.g. MIND_BENCH_DUTY=10 drives
// ~1/10th of the default workload. Results export to
// BENCH_fig18_scale1k.json regardless of duty.
#include <chrono>
#include <cstdio>
#include <string>

#include "bench/common.h"

using namespace mind;
using namespace mind::bench;

namespace {

Schema ScaleSchema() {
  return Schema({{"dst", 0, 0xFFFFFFFFull}, {"ts", 0, 86400 * 14}, {"v", 0, 1 << 20}});
}

}  // namespace

int main(int argc, char** argv) {
  const size_t kNodes = 1024;
  const int duty = DutyPercent(argc, argv);
  // Default: 120 s of driven sim time; CI smoke runs at a few percent.
  const double drive_sec = 120.0 * duty / 100.0;

  DeploymentOptions dopts;
  dopts.seed = 0x18181818;
  dopts.heartbeat_interval = 0;  // focus the event budget on the data path
  auto net = MakeFlatDeployment(kNodes, dopts);

  IndexDef def;
  def.name = "scale";
  def.schema = ScaleSchema();
  def.time_attr = 1;
  Status st = net->CreateIndexEverywhere(
      def, std::make_shared<CutTree>(CutTree::Even(def.schema)), 1, 0);
  if (!st.ok()) {
    std::fprintf(stderr, "create index failed: %s\n", st.ToString().c_str());
    return 1;
  }
  net->sim().RunFor(FromSeconds(10));  // let the overlay settle

  std::printf("=== Figure 18: 1024-node scale run (duty %d%%, %.0f s driven) ===\n\n",
              duty, drive_sec);

  // Mixed workload, all scheduled up front in sim time:
  //  - singles: 256 origins insert one tuple per second (~256 inserts/s)
  //  - batches: 32 origins ship a 16-tuple train every 4 s (~128 tuples/s)
  //  - queries: 16 random monitoring queries per second across the overlay
  Rng rng(0x18f1);
  auto pts = [&] {
    std::vector<Point> v;
    v.reserve(1 << 14);
    for (size_t i = 0; i < (1u << 14); ++i) {
      v.push_back({rng.Uniform(0x100000000ull), rng.Uniform(86400 * 14),
                   rng.Uniform(1 << 20)});
    }
    return v;
  }();
  uint64_t seq = 0;
  size_t pt = 0;
  size_t queries_issued = 0, queries_done = 0, queries_complete = 0;
  for (double t = 0; t < drive_sec; t += 1.0) {
    for (size_t n = 0; n < kNodes; n += 4) {
      Tuple tup;
      tup.point = pts[pt++ % pts.size()];
      tup.origin = static_cast<int>(n);
      tup.seq = ++seq;
      net->sim().events().Schedule(FromSeconds(t), [&net, n, tup] {
        (void)net->node(n).Insert("scale", tup);
      });
    }
    if (static_cast<long>(t) % 4 == 0) {
      for (size_t n = 1; n < kNodes; n += 32) {
        std::vector<Tuple> batch;
        batch.reserve(16);
        for (int k = 0; k < 16; ++k) {
          Tuple tup;
          tup.point = pts[pt++ % pts.size()];
          tup.origin = static_cast<int>(n);
          tup.seq = ++seq;
          batch.push_back(std::move(tup));
        }
        net->sim().events().Schedule(
            FromSeconds(t), [&net, n, batch]() mutable {
              (void)net->node(n).InsertBatch("scale", std::move(batch));
            });
      }
    }
    for (int q = 0; q < 16; ++q) {
      size_t from = rng.Uniform(kNodes);
      Rect rect = RandomMonitoringQuery(&rng, def, 86400);
      net->sim().events().Schedule(FromSeconds(t), [&net, &queries_issued,
                                                    &queries_done,
                                                    &queries_complete, from,
                                                    rect] {
        ++queries_issued;
        (void)net->node(from).Query("scale", rect,
                                    [&](const QueryResult& r) {
                                      ++queries_done;
                                      if (r.complete) ++queries_complete;
                                    });
      });
    }
  }

  auto& sm = net->sim().metrics();
  const uint64_t events_before = sm.counter("sim.events.processed").value();
  const auto wall_start = std::chrono::steady_clock::now();
  net->sim().RunFor(FromSeconds(drive_sec + 60));  // workload + settle
  const double wall_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  const uint64_t events =
      sm.counter("sim.events.processed").value() - events_before;

  std::printf("engine: %llu events in %.2f s wall = %.0f events/s\n\n",
              static_cast<unsigned long long>(events), wall_sec,
              wall_sec > 0 ? events / wall_sec : 0);
  PrintLatencyRowHist("insert latency",
                      sm.histogram("mind.insert.latency_ms"));
  PrintLatencyRowHist("query latency", sm.histogram("mind.query.latency_ms"));
  std::printf("queries: issued=%zu answered=%zu complete=%zu\n",
              queries_issued, queries_done, queries_complete);
  std::printf("tuples stored (primary): %zu\n", net->stored().size());

  // Bench-level results ride in the sim's own registry so the export carries
  // the full engine snapshot (overlay.*, mind.*, sim.*) alongside them.
  sm.gauge("bench.fig18.events_per_sec_wall")
      .Set(wall_sec > 0 ? events / wall_sec : 0);
  sm.gauge("bench.fig18.wall_seconds").Set(wall_sec);
  sm.gauge("bench.fig18.queries_complete").Set(static_cast<double>(queries_complete));

  telemetry::RunMeta meta;
  meta.bench = "fig18_scale1k";
  meta.seed = dopts.seed;
  meta.topology = "flat_synthetic";
  meta.nodes = static_cast<int>(kNodes);
  meta.extra["duty_percent"] = std::to_string(duty);
  meta.extra["drive_seconds"] = std::to_string(drive_sec);
  ExportBench(sm, meta);
  return 0;
}
