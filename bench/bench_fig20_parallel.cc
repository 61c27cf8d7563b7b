// Figure 20 (engine scaling, no paper counterpart): the Figure 18 1024-node
// mixed workload executed by the sharded parallel engine at worker thread
// counts {1, 2, 4, 8}, against the sequential engine as the serial baseline
// (both run the network's one delivery discipline).
//
// Two claims are checked, not just reported:
//   identity -- every configuration must produce the SAME deployment: the
//     MindNet state digest, the stored-tuple count, the sim-time insert/query
//     latency distributions and the query completion counts are asserted
//     bit-identical across all thread counts (exit 1 on any mismatch).
//   speedup  -- wall-clock time of the driven window, per configuration;
//     the export carries events/s and speedup-vs-serial per thread count.
//
// Duty cycle: MIND_BENCH_DUTY=<percent> (or argv[1]) scales the driven
// sim-time window, as in fig18. MIND_BENCH_THREADS="0,2" overrides the
// thread-count list (0 = sequential engine); the TSan CI job
// uses that to keep its instrumented run small. Results export to
// BENCH_fig20_parallel.json.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"

using namespace mind;
using namespace mind::bench;

namespace {

Schema ScaleSchema() {
  return Schema({{"dst", 0, 0xFFFFFFFFull}, {"ts", 0, 86400 * 14}, {"v", 0, 1 << 20}});
}

// Default thread-count ladder, auto-dropping counts the hardware cannot
// actually run in parallel (more workers than cores measures oversubscription,
// not scaling). Dropped counts are reported in `skipped` and marked in the
// JSON export. An explicit MIND_BENCH_THREADS list is honored verbatim — the
// TSan job intentionally oversubscribes to shake out races.
std::vector<int> ThreadCounts(unsigned hw_cores, std::vector<int>* skipped) {
  const char* env = std::getenv("MIND_BENCH_THREADS");
  if (env != nullptr && *env != '\0') {
    std::vector<int> counts;
    std::string s(env);
    size_t pos = 0;
    while (pos < s.size()) {
      size_t comma = s.find(',', pos);
      if (comma == std::string::npos) comma = s.size();
      counts.push_back(std::atoi(s.substr(pos, comma - pos).c_str()));
      pos = comma + 1;
    }
    return counts;
  }
  std::vector<int> counts;
  for (int t : {0, 1, 2, 4, 8}) {
    if (t <= 1 || static_cast<unsigned>(t) <= hw_cores) {
      counts.push_back(t);
    } else {
      skipped->push_back(t);
    }
  }
  return counts;
}

struct ConfigResult {
  int threads = 0;
  double wall_sec = 0;
  uint64_t events = 0;
  uint64_t digest = 0;
  size_t stored = 0;
  uint64_t queries = 0;
  uint64_t query_timeouts = 0;
  // Sim-time latency snapshots (identical across engines by construction).
  uint64_t insert_count = 0;
  double insert_sum_ms = 0, insert_p50_ms = 0, insert_p99_ms = 0;
  double query_p50_ms = 0, query_p99_ms = 0;
  // Engine statistics (zero for the sequential configuration).
  EngineStats engine;
  bool has_engine = false;
};

// Max-over-mean of per-shard fired-event counts: 1.0 = perfectly balanced,
// S = all events on one shard.
double ShardImbalance(const EngineStats& s) {
  if (s.shard_events.empty() || s.events == 0) return 0;
  uint64_t peak = 0;
  for (uint64_t e : s.shard_events) peak = std::max(peak, e);
  double mean =
      static_cast<double>(s.events) / static_cast<double>(s.shard_events.size());
  return mean > 0 ? static_cast<double>(peak) / mean : 0;
}

// One full fig18-shaped run: 1024 flat nodes, mixed insert/batch/query
// workload over `drive_sec` of sim time, then settle. `threads == 0` runs the
// sequential engine.
ConfigResult RunConfig(int threads, double drive_sec) {
  const size_t kNodes = 1024;
  MindNetOptions mopts;
  mopts.sim.seed = 0x18181818;
  mopts.sim.threads = threads;
  mopts.overlay.heartbeat_interval = 0;
  mopts.mind.replication = 1;
  MindNet net(kNodes, mopts);
  if (!net.Build().ok()) {
    std::fprintf(stderr, "overlay build failed (threads=%d)\n", threads);
    std::abort();
  }

  IndexDef def;
  def.name = "scale";
  def.schema = ScaleSchema();
  def.time_attr = 1;
  Status st = net.CreateIndexEverywhere(
      def, std::make_shared<CutTree>(CutTree::Even(def.schema)), 1, 0);
  if (!st.ok()) {
    std::fprintf(stderr, "create index failed: %s\n", st.ToString().c_str());
    std::abort();
  }
  net.sim().RunFor(FromSeconds(10));

  // The fig18 workload, scheduled on each acting node's own queue. Query
  // completions are counted by the (sharded) registry counters rather than a
  // bench-side callback, which would race under the parallel engine.
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
  const SimTime t0 = net.sim().now();
  for (double t = 0; t < drive_sec; t += 1.0) {
    SimTime at = t0 + FromSeconds(t);
    for (size_t n = 0; n < kNodes; n += 4) {
      Tuple tup;
      tup.point = pts[pt++ % pts.size()];
      tup.origin = static_cast<int>(n);
      tup.seq = ++seq;
      net.sim().ScheduleOn(static_cast<NodeId>(n), at, [&net, n, tup] {
        (void)net.node(n).Insert("scale", tup);
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
        net.sim().ScheduleOn(static_cast<NodeId>(n), at,
                             [&net, n, batch]() mutable {
                               (void)net.node(n).InsertBatch("scale",
                                                             std::move(batch));
                             });
      }
    }
    for (int q = 0; q < 16; ++q) {
      size_t from = rng.Uniform(kNodes);
      Rect rect = RandomMonitoringQuery(&rng, def, 86400);
      net.sim().ScheduleOn(static_cast<NodeId>(from), at, [&net, from, rect] {
        (void)net.node(from).Query("scale", rect, [](const QueryResult&) {});
      });
    }
  }

  auto& sm = net.sim().metrics();
  const uint64_t events_before = sm.counter("sim.events.processed").value();
  const auto wall_start = std::chrono::steady_clock::now();
  net.sim().RunFor(FromSeconds(drive_sec + 60));  // workload + settle
  const double wall_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  ConfigResult r;
  r.threads = threads;
  r.wall_sec = wall_sec;
  r.events = sm.counter("sim.events.processed").value() - events_before;
  r.digest = net.StateDigest();
  r.stored = net.stored().size();
  r.queries = sm.counter("mind.query.count").value();
  r.query_timeouts = sm.counter("mind.query.timeouts").value();
  const auto& ins = sm.histogram("mind.insert.latency_ms");
  r.insert_count = ins.count();
  r.insert_sum_ms = ins.sum();
  r.insert_p50_ms = ins.Percentile(50);
  r.insert_p99_ms = ins.Percentile(99);
  const auto& qh = sm.histogram("mind.query.latency_ms");
  r.query_p50_ms = qh.Percentile(50);
  r.query_p99_ms = qh.Percentile(99);
  if (const EngineStats* es = net.sim().engine_stats()) {
    r.engine = *es;
    r.has_engine = true;
  }
  return r;
}

// Identity across configurations: everything the simulation computed in
// virtual time must be independent of the engine executing it. The histogram
// `sum` alone is compared with a relative tolerance: the sample multiset is
// identical, but sharded histograms reduce it as per-shard partial sums, and
// double addition is not associative.
bool SameWorld(const ConfigResult& a, const ConfigResult& b) {
  auto near = [](double x, double y) {
    double scale = std::max({std::fabs(x), std::fabs(y), 1.0});
    return std::fabs(x - y) <= 1e-9 * scale;
  };
  return a.digest == b.digest && a.stored == b.stored &&
         a.queries == b.queries && a.query_timeouts == b.query_timeouts &&
         a.insert_count == b.insert_count && near(a.insert_sum_ms, b.insert_sum_ms) &&
         a.insert_p50_ms == b.insert_p50_ms && a.insert_p99_ms == b.insert_p99_ms &&
         a.query_p50_ms == b.query_p50_ms && a.query_p99_ms == b.query_p99_ms;
}

}  // namespace

int main(int argc, char** argv) {
  const int duty = DutyPercent(argc, argv);
  const double drive_sec = 120.0 * duty / 100.0;

  // Wall-clock speedup is bounded by min(threads, cores): identity claims
  // hold on any machine, but scaling numbers from a core-starved container
  // measure engine overhead, not parallelism.
  const unsigned hw_cores = std::max(1u, std::thread::hardware_concurrency());
  std::vector<int> skipped;
  const std::vector<int> thread_counts = ThreadCounts(hw_cores, &skipped);

  std::printf("=== Figure 20: parallel engine scaling (1024 nodes, duty %d%%, "
              "%.0f s driven) ===\n\n", duty, drive_sec);
  std::printf("hardware: %u core%s available\n", hw_cores,
              hw_cores == 1 ? "" : "s");
  if (hw_cores < 2) {
    std::printf("NOTE: single-core host -- speedup-vs-serial below measures "
                "engine overhead only;\n      run on a multi-core machine for "
                "scaling numbers.\n");
  }
  for (int t : skipped) {
    std::printf("skipping threads=%d (only %u core%s); marked in export\n", t,
                hw_cores, hw_cores == 1 ? "" : "s");
  }
  std::printf("\n");

  std::vector<ConfigResult> results;
  for (int threads : thread_counts) {
    ConfigResult r = RunConfig(threads, drive_sec);
    std::printf("%-14s wall=%7.2fs  events=%10llu (%9.0f/s)  digest=%016llx\n",
                threads == 0 ? "serial" :
                    ("threads=" + std::to_string(threads)).c_str(),
                r.wall_sec, static_cast<unsigned long long>(r.events),
                r.wall_sec > 0 ? r.events / r.wall_sec : 0,
                static_cast<unsigned long long>(r.digest));
    if (r.has_engine) {
      std::printf(
          "               windows=%llu solo=%llu widened=%llu maxmult=%llu "
          "exchanged=%llu imbalance=%.2f barrier_wait=%.1fms\n",
          static_cast<unsigned long long>(r.engine.windows),
          static_cast<unsigned long long>(r.engine.solo_windows),
          static_cast<unsigned long long>(r.engine.widened_windows),
          static_cast<unsigned long long>(r.engine.max_multiplier),
          static_cast<unsigned long long>(r.engine.exchanged),
          ShardImbalance(r.engine),
          r.engine.barrier_wait_ns_total / 1e6);
    }
    results.push_back(r);
  }
  if (results.empty()) {
    std::fprintf(stderr, "no thread counts to run\n");
    return 1;
  }

  bool identical = true;
  for (const ConfigResult& r : results) {
    if (!SameWorld(results[0], r)) {
      identical = false;
      std::fprintf(stderr,
                   "IDENTITY VIOLATION: threads=%d diverges from threads=%d "
                   "(digest %016llx vs %016llx, stored %zu vs %zu)\n",
                   r.threads, results[0].threads,
                   static_cast<unsigned long long>(r.digest),
                   static_cast<unsigned long long>(results[0].digest),
                   r.stored, results[0].stored);
    }
  }
  const ConfigResult& head = results[0];
  std::printf("\nidentity: %s (stored=%zu queries=%llu timeouts=%llu "
              "insert p50=%.3fms p99=%.3fms)\n",
              identical ? "OK -- all configurations bit-identical" : "FAILED",
              head.stored, static_cast<unsigned long long>(head.queries),
              static_cast<unsigned long long>(head.query_timeouts),
              head.insert_p50_ms, head.insert_p99_ms);

  double serial_wall = 0;
  for (const ConfigResult& r : results) {
    if (r.threads == 0) serial_wall = r.wall_sec;
  }
  telemetry::MetricsRegistry reg;
  int max_threads = 0;
  double speedup_t2 = -1;
  for (const ConfigResult& r : results) {
    std::string sfx = ".t" + std::to_string(r.threads);
    reg.gauge("bench.fig20.wall_seconds" + sfx).Set(r.wall_sec);
    reg.gauge("bench.fig20.events_per_sec" + sfx)
        .Set(r.wall_sec > 0 ? r.events / r.wall_sec : 0);
    if (serial_wall > 0 && r.threads > 0 && r.wall_sec > 0) {
      double speedup = serial_wall / r.wall_sec;
      reg.gauge("bench.fig20.speedup_vs_serial" + sfx).Set(speedup);
      std::printf("threads=%d speedup vs serial: %.2fx\n", r.threads, speedup);
      if (r.threads == 2) speedup_t2 = speedup;
    }
    if (r.has_engine) {
      const EngineStats& es = r.engine;
      reg.gauge("bench.fig20.windows" + sfx).Set(es.windows);
      reg.gauge("bench.fig20.solo_windows" + sfx).Set(es.solo_windows);
      reg.gauge("bench.fig20.widened_windows" + sfx).Set(es.widened_windows);
      reg.gauge("bench.fig20.max_cap_multiplier" + sfx).Set(es.max_multiplier);
      reg.gauge("bench.fig20.exchanged_msgs" + sfx).Set(es.exchanged);
      reg.gauge("bench.fig20.shard_imbalance" + sfx).Set(ShardImbalance(es));
      reg.gauge("bench.fig20.barrier_wait_ms_total" + sfx)
          .Set(es.barrier_wait_ns_total / 1e6);
      // Sparse log2 histograms: one gauge per non-empty bucket. Bucket b
      // counts windows with floor(log2(v)) == b - 1 (bucket 0: v == 0).
      for (size_t b = 0; b < es.exchange_size_log2.size(); ++b) {
        if (es.exchange_size_log2[b] == 0) continue;
        reg.gauge("bench.fig20.exchange_size_log2.b" + std::to_string(b) + sfx)
            .Set(es.exchange_size_log2[b]);
      }
      for (size_t b = 0; b < es.barrier_wait_log2_ns.size(); ++b) {
        if (es.barrier_wait_log2_ns[b] == 0) continue;
        reg.gauge("bench.fig20.barrier_wait_log2_ns.b" + std::to_string(b) +
                  sfx)
            .Set(es.barrier_wait_log2_ns[b]);
      }
    }
    max_threads = std::max(max_threads, r.threads);
  }
  reg.gauge("bench.fig20.insert_p50_ms").Set(head.insert_p50_ms);
  reg.gauge("bench.fig20.insert_p99_ms").Set(head.insert_p99_ms);
  reg.gauge("bench.fig20.query_p50_ms").Set(head.query_p50_ms);
  reg.gauge("bench.fig20.query_p99_ms").Set(head.query_p99_ms);
  reg.gauge("bench.fig20.identity_ok").Set(identical ? 1 : 0);

  // Scaling-gate arming state, exported so CI can surface a skip as a skip
  // (a single-core runner cannot measure parallelism; silently "passing"
  // there would hide a dead gate forever). The gate also stays dark when the
  // thread list has no threads=2 configuration to compare.
  const bool gate_armed = hw_cores >= 2 && speedup_t2 >= 0;

  telemetry::RunMeta meta;
  meta.bench = "fig20_parallel";
  meta.seed = 0x18181818;
  meta.topology = "flat_synthetic";
  meta.nodes = 1024;
  meta.threads = max_threads;
  meta.extra["duty_percent"] = std::to_string(duty);
  meta.extra["drive_seconds"] = std::to_string(drive_sec);
  meta.extra["hardware_concurrency"] = std::to_string(hw_cores);
  {
    std::string list;
    for (int t : thread_counts) {
      if (!list.empty()) list += ",";
      list += std::to_string(t);
    }
    meta.extra["thread_counts"] = list;
  }
  {
    std::string list;
    for (int t : skipped) {
      if (!list.empty()) list += ",";
      list += std::to_string(t);
    }
    meta.extra["skipped_thread_counts"] = list;  // hardware can't run these
  }
  meta.extra["scaling_gate"] = gate_armed ? "armed" : "skipped";
  char digest_hex[24];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                static_cast<unsigned long long>(head.digest));
  meta.extra["state_digest"] = digest_hex;
  ExportBench(reg, meta);

  if (!identical) return 1;
  // Scaling gate: with at least two real cores, two workers must beat the
  // serial engine. The gate is tri-state -- PASS, FAIL, or an explicit
  // SKIPPED line (never a silent pass): core-starved hosts can only measure
  // engine overhead, and a thread list without threads=2 has nothing to
  // compare. CI reads meta.extra.scaling_gate from the export so a skip
  // shows up in the job summary and a multi-core runner arms the gate
  // automatically.
  if (!gate_armed) {
    std::printf("scaling gate: SKIPPED (%s); a multi-core runner arms it "
                "automatically\n",
                hw_cores < 2 ? "single-core host"
                             : "no threads=2 configuration in this run");
    return 0;
  }
  if (speedup_t2 <= 1.0) {
    std::fprintf(stderr,
                 "SCALING REGRESSION: threads=2 speedup %.2fx <= 1.0 on a "
                 "%u-core host\n",
                 speedup_t2, hw_cores);
    return 1;
  }
  std::printf("scaling gate: PASS (threads=2 speedup %.2fx on a %u-core "
              "host)\n",
              speedup_t2, hw_cores);
  return 0;
}
