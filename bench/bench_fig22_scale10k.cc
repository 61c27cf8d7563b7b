// Figure 22 (order-of-magnitude scale, no paper counterpart): fleets of
// {1k, 4k, 10k} nodes driven across >= 7 simulated days each, with a daily
// IndexVersions freeze + compaction (a new cut version installed every
// simulated midnight, the paper's §3.7 daily rebalance). The paper's
// wide-area setting implies thousands of monitors running for days; this
// bench makes the memory axis first-class:
//
//   * Live heap per node, sampled at every simulated midnight and read
//     inside the process (pool::LiveHeapBytes: the allocator's in-use bytes
//     minus the pools' free slab bytes). Day 1 is the warm-up day. The
//     bench exits 1 if, for any fleet, live heap per node grows more than
//     kGrowthBandKb from day 1 to day 7, or exceeds that fleet's day-7
//     ceiling. Both bounds are absolute kB per node, never a ratio: a
//     ratio over day 1 rises when day 1 shrinks.
//   * RSS per node (/proc/self/status VmRSS on Linux; 0 elsewhere) and the
//     link table's kB per node (Network::LinkTableBytes), reported per day
//     and ungated: RSS keeps whatever free heap the build phase leaves, and
//     the link table attributes what of the live heap still grows.
//   * Pool high-water marks (memory.pool.*): message/event traffic runs
//     through the pool layer, so peak pool bytes bound the churn
//     footprint and oversize_allocs counts every allocation that escaped
//     the pools.
//   * events/s wall throughput per fleet — the events/s-degrades-sublinearly
//     axis of ROADMAP item 3.
//
// Duty cycle: MIND_BENCH_DUTY=<percent> (or argv[1]) scales the per-day
// driven window (default 60 s of active traffic per day); the day *count*
// never scales down, so even CI smoke runs cross 7 simulated midnights.
// Results export to BENCH_fig22_scale10k.json.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.h"
#include "telemetry/pool_gauges.h"

using namespace mind;
using namespace mind::bench;

namespace {

Schema ScaleSchema() {
  return Schema(
      {{"dst", 0, 0xFFFFFFFFull}, {"ts", 0, 86400 * 14}, {"v", 0, 1 << 20}});
}

/// Resident set size in kB from /proc/self/status; 0 where unavailable.
double RssKb() {
#if defined(__linux__)
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = std::atof(line + 6);
      break;
    }
  }
  std::fclose(f);
  return kb;
#else
  return 0;
#endif
}

// The live-heap gate, in kB per node. Measured at MIND_BENCH_DUTY=5
// (Release): day 1 -> day 7 growth +1.35 / +1.31 / +1.20 kB and day 7
// 14.38 / 16.69 / 17.96 kB at 1k / 4k / 10k nodes. The band sits 0.25 kB
// above the largest growth; each ceiling ~11% above its fleet's day 7.
constexpr double kGrowthBandKb = 1.60;  // day 1 -> day 7, every fleet
double Day7CeilingKb(size_t fleet) {
  switch (fleet) {
    case 1000: return 16.0;
    case 4000: return 18.5;
    default: return 20.0;
  }
}

struct FleetResult {
  // Sampled at each midnight, per node.
  std::vector<double> day_live_kb;
  std::vector<double> day_rss_kb;
  double events_per_sec_wall = 0;
  double live_growth_kb = 0;  // day 1 -> day N live heap per node
  double rss_growth_pct = 0;  // day 1 -> day N RSS per node (ungated)
};

}  // namespace

int main(int argc, char** argv) {
  const int duty = DutyPercent(argc, argv);
  const double drive_sec_per_day = 60.0 * duty / 100.0;
  const int days = 7;
  const std::vector<size_t> fleets = {1000, 4000, 10000};

  telemetry::MetricsRegistry registry;
  bool gate_failed = false;

  std::printf(
      "=== Figure 22: bounded-memory scale (fleets 1k/4k/10k x %d days, "
      "duty %d%%, %.0f s driven/day) ===\n\n",
      days, duty, drive_sec_per_day);

  for (size_t fleet : fleets) {
    DeploymentOptions dopts;
    dopts.seed = 0x22222222 + fleet;
    dopts.heartbeat_interval = 0;  // event budget goes to the data path
    dopts.join_stagger = FromMillis(100);
    dopts.build_deadline = FromSeconds(4 * 3600);
    auto net = MakeFlatDeployment(fleet, dopts);

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
    net->sim().RunFor(FromSeconds(10));

    FleetResult res;
    auto& sm = net->sim().metrics();
    const uint64_t events_before = sm.counter("sim.events.processed").value();
    const auto wall_start = std::chrono::steady_clock::now();

    Rng rng(0x22f1 + fleet);
    // Per-day scratch: raw attribute triples, refilled every day. The
    // vector keeps its capacity across days, so after day 1 a day of driving
    // costs zero allocator traffic for this scratch.
    std::vector<uint64_t> pts;
    uint64_t seq = 0;
    size_t queries_done = 0;
    const SimTime day_zero = net->sim().now();
    for (int day = 0; day < days; ++day) {
      // Active window opens at 01:00 so it clears the previous midnight's
      // freeze + settle no matter how small the duty window is.
      const SimTime day_start = day_zero + FromSeconds(86400.0 * day + 3600);
      // Active window: fleet/8 origins insert one tuple per second; 4
      // monitoring queries per second probe the read path.
      const size_t n_pts =
          static_cast<size_t>(drive_sec_per_day) * (fleet / 8) + 1;
      pts.resize(n_pts * 3);
      for (size_t i = 0; i < n_pts * 3; i += 3) {
        pts[i] = rng.Uniform(0x100000000ull);
        pts[i + 1] = static_cast<uint64_t>(86400.0 * day +
                                           rng.Uniform(86400));
        if (pts[i + 1] >= 86400ull * 14) pts[i + 1] = 86400ull * 14 - 1;
        pts[i + 2] = rng.Uniform(1 << 20);
      }
      size_t pt = 0;
      for (double t = 0; t < drive_sec_per_day; t += 1.0) {
        const SimTime when = day_start + FromSeconds(t);
        for (size_t n = 0; n < fleet; n += 8) {
          const size_t p = (pt++ % n_pts) * 3;
          Tuple tup;
          tup.point = {pts[p], pts[p + 1], pts[p + 2]};
          tup.origin = static_cast<int>(n);
          tup.seq = ++seq;
          net->sim().events().ScheduleAt(when, [&net, n, tup] {
            (void)net->node(n).Insert("scale", tup);
          });
        }
        for (int q = 0; q < 4; ++q) {
          const size_t from = rng.Uniform(fleet);
          Rect rect = RandomMonitoringQuery(
              &rng, def, static_cast<uint64_t>(86400.0 * day + t + 300));
          net->sim().events().ScheduleAt(
              when, [&net, &queries_done, from, rect] {
                (void)net->node(from).Query(
                    "scale", rect,
                    [&queries_done](const QueryResult&) { ++queries_done; });
              });
        }
      }
      // Drain the day's traffic, then coast to midnight (no pending events,
      // so the clock jump is O(1)).
      net->sim().RunFor(FromSeconds(drive_sec_per_day + 120));
      net->sim().RunUntil(day_zero + FromSeconds(86400.0 * (day + 1)));
      // Daily freeze + compaction: installing the next cut version closes
      // the day's store generation everywhere (§3.7 daily rebalance).
      st = net->InstallCutsEverywhere(
          "scale", static_cast<VersionId>(day + 2),
          std::make_shared<CutTree>(CutTree::Even(def.schema)),
          net->sim().now() + FromSeconds(1));
      if (!st.ok()) {
        std::fprintf(stderr, "install cuts failed: %s\n",
                     st.ToString().c_str());
        return 1;
      }
      net->sim().RunFor(FromSeconds(30));

      // The measurement hooks (per-commit StoredInfo, per-query visit sets)
      // are bench instrumentation, not node state; drop them daily so the
      // memory gate measures the deployment, not the measuring apparatus.
      net->ClearStored();
      net->ClearVisits();

      const double nodes = static_cast<double>(fleet);
      const double live_per_node =
          static_cast<double>(pool::LiveHeapBytes()) / 1024.0 / nodes;
      const double rss_per_node = RssKb() / nodes;
      const double links_per_node =
          static_cast<double>(net->network().LinkTableBytes()) / 1024.0 /
          nodes;
      res.day_live_kb.push_back(live_per_node);
      res.day_rss_kb.push_back(rss_per_node);
      const std::string suffix =
          ".n" + std::to_string(fleet) + ".day" + std::to_string(day + 1);
      registry.gauge("bench.fig22.live_heap_kb_per_node" + suffix)
          .Set(live_per_node);
      registry.gauge("bench.fig22.rss_per_node_kb" + suffix).Set(rss_per_node);
      registry.gauge("bench.fig22.link_table_kb_per_node" + suffix)
          .Set(links_per_node);
      std::printf(
          "fleet %5zu  day %d  live/node %6.2f kB  (links %5.2f kB)  "
          "rss/node %6.2f kB  queries done %zu\n",
          fleet, day + 1, live_per_node, links_per_node, rss_per_node,
          queries_done);
    }

    const double wall_sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    const uint64_t events =
        sm.counter("sim.events.processed").value() - events_before;
    res.events_per_sec_wall = wall_sec > 0 ? events / wall_sec : 0;
    res.live_growth_kb = res.day_live_kb.back() - res.day_live_kb.front();
    res.rss_growth_pct =
        res.day_rss_kb.front() > 0
            ? 100.0 * (res.day_rss_kb.back() - res.day_rss_kb.front()) /
                  res.day_rss_kb.front()
            : 0;
    const std::string n = ".n" + std::to_string(fleet);
    registry.gauge("bench.fig22.events_per_sec_wall" + n)
        .Set(res.events_per_sec_wall);
    registry.gauge("bench.fig22.live_heap_growth_kb_per_node" + n)
        .Set(res.live_growth_kb);
    registry.gauge("bench.fig22.rss_growth_pct" + n).Set(res.rss_growth_pct);
    const double ceiling = Day7CeilingKb(fleet);
    const bool grew = res.live_growth_kb > kGrowthBandKb;
    const bool over = res.day_live_kb.back() > ceiling;
    std::printf(
        "fleet %5zu  %.0f events/s wall  live/node day1 %.2f kB -> day%d "
        "%.2f kB (%+.2f kB, band %.2f; ceiling %.2f)%s%s  rss/node %+.2f%%\n\n",
        fleet, res.events_per_sec_wall, res.day_live_kb.front(), days,
        res.day_live_kb.back(), res.live_growth_kb, kGrowthBandKb, ceiling,
        grew ? "  GROWTH FAIL" : "", over ? "  CEILING FAIL" : "",
        res.rss_growth_pct);
    if (grew || over) gate_failed = true;
  }

  // Pool high-water marks: how much of the churn ran inside the pools. A
  // non-zero oversize count here means some message/event allocation escaped
  // the size classes — the lint keeps new ones out, this reports the truth.
  telemetry::PublishPoolGauges(registry);
  const pool::Stats pstats = pool::GatherStats();
  std::printf(
      "pools: peak %.1f MB live, %.1f MB slabs, %llu allocs / %llu frees, "
      "%llu oversize\n",
      pstats.peak_bytes / 1048576.0, pstats.slab_bytes / 1048576.0,
      static_cast<unsigned long long>(pstats.allocs),
      static_cast<unsigned long long>(pstats.frees),
      static_cast<unsigned long long>(pstats.oversize_allocs));

  telemetry::RunMeta meta;
  meta.bench = "fig22_scale10k";
  meta.seed = 0x22222222;
  meta.topology = "flat_synthetic";
  meta.nodes = static_cast<int>(fleets.back());
  meta.extra["duty_percent"] = std::to_string(duty);
  meta.extra["days"] = std::to_string(days);
  meta.extra["drive_sec_per_day"] = std::to_string(drive_sec_per_day);
  ExportBench(registry, meta);

  if (gate_failed) {
    std::fprintf(stderr,
                 "FAIL: live heap per node grew more than %.2f kB from day 1 "
                 "to day %d, or ended above its fleet's ceiling\n",
                 kGrowthBandKb, days);
    return 1;
  }
  std::printf(
      "live-heap gate (day1->day%d growth <= %.2f kB/node, day-%d ceiling per "
      "fleet): PASS\n",
      days, kGrowthBandKb, days);
  return 0;
}
