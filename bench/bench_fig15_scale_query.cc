// "Figure 15" — the 102-node query results the paper describes in §4.3 but
// omits for space: query latency is qualitatively similar to insertion
// latency, ~90% of queries visit fewer than 5 nodes, and no query visits
// more than 12.
#include <cstdio>
#include <map>
#include <string>

#include "bench/common.h"

using namespace mind;
using namespace mind::bench;

namespace {

struct Fig15Outcome {
  std::vector<double> lat;
  std::map<size_t, size_t> cost_hist;
  size_t le5 = 0, total = 0, max_cost = 0;
  size_t stored = 0;
  uint64_t digest = 0;
};

Fig15Outcome RunFig15(telemetry::MetricsRegistry& bench_metrics) {
  const std::string prefix = "bench.fig15.";
  const size_t kNodes = 102;
  MindNetOptions mopts;
  mopts.sim.seed = 15150;
  mopts.sim.network.jitter_mu_ln_ms = 4.0;
  mopts.sim.network.jitter_sigma_ln = 1.0;
  mopts.mind.replication = 1;
  MindNet net(kNodes, mopts);
  if (!net.Build().ok()) std::abort();
  CreatePaperIndices(net, {}, true, false, false);

  // Load Index-1 with trace-derived points from every node.
  Topology topo = Topology::AbileneGeant();
  FlowGeneratorOptions gopts;
  gopts.peak_flows_per_router_sec = 80;
  gopts.seed = 1515;
  FlowGenerator gen(topo, gopts);
  PaperIndexOptions iopts;
  iopts.index1_min_fanout = 2;
  auto points = SampleIndexPoints(gen, 0, 36000, 43200, 1, iopts);
  // Balanced cuts (from the same distribution, as the paper's deployment
  // would have installed from the previous day) before loading.
  InstallBalancedCuts(net, "index1_fanout", MakeIndex1(iopts), points, 256, 12,
                      2, 0);
  size_t seq = 0;
  for (const auto& p : points) {
    Tuple tup;
    tup.point = p;
    tup.origin = static_cast<int>(seq % kNodes);
    tup.seq = ++seq;
    (void)net.node(seq % kNodes).Insert("index1_fanout", tup);
    if (seq % 50 == 0) net.sim().RunFor(FromSeconds(1));
  }
  net.sim().RunFor(FromSeconds(60));

  const IndexDef* def = net.node(0).GetIndexDef("index1_fanout");
  Rng rng(15);
  // Table and BENCH_*.json read the same instruments (fig10 convention).
  auto& latency_ms = bench_metrics.histogram(prefix + "query_latency_ms");
  auto& cost_h = bench_metrics.histogram(prefix + "resolver_cost_nodes");
  Fig15Outcome out;
  for (int iter = 0; iter < 200; ++iter) {
    Rect q = RandomMonitoringQuery(&rng, *def, 43200);
    auto result = RunQueryBlocking(net, rng.Uniform(kNodes), "index1_fanout", q);
    if (!result || !result->complete) continue;
    out.lat.push_back(ToSeconds(result->latency));
    latency_ms.Record(ToSeconds(result->latency) * 1e3);
    // The paper's metric: nodes involved while retrieving the results.
    size_t cost = result->responders;
    out.cost_hist[cost]++;
    cost_h.Record(static_cast<double>(cost));
    out.max_cost = std::max(out.max_cost, net.QueryVisitCount(result->query_id));
    if (cost < 5) ++out.le5;
    ++out.total;
  }
  out.stored = net.TotalPrimaryTuples("index1_fanout");
  out.digest = net.StateDigest();

  const double denom = static_cast<double>(out.total);
  bench_metrics.gauge(prefix + "lt5_resolver_pct")
      .Set(100.0 * static_cast<double>(out.le5) / denom);
  bench_metrics.gauge(prefix + "max_nodes_visited")
      .Set(static_cast<double>(out.max_cost));
  bench_metrics.counter(prefix + "queries_complete")
      .Inc(static_cast<uint64_t>(out.total));
  return out;
}

}  // namespace

int main() {
  telemetry::MetricsRegistry bench_metrics;
  const Fig15Outcome base = RunFig15(bench_metrics);

  std::printf("=== Figure 15 (§4.3): query cost & latency at 102-node scale ===\n");
  std::printf("stored tuples: %zu; completed queries: %zu\n\n", base.stored,
              base.total);
  std::printf("query cost (resolver nodes, incl. negative replies):\n");
  size_t cum = 0;
  for (const auto& [cost, count] : base.cost_hist) {
    cum += count;
    std::printf("  %2zu nodes: %5zu  (cum %.1f%%)\n", cost, count,
                100.0 * static_cast<double>(cum) /
                    static_cast<double>(base.total));
  }
  std::printf("queries resolved by < 5 nodes: %.1f%%  (paper: ~90%%); max "
              "overlay nodes touched: %zu (paper: <= 12 visited)\n\n",
              100.0 * static_cast<double>(base.le5) /
                  static_cast<double>(base.total),
              base.max_cost);
  PrintLatencyRow("query latency", base.lat);
  std::printf("\n%zu queries complete, digest %016llx\n", base.total,
              static_cast<unsigned long long>(base.digest));

  telemetry::RunMeta meta;
  meta.bench = "fig15_scale_query";
  meta.seed = 15150;
  meta.topology = "flat";
  meta.nodes = 102;
  meta.extra["queries"] = "200";
  ExportBench(bench_metrics, meta);
  return 0;
}
