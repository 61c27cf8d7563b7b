// Figure 9: query cost — the number of overlay nodes visited per query —
// for random monitoring queries over all three indices on the baseline
// 34-node deployment. Paper: over 90% of queries involve 4 nodes or fewer.
//
// The whole experiment runs once per index backend (sorted runs /
// hierarchical bitmaps / adaptive). Backends are physical layout only
// (docs/BACKENDS.md), so every run must produce identical query costs and an
// identical deployment digest — the bench asserts that and exits nonzero on
// divergence, or when no query returns any tuple. Per-backend results export as bench.fig09.<backend>.*; the
// unprefixed bench.fig09.* names stay on the sorted run for continuity with
// older BENCH_fig09_query_cost.json files.
#include <cstdio>
#include <map>
#include <string>

#include "bench/common.h"

using namespace mind;
using namespace mind::bench;

namespace {

struct Fig09Outcome {
  std::map<size_t, size_t> retrieval_hist, resolver_hist, visit_hist;
  size_t total = 0, le4_retrieval = 0, le4_resolver = 0;
  size_t with_tuples = 0;  // complete queries that returned any tuple
  size_t inserted = 0;
  uint64_t digest = 0;
};

Fig09Outcome RunFig09(IndexBackendKind backend,
                      telemetry::MetricsRegistry& bench_metrics,
                      bool legacy_names) {
  const std::string prefix =
      std::string("bench.fig09.") + IndexBackendKindName(backend) + ".";
  Topology topo = Topology::AbileneGeant();
  FlowGeneratorOptions gopts;
  gopts.peak_flows_per_router_sec = 80;
  gopts.seed = 909;
  FlowGenerator gen(topo, gopts);

  auto net = MakeDeployment(topo, {.replication = 1, .seed = 9090,
                                   .backend = backend});
  CreatePaperIndices(*net);

  // Balanced cuts from the previous day's distribution (§3.7): these give
  // the locality that keeps query costs low — empty space collapses into
  // few shallow regions.
  const IndexDef defs[] = {MakeIndex1(), MakeIndex2(), MakeIndex3()};
  const char* names3[] = {"index1_fanout", "index2_octets", "index3_flowsize"};
  for (int which = 1; which <= 3; ++which) {
    auto yesterday = SampleIndexPoints(gen, 0, 39600, 41400, which);
    ShiftTimeAttr(&yesterday, defs[which - 1].time_attr);
    InstallBalancedCuts(*net, names3[which - 1], defs[which - 1], yesterday, 256, 12, 2, 0);
  }

  TraceDriveOptions topts;
  topts.day = 1;
  topts.t0_sec = 39600;
  topts.t1_sec = 41400;  // 30 minutes
  auto drive = DriveTrace(*net, gen, topts);

  Rng rng(9);
  // Three cost metrics, strictest to widest:
  //  * retrieval cost: nodes that supplied results (the paper's headline);
  //  * resolver cost: all (incl. negative) responders;
  //  * visit cost: every node the query touched, forwarders included.
  // The same instruments feed the table below and the BENCH_*.json export.
  auto& retrieval_h = bench_metrics.histogram(prefix + "retrieval_cost_nodes");
  auto& resolver_h = bench_metrics.histogram(prefix + "resolver_cost_nodes");
  auto& visit_h = bench_metrics.histogram(prefix + "visit_cost_nodes");
  Fig09Outcome out;
  out.inserted = drive.inserted1 + drive.inserted2 + drive.inserted3;
  for (int iter = 0; iter < 150; ++iter) {
    const char* index = names3[iter % 3];
    const IndexDef* def = net->node(0).GetIndexDef(index);
    // Stored timestamps are absolute: the drive replays day `topts.day`.
    const uint64_t t_end = static_cast<uint64_t>(topts.day) * 86400 +
                           static_cast<uint64_t>(topts.t1_sec);
    Rect q = RandomMonitoringQuery(&rng, *def, t_end);
    size_t from = rng.Uniform(net->size());
    auto result = RunQueryBlocking(*net, from, index, q);
    if (!result || !result->complete) continue;
    out.retrieval_hist[result->positive_responders]++;
    out.resolver_hist[result->responders]++;
    size_t visits = net->QueryVisitCount(result->query_id);
    out.visit_hist[visits]++;
    retrieval_h.Record(static_cast<double>(result->positive_responders));
    resolver_h.Record(static_cast<double>(result->responders));
    visit_h.Record(static_cast<double>(visits));
    if (legacy_names) {
      bench_metrics.histogram("bench.fig09.retrieval_cost_nodes")
          .Record(static_cast<double>(result->positive_responders));
      bench_metrics.histogram("bench.fig09.resolver_cost_nodes")
          .Record(static_cast<double>(result->responders));
      bench_metrics.histogram("bench.fig09.visit_cost_nodes")
          .Record(static_cast<double>(visits));
    }
    ++out.total;
    if (!result->tuples.empty()) ++out.with_tuples;
    if (result->positive_responders <= 4) ++out.le4_retrieval;
    if (result->responders <= 4) ++out.le4_resolver;
  }
  out.digest = net->StateDigest();

  const double denom = static_cast<double>(out.total);
  bench_metrics.gauge(prefix + "le4_retrieval_pct")
      .Set(100.0 * static_cast<double>(out.le4_retrieval) / denom);
  bench_metrics.gauge(prefix + "le4_resolver_pct")
      .Set(100.0 * static_cast<double>(out.le4_resolver) / denom);
  bench_metrics.counter(prefix + "queries_complete")
      .Inc(static_cast<uint64_t>(out.total));
  bench_metrics.counter(prefix + "queries_with_tuples")
      .Inc(static_cast<uint64_t>(out.with_tuples));
  if (legacy_names) {
    bench_metrics.gauge("bench.fig09.le4_retrieval_pct")
        .Set(100.0 * static_cast<double>(out.le4_retrieval) / denom);
    bench_metrics.gauge("bench.fig09.le4_resolver_pct")
        .Set(100.0 * static_cast<double>(out.le4_resolver) / denom);
    bench_metrics.counter("bench.fig09.queries_complete")
        .Inc(static_cast<uint64_t>(out.total));
  }
  return out;
}

}  // namespace

int main() {
  telemetry::MetricsRegistry bench_metrics;
  const IndexBackendKind kBackends[] = {IndexBackendKind::kSortedRuns,
                                        IndexBackendKind::kBitmap,
                                        IndexBackendKind::kAdaptive};
  std::map<IndexBackendKind, Fig09Outcome> runs;
  for (IndexBackendKind b : kBackends) {
    runs[b] = RunFig09(b, bench_metrics,
                       /*legacy_names=*/b == IndexBackendKind::kSortedRuns);
  }
  const Fig09Outcome& base = runs[IndexBackendKind::kSortedRuns];

  std::printf("=== Figure 9: query cost distribution (nodes visited) ===\n");
  std::printf("inserted: %zu tuples across the three indices\n\n", base.inserted);
  auto print_hist = [&](const char* label, const std::map<size_t, size_t>& h) {
    std::printf("%s:\n%8s  %8s  %8s\n", label, "nodes", "queries", "cum%");
    size_t cum = 0;
    for (const auto& [cost, count] : h) {
      cum += count;
      std::printf("%8zu  %8zu  %7.1f%%\n", cost, count,
                  100.0 * static_cast<double>(cum) /
                      static_cast<double>(base.total));
    }
    std::printf("\n");
  };
  print_hist("retrieval cost (nodes supplying results)", base.retrieval_hist);
  print_hist("resolver cost (incl. negative replies)", base.resolver_hist);
  print_hist("visit cost (incl. forwarders)", base.visit_hist);
  std::printf("queries retrieving from <= 4 nodes: %.1f%%  (paper: >90%%)\n",
              100.0 * static_cast<double>(base.le4_retrieval) /
                  static_cast<double>(base.total));
  std::printf("queries resolved by <= 4 nodes: %.1f%%\n",
              100.0 * static_cast<double>(base.le4_resolver) /
                  static_cast<double>(base.total));
  std::printf("queries returning tuples: %zu of %zu\n\n", base.with_tuples,
              base.total);
  // A query window that misses every stored timestamp makes every cost
  // above trivially small and the backend comparison below vacuous.
  bool failed = false;
  if (base.with_tuples == 0) {
    std::fprintf(stderr, "FAIL: no query returned any tuple\n");
    failed = true;
  }

  // Backend transparency: identical query costs and deployment digest.
  for (IndexBackendKind b : kBackends) {
    const Fig09Outcome& o = runs[b];
    std::printf("backend %-7s: %zu queries complete, digest %016llx\n",
                IndexBackendKindName(b), o.total,
                static_cast<unsigned long long>(o.digest));
    if (o.retrieval_hist != base.retrieval_hist ||
        o.resolver_hist != base.resolver_hist ||
        o.visit_hist != base.visit_hist || o.total != base.total ||
        o.with_tuples != base.with_tuples || o.digest != base.digest) {
      std::fprintf(stderr, "FAIL: backend %s diverged from sorted baseline\n",
                   IndexBackendKindName(b));
      failed = true;
    }
  }

  telemetry::RunMeta meta;
  meta.bench = "fig09_query_cost";
  meta.seed = 9090;
  meta.topology = "abilene_geant";
  meta.nodes = static_cast<int>(Topology::AbileneGeant().size());
  meta.extra["queries"] = "150";
  meta.extra["backends"] = "sorted,bitmap,adaptive";
  ExportBench(bench_metrics, meta);
  return failed ? 1 : 0;
}
