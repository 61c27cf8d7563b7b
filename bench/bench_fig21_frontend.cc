// "Figure 21" (live front-end, no paper counterpart): sustained combined
// insert + query load through src/frontend — the streaming ingest pipeline
// replaying a synthetic trace into the three paper indices while a
// concurrent query service drives on-demand, burst, scan and standing range
// queries through admission control.
//
// The workload is deliberately overloaded so every admission outcome is
// exercised: client bursts exceed the per-client quota, a steady on-demand
// stream saturates the in-flight gate and wait queue, and periodic
// whole-domain scans trip the selectivity cost gate once the observed-tuple
// histograms carry enough mass. The run fails (exit 1) if admission never
// engaged — nonzero admits AND rejects are this bench's contract.
//
// Headline numbers (all sim-time): sustained inserts/s into the core,
// completed queries/s, and p50/p99 service latency under load, exported to
// BENCH_fig21_frontend.json as `bench.fig21.*` gauges alongside the full
// engine snapshot (frontend.*, mind.*, storage.*).
//
// Duty cycle: MIND_BENCH_DUTY=<percent> (or argv[1]) scales the replayed
// window down for CI smoke runs; before/after comparisons must match duty.
#include <cstdio>
#include <memory>
#include <string>

#include "bench/common.h"
#include "frontend/frontend.h"

using namespace mind;
using namespace mind::bench;
using mind::frontend::Frontend;
using mind::frontend::FrontendOptions;
using mind::frontend::GeneratorTraceSource;
using mind::frontend::QueryService;

namespace {

/// Whole-domain rect (the expensive scan the cost gate should refuse).
Rect FullScan(const IndexDef& def) {
  std::vector<Interval> ivs;
  for (int d = 0; d < def.schema.dims(); ++d) {
    ivs.push_back({def.schema.attr(d).min, def.schema.attr(d).max});
  }
  return Rect(std::move(ivs));
}

}  // namespace

int main(int argc, char** argv) {
  const int duty = DutyPercent(argc, argv);
  const double t0_sec = 39600;  // 11:00, the paper's busy hour
  const double minutes = std::max(2.0, 10.0 * duty / 100.0);
  const double t1_sec = t0_sec + minutes * 60.0;

  Topology topo = Topology::AbileneGeant();
  DeploymentOptions dopts;
  dopts.seed = 0x21f0;
  auto net = MakeDeployment(topo, dopts);
  CreatePaperIndices(*net);

  FlowGeneratorOptions gopts;
  gopts.peak_flows_per_router_sec = 40;
  gopts.seed = 0x21f1;
  FlowGenerator gen(topo, gopts);
  auto source = std::make_unique<GeneratorTraceSource>(
      &gen, /*day=*/0, t0_sec, t1_sec);

  FrontendOptions fopts;
  fopts.ingest.batcher.batch_max_tuples = 32;
  fopts.ingest.batcher.flush_deadline = FromMillis(500);
  fopts.ingest.batcher.queue_max_tuples = 512;
  fopts.query.max_inflight = 16;
  fopts.query.max_queue = 24;
  fopts.query.per_client_quota = 6;
  fopts.query.max_cost_tuples = 15;  // scans get refused once mass builds
  fopts.query.default_deadline = FromSeconds(20);
  Frontend fe(net.get(), std::move(source), fopts);

  // Clients: one per Abilene node (the US half of the deployment).
  const size_t kClients = 11;
  std::vector<frontend::ClientId> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.push_back(fe.queries().RegisterClient(static_cast<NodeId>(c)));
  }

  const IndexDef defs[3] = {MakeIndex1({}), MakeIndex2({}), MakeIndex3({})};
  const char* names[3] = {"index1_fanout", "index2_octets", "index3_flowsize"};
  Rng qrng(0x21f2);
  uint64_t delivered_tuples = 0;
  auto sink = [&delivered_tuples](const frontend::Delivery& d) {
    delivered_tuples += d.tuples.size();
  };

  // Standing queries: a scan-for-anomalies per index, re-run every 15 s.
  for (int i = 0; i < 3; ++i) {
    Rect rect = RandomMonitoringQuery(&qrng, defs[i], t1_sec);
    auto sid = fe.queries().AddStanding(clients[static_cast<size_t>(i)],
                                        names[i], rect, FromSeconds(15), sink);
    if (!sid.ok()) {
      std::fprintf(stderr, "standing failed: %s\n",
                   sid.status().ToString().c_str());
      return 1;
    }
  }

  // On-demand load, pre-scheduled across the replay window:
  //  * steady stream: every client, one monitoring query per second
  //    (staggered) — saturates the in-flight gate and wait queue;
  //  * bursts: every 20 s one client fires 16 back-to-back — quota rejects;
  //  * volleys: offset by 10 s, every client fires its full quota at once —
  //    the combined wave overruns in-flight + queue, overload rejects;
  //  * scans: every 15 s a whole-domain query — cost rejects once the
  //    selectivity histograms have mass.
  const double drive_sec = minutes * 60.0;
  for (double t = 1.0; t < drive_sec; t += 1.0) {
    const uint64_t tick = static_cast<uint64_t>(t);
    for (size_t c = 0; c < kClients; ++c) {
      const int which = static_cast<int>((tick + c) % 3);
      Rect rect =
          RandomMonitoringQuery(&qrng, defs[which],
                                static_cast<uint64_t>(t0_sec + t));
      net->sim().events().Schedule(
          FromSeconds(t + 0.037 * static_cast<double>(c)),
          [&fe, &clients, c, which, rect, &names, &sink] {
            (void)fe.queries().Submit(clients[c], names[which], rect, sink);
          });
    }
    if (tick % 20 == 0) {
      const size_t c = (tick / 20) % kClients;
      Rect rect = RandomMonitoringQuery(&qrng, defs[0],
                                        static_cast<uint64_t>(t0_sec + t));
      net->sim().events().Schedule(FromSeconds(t + 0.5), [&fe, &clients, c,
                                                          rect, &names,
                                                          &sink] {
        for (int burst = 0; burst < 16; ++burst) {
          (void)fe.queries().Submit(clients[c], names[0], rect, sink);
        }
      });
    }
    if (tick % 20 == 10) {
      for (size_t c = 0; c < kClients; ++c) {
        Rect rect = RandomMonitoringQuery(&qrng, defs[1],
                                          static_cast<uint64_t>(t0_sec + t));
        net->sim().events().Schedule(
            FromSeconds(t + 0.6 + 0.001 * static_cast<double>(c)),
            [&fe, &fopts, &clients, c, rect, &names, &sink] {
              for (size_t v = 0; v < fopts.query.per_client_quota; ++v) {
                (void)fe.queries().Submit(clients[c], names[1], rect, sink);
              }
            });
      }
    }
    if (tick % 15 == 0) {
      const int which = static_cast<int>((tick / 15) % 3);
      Rect scan = FullScan(defs[which]);
      net->sim().events().Schedule(
          FromSeconds(t + 0.25),
          [&fe, &clients, which, scan, &names, &sink] {
            (void)fe.queries().Submit(clients[(which + 5) % kClients],
                                      names[which], scan, sink);
          });
    }
  }

  fe.Start();
  net->sim().RunFor(FromSeconds(drive_sec));
  // Drain: finish the replay tail, in-flight queries and deliveries.
  for (int i = 0; i < 40 && !fe.ingest().done(); ++i) {
    net->sim().RunFor(FromSeconds(5));
  }
  net->sim().RunFor(FromSeconds(45));

  auto& sm = net->sim().metrics();
  const QueryService& qs = fe.queries();
  const auto& ingest = fe.ingest();
  const uint64_t committed = ingest.tuples_out() - ingest.tuples_dropped();
  const double inserts_per_sec = static_cast<double>(committed) / drive_sec;
  const double queries_per_sec =
      static_cast<double>(qs.completed_total()) / drive_sec;
  const auto& lat = sm.histogram("frontend.query.latency_ms");

  std::printf("=== Figure 21: live front-end under load (duty %d%%) ===\n\n",
              duty);
  std::printf("replay: %.0f s of trace, %llu raw records -> %llu tuples "
              "(%llu dropped, %llu defer rounds)\n",
              drive_sec,
              static_cast<unsigned long long>(ingest.records_in()),
              static_cast<unsigned long long>(ingest.tuples_out()),
              static_cast<unsigned long long>(ingest.tuples_dropped()),
              static_cast<unsigned long long>(ingest.defer_rounds()));
  std::printf("ingest: %llu InsertBatch trains, %.0f sustained inserts/s (sim)\n",
              static_cast<unsigned long long>(ingest.batches_sent()),
              inserts_per_sec);
  std::printf("admission: admitted=%llu rejected=%llu "
              "(quota=%llu cost=%llu overload=%llu)\n",
              static_cast<unsigned long long>(qs.admitted_total()),
              static_cast<unsigned long long>(qs.rejected_total()),
              static_cast<unsigned long long>(
                  sm.counter("frontend.query.rejected_quota").value()),
              static_cast<unsigned long long>(
                  sm.counter("frontend.query.rejected_cost").value()),
              static_cast<unsigned long long>(
                  sm.counter("frontend.query.rejected_overload").value()));
  std::printf("queries: completed=%llu (%.1f/s sim), deadline cancels=%llu, "
              "%llu tuples streamed\n\n",
              static_cast<unsigned long long>(qs.completed_total()),
              queries_per_sec,
              static_cast<unsigned long long>(qs.deadline_cancels()),
              static_cast<unsigned long long>(delivered_tuples));
  PrintLatencyRowHist("service latency", lat);
  PrintLatencyRowHist("admission wait",
                      sm.histogram("frontend.query.wait_ms"));

  sm.gauge("bench.fig21.inserts_per_sec_sim").Set(inserts_per_sec);
  sm.gauge("bench.fig21.queries_per_sec_sim").Set(queries_per_sec);
  sm.gauge("bench.fig21.admitted").Set(static_cast<double>(qs.admitted_total()));
  sm.gauge("bench.fig21.rejected").Set(static_cast<double>(qs.rejected_total()));
  sm.gauge("bench.fig21.deadline_cancels")
      .Set(static_cast<double>(qs.deadline_cancels()));
  sm.gauge("bench.fig21.query_p50_ms").Set(lat.Percentile(50));
  sm.gauge("bench.fig21.query_p99_ms").Set(lat.Percentile(99));
  sm.gauge("bench.fig21.ingest_dropped")
      .Set(static_cast<double>(ingest.tuples_dropped()));
  sm.gauge("bench.fig21.delivered_tuples")
      .Set(static_cast<double>(delivered_tuples));

  telemetry::RunMeta meta;
  meta.bench = "fig21_frontend";
  meta.seed = dopts.seed;
  meta.topology = "abilene_geant";
  meta.nodes = static_cast<int>(topo.size());
  meta.extra["duty_percent"] = std::to_string(duty);
  meta.extra["replay_seconds"] = std::to_string(drive_sec);
  meta.extra["clients"] = std::to_string(kClients);
  ExportBench(sm, meta);

  if (qs.admitted_total() == 0 || qs.rejected_total() == 0) {
    std::fprintf(stderr,
                 "FAIL: admission control never engaged (admitted=%llu "
                 "rejected=%llu)\n",
                 static_cast<unsigned long long>(qs.admitted_total()),
                 static_cast<unsigned long long>(qs.rejected_total()));
    return 1;
  }
  return 0;
}
