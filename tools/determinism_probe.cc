// Deterministic-replay probe: runs a fixed, fully-seeded fig07-style
// scenario — the 34-node Abilene+GEANT deployment, a two-minute trace slice
// of inserts, and a handful of range queries — with periodic invariant
// validation piggybacked on the event loop, then prints the final state
// digest on stdout as `state_digest <hex16>`. The closed-loop scenario also
// prints `result_digest <hex16>`, a digest of the QueryResults delivered to
// the client in delivery order (id, completeness, latency, every tuple):
// the output clients see, which the state digest does not cover. It
// includes a volley of concurrent queries run after the state digest is
// taken.
//
// tools/check_determinism.sh runs this binary repeatedly (across processes)
// and fails on any digest mismatch. The digest covers logical state only
// (overlay codes, stored tuples, pending events, version chains), never
// telemetry.
//
// Flags:
//   --threads=N     run the sharded parallel engine with N worker threads
//                   (default: the sequential engine)
//   --frontend      drive inserts and queries through the live front-end
//                   (src/frontend) instead of the closed-loop harness:
//                   streaming ingest with batching plus the admission-
//                   controlled query service with standing queries and
//                   deadline cancellations
// The script asserts that the flagless run and every --threads=N value print
// the SAME pinned digest (engine identity, and no regression of the
// historical replay digest), and that the --frontend digest matches its pin.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <vector>

#include "bench/common.h"
#include "frontend/frontend.h"

using namespace mind;
using namespace mind::bench;

namespace {

// Folds one delivered result into the result-stream digest.
void MixResult(const QueryResult& r, Fnv64* out) {
  out->Mix(r.query_id);
  out->Mix(static_cast<uint64_t>(r.complete));
  out->Mix(r.latency);
  out->Mix(static_cast<uint64_t>(r.tuples.size()));
  for (const Tuple& t : r.tuples) {
    out->Mix(static_cast<uint64_t>(t.origin));
    out->Mix(t.seq);
    for (Value v : t.point) out->Mix(v);
    for (Value v : t.extra) out->Mix(v);
  }
}

// Frontend-driven scenario: the same 34-node deployment, but the two-minute
// trace slice streams through the ingest pipeline (batched InsertBatch
// trains, drop/defer back-pressure) and the queries go through admission
// control — standing queries included, so version epochs and service
// deadlines are all on the digested path.
int RunFrontendScenario(MindNet& net, const Topology& topo) {
  FlowGeneratorOptions gopts;
  gopts.peak_flows_per_router_sec = 40;
  gopts.seed = 707;
  FlowGenerator gen(topo, gopts);
  auto source = std::make_unique<frontend::GeneratorTraceSource>(
      &gen, /*day=*/0, 39600.0, 39600.0 + 120.0);

  frontend::FrontendOptions fopts;
  fopts.ingest.batcher.batch_max_tuples = 8;
  fopts.ingest.batcher.queue_max_tuples = 64;
  fopts.query.max_inflight = 4;
  fopts.query.max_queue = 8;
  fopts.query.per_client_quota = 3;
  fopts.query.default_deadline = FromSeconds(10);
  frontend::Frontend fe(&net, std::move(source), fopts);

  const IndexDef def = MakeIndex1({});
  frontend::ClientId c0 = fe.queries().RegisterClient(0);
  frontend::ClientId c1 = fe.queries().RegisterClient(7);
  auto sink = [](const frontend::Delivery&) {};
  Rng srng(41);
  (void)fe.queries().AddStanding(c0, "index1_fanout",
                                 RandomMonitoringQuery(&srng, def, 39720),
                                 FromSeconds(20), sink);
  Rng qrng(99);
  for (int i = 0; i < 12; ++i) {
    Rect rect = RandomMonitoringQuery(&qrng, def, 39600 + 120);
    net.sim().events().Schedule(
        FromSeconds(5 + 9 * i), [&fe, c0, c1, i, rect, &sink] {
          (void)fe.queries().Submit(i % 2 ? c0 : c1, "index1_fanout", rect,
                                    sink, i % 3 == 0 ? FromMillis(50) : 0);
        });
  }

  fe.Start();
  net.sim().RunFor(FromSeconds(150));
  for (int i = 0; i < 40 && !fe.ingest().done(); ++i) {
    net.sim().RunFor(FromSeconds(5));
  }
  net.sim().RunFor(FromSeconds(30));
  if (!fe.ingest().source_status().ok()) {
    std::fprintf(stderr, "frontend trace error: %s\n",
                 fe.ingest().source_status().ToString().c_str());
    return 1;
  }

  Status st = net.ValidateInvariants(/*quiescent=*/true);
  if (!st.ok()) {
    std::fprintf(stderr, "final validation failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  std::printf("state_digest %s\n", DigestToHex(net.StateDigest()).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int threads = 0;
  bool use_frontend = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = std::atoi(argv[i] + 10);
    } else if (std::strcmp(argv[i], "--frontend") == 0) {
      use_frontend = true;
    } else {
      std::fprintf(stderr, "usage: %s [--threads=N] [--frontend]\n",
                   argv[0]);
      return 2;
    }
  }

  Topology topo = Topology::AbileneGeant();
  FlowGeneratorOptions gopts;
  gopts.peak_flows_per_router_sec = 40;
  gopts.seed = 707;
  FlowGenerator gen(topo, gopts);

  MindNetOptions mopts;
  mopts.sim.seed = 4242;
  mopts.sim.threads = threads;
  mopts.overlay.heartbeat_interval = FromSeconds(5);
  mopts.mind.replication = 1;
  mopts.positions = topo.Positions();
  MindNet net(topo.size(), mopts);
  // In validator builds this aborts the run on the first structural
  // violation; in Release it is a no-op and only the digest matters.
  net.EnablePeriodicValidation(FromSeconds(10));

  Status st = net.Build();
  if (!st.ok()) {
    std::fprintf(stderr, "overlay build failed: %s\n", st.ToString().c_str());
    return 1;
  }
  CreatePaperIndices(net);

  if (use_frontend) return RunFrontendScenario(net, topo);

  TraceDriveOptions topts;
  topts.day = 0;
  topts.t0_sec = 39600;
  topts.t1_sec = 39600 + 120;
  DriveTrace(net, gen, topts);

  Rng qrng(99);
  const IndexDef def = MakeIndex1({});
  Fnv64 results;  // delivered results, in delivery order
  for (size_t i = 0; i < 5; ++i) {
    Rect rect = RandomMonitoringQuery(&qrng, def, 39600 + 120);
    std::optional<QueryResult> r =
        RunQueryBlocking(net, i % net.size(), "index1_fanout", rect);
    results.Mix(static_cast<uint64_t>(r.has_value()));
    if (r) MixResult(*r, &results);
  }
  net.sim().RunFor(FromSeconds(30));

  st = net.ValidateInvariants(/*quiescent=*/true);
  if (!st.ok()) {
    std::fprintf(stderr, "final validation failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  const uint64_t final_digest = net.StateDigest();

  // A volley after the pinned digest (so it cannot move it): every node
  // queries at one instant, so completions on different shards share
  // parallel windows, and shards that run ahead complete queries in one
  // window that are later than others completed in the next. The delivery
  // order would show either if callbacks ran on the shard workers or in
  // window order.
  std::vector<QueryResult> volley;
  for (size_t i = 0; i < net.size(); ++i) {
    Rect rect = RandomMonitoringQuery(&qrng, def, 39600 + 120);
    (void)net.node(i).Query(
        "index1_fanout", rect,
        [&volley](const QueryResult& r) { volley.push_back(r); });
  }
  net.sim().RunFor(FromSeconds(60));
  results.Mix(static_cast<uint64_t>(volley.size()));
  for (const QueryResult& r : volley) MixResult(r, &results);

  std::printf("state_digest %s\n", DigestToHex(final_digest).c_str());
  std::printf("result_digest %s\n", DigestToHex(results.value()).c_str());
  return 0;
}
