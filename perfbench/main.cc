// The repository benchmark: runs one named workload against the
// library's public API, checks its outputs, and prints its metrics.
//
//   mind_perfbench --workload <fleet1k|churn48|backbone_live> --seed <n>
//                    --seconds <s> --trace <0|1> [--spans-out <file.csv>]
//
// A run repeats *rounds* until --seconds of wall time have passed. A round
// builds a fresh deployment from the seed (setup), then drives its
// pre-scheduled open-loop arrivals through the simulator (drive). Every
// round of one run uses the same seed, so every round must reproduce the
// same StateDigest and the same simulated-time metrics — a mismatch is an
// output-check failure. Wall-clock metrics are medians over the rounds,
// normalised to a nominal host speed by a reference workload timed at the
// edges of every phase (reference.h).
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
// traced rounds and prints the per-layer metrics: the benchmark's own spans
// around each call it makes into the library, plus counts read from the
// simulator's MetricsRegistry. See perfbench/README.md.
//
// The last line of stdout is one JSON object:
//   {"correct": true, "attempted": N, "failed": N, "metrics": {...}}
// Any failed output check prints a diagnostic to stderr and exits 1 without
// printing that line.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "frontend/frontend.h"
#include "mind/mind_net.h"
#include "space/histogram.h"
#include "traffic/aggregator.h"
#include "traffic/flow_generator.h"
#include "traffic/indices.h"
#include "traffic/topology.h"
#include "util/arena.h"
#include "util/rng.h"
#include "reference.h"
#include "spans.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace mind;

namespace perfbench {
namespace {

// The configuration under test is fixed here, not read from the
// environment: sequential engine, the default backend, telemetry on.
constexpr IndexBackendKind kBackend = IndexBackendKind::kSortedRuns;
constexpr const char* kPinnedEnv[] = {"MIND_BACKEND", "MIND_BENCH_DUTY",
                                      "MIND_QUERY_DEBUG"};

// The seed-derived stream for each workload's generated tuples and
// queries. The simulator's own seed is part of the deployment under test,
// not an input: each workload keeps the one of the figure bench it is
// modelled on. So does backbone_live's synthetic trace, which stands for a
// recorded trace replayed the same way every run (see README.md).
enum Stream : uint64_t { kWorkloadRng = 1 };
uint64_t SubSeed(uint64_t seed, Stream s) { return CounterMix(seed, s, 0); }

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The reference's wall time on the host the bounds were set on, unloaded
/// (Release, 4-vCPU Intel Xeon VM). Normalised times read as seconds on that
/// host: a phase that took `t` s while the reference took `ref` s reads
/// t * kNominalReferenceS / ref.
constexpr double kNominalReferenceS = 0.22;

/// Wall seconds of one run of the host-speed reference (reference.h).
double TimeReference() {
  static Reference reference;
  static const uint64_t checksum = reference.Run();  // warm-up, untimed
  const int64_t t0 = NowNs();
  const uint64_t sum = reference.Run();
  const double s = Seconds(t0, NowNs());
  if (sum != checksum) {
    std::fprintf(stderr, "perfbench: host-speed reference checksum changed\n");
    std::exit(1);
  }
  return s;
}

// ------------------------------------------------------------ one round

/// Everything one round (setup + drive) produced.
struct Round {
  double setup_s = 0;
  double drive_s = 0;
  /// Wall seconds of the host-speed reference before the setup, between
  /// setup and drive, and after the drive.
  double ref_start_s = 0;
  double ref_mid_s = 0;
  double ref_end_s = 0;
  int64_t drive_t0_ns = 0;
  int64_t drive_t1_ns = 0;
  uint64_t events = 0;     // simulator events fired during the drive
  uint64_t ops = 0;        // committed inserts + answered queries (drive)
  uint64_t attempted = 0;  // insert tuples offered + queries submitted
  uint64_t failed = 0;     // insert errors, dropped tuples, failed queries
  uint64_t queries_submitted = 0;
  uint64_t queries_refused = 0;
  double pool_peak_mb = 0;
  uint64_t digest = 0;
  /// Simulated-time metrics and registry counts: pure functions of the
  /// seed, so every round of a run must reproduce them exactly.
  std::map<std::string, double> sim;
  /// Span-derived wall-clock numbers (traced rounds only).
  std::map<std::string, double> spans;
  /// First failed output check; empty when the round is correct.
  std::string error;

  /// Setup and drive wall times scaled to the nominal host speed: each
  /// phase is divided by the mean of the references at its two edges.
  double setup_norm_s() const;
  double drive_norm_s() const;
};

/// State shared by a round's scheduled calls. Lives on RunRound's stack;
/// the deployment (and every pending closure) is destroyed before it.
struct Ctx {
  SpanLog* log = nullptr;  // null in untraced rounds
  MindNet* net = nullptr;
  uint64_t next_op = 0;
  uint64_t inserts_offered = 0;  // tuples handed to Insert/InsertBatch
  uint64_t inserts_accepted = 0;
  uint64_t queries_issued = 0;
  uint64_t queries_answered = 0;  // callbacks with complete == true
  /// Flat copy of every offered point, for brute-force verification.
  std::vector<Value> offered_points;
};

const telemetry::SimHistogram* FindHist(const telemetry::MetricsRegistry& m,
                                        const char* name) {
  const telemetry::SimHistogram* h = m.FindHistogram(name);
  return h != nullptr && h->count() > 0 ? h : nullptr;
}

double HistP(const telemetry::MetricsRegistry& m, const char* name, double p) {
  const telemetry::SimHistogram* h = FindHist(m, name);
  return h != nullptr ? h->Percentile(p) : 0;
}

double HistCount(const telemetry::MetricsRegistry& m, const char* name) {
  const telemetry::SimHistogram* h = FindHist(m, name);
  return h != nullptr ? static_cast<double>(h->count()) : 0;
}

double HistSum(const telemetry::MetricsRegistry& m, const char* name) {
  const telemetry::SimHistogram* h = FindHist(m, name);
  return h != nullptr ? h->sum() : 0;
}

double Count(const telemetry::MetricsRegistry& m, const char* name) {
  const telemetry::Counter* c = m.FindCounter(name);
  return c != nullptr ? static_cast<double>(c->value()) : 0;
}

/// Drive-phase registry numbers shared by every workload. The registry was
/// reset when the drive began, so these cover the drive only.
void ReadRegistry(const telemetry::MetricsRegistry& m, const char* query_hist,
                  Round* r) {
  auto& s = r->sim;
  const double ops = static_cast<double>(r->ops);
  s["insert_p50_ms"] = HistP(m, "mind.insert.latency_ms", 50);
  s["insert_p99_ms"] = HistP(m, "mind.insert.latency_ms", 99);
  s["insert_n"] = HistCount(m, "mind.insert.latency_ms");
  s["query_p50_ms"] = HistP(m, query_hist, 50);
  s["query_p99_ms"] = HistP(m, query_hist, 99);
  s["query_n"] = HistCount(m, query_hist);
  s["sim.events"] = static_cast<double>(r->events);
  s["sim.net.msgs_per_op"] = Ratio(Count(m, "sim.net.messages"), ops);
  s["sim.net.queue_wait_p99_ms"] = HistP(m, "sim.net.queue_wait_ms", 99);
  s["overlay.forwarded_per_op"] = Ratio(Count(m, "overlay.route.forwarded"), ops);
  const double hits = Count(m, "overlay.route.cache_hits");
  const double lookups = hits + Count(m, "overlay.route.cache_misses");
  s["overlay.route_cache_hit_rate"] = Ratio(hits, lookups);
  s["overlay.route_cache_lookups"] = lookups;
  s["mind.insert_hops_p50"] = HistP(m, "mind.insert.hops", 50);
  s["mind.dac_query_wait_p99_ms"] = HistP(m, "mind.dac.query_wait_ms", 99);
  s["mind.replies_per_query"] =
      Ratio(Count(m, "mind.query.replies"), Count(m, "mind.query.count"));
  s["storage.rows_examined_per_returned"] =
      Ratio(HistSum(m, "storage.scan.rows_examined"),
            HistSum(m, "storage.scan.rows_returned"));
  const double cover_hits = Count(m, "storage.cover_cache.hits");
  const double cover_lookups = cover_hits + Count(m, "storage.cover_cache.misses");
  s["storage.cover_cache_hit_rate"] = Ratio(cover_hits, cover_lookups);
  s["storage.cover_cache_lookups"] = cover_lookups;
  s["frontend.wait_p99_ms"] = HistP(m, "frontend.query.wait_ms", 99);
  const double submitted = Count(m, "frontend.query.submitted");
  s["frontend.admit_frac"] = Ratio(Count(m, "frontend.query.admitted"), submitted);
}

/// Runs [now, end) in one-second `sim.run` slices; returns events fired.
uint64_t RunSlices(Ctx* ctx, SimTime end) {
  uint64_t fired = 0;
  Simulator& sim = ctx->net->sim();
  while (sim.now() < end) {
    const SimTime to = std::min(end, sim.now() + FromSeconds(1));
    ScopedSpan span(ctx->log, "sim.run");
    fired += sim.RunUntil(to);
  }
  return fired;
}

std::unique_ptr<MindNet> BuildNet(Ctx* ctx, size_t nodes, uint64_t sim_seed,
                                  std::vector<GeoPoint> positions,
                                  SimTime heartbeat, Round* r) {
  MindNetOptions o;
  o.sim.seed = sim_seed;
  o.sim.threads = 0;  // the sequential engine
  o.overlay.heartbeat_interval = heartbeat;
  o.mind.replication = 1;
  o.mind.store_backend = kBackend;
  o.positions = std::move(positions);
  auto net = std::make_unique<MindNet>(nodes, o);
  ctx->net = net.get();
  const Status st = [&] {
    ScopedSpan span(ctx->log, "overlay.build");
    return net->Build();
  }();
  if (!st.ok()) r->error = "overlay build failed: " + st.ToString();
  return net;
}

void CreateIndex(Ctx* ctx, const IndexDef& def, Round* r) {
  const Status st = [&] {
    ScopedSpan span(ctx->log, "mind.create_index");
    return ctx->net->CreateIndexEverywhere(
        def, std::make_shared<CutTree>(CutTree::Even(def.schema)), 1, 0);
  }();
  if (!st.ok() && r->error.empty()) {
    r->error = "create index " + def.name + " failed: " + st.ToString();
  }
}

void NoteOffered(Ctx* ctx, const Tuple& t) {
  ++ctx->inserts_offered;
  ctx->offered_points.insert(ctx->offered_points.end(), t.point.begin(),
                             t.point.end());
}

void ScheduleInsert(Ctx* ctx, SimTime at, size_t node, const std::string* index,
                    Tuple tuple) {
  NoteOffered(ctx, tuple);
  const uint64_t op = ++ctx->next_op;
  ctx->net->sim().events().ScheduleAt(at, [ctx, node, index, op, tuple] {
    const Status st = [&] {
      ScopedSpan span(ctx->log, "mind.insert", op);
      return ctx->net->node(node).Insert(*index, tuple);
    }();
    if (st.ok()) ++ctx->inserts_accepted;
  });
}

void ScheduleBatch(Ctx* ctx, SimTime at, size_t node, const std::string* index,
                   std::vector<Tuple> batch) {
  for (const Tuple& t : batch) NoteOffered(ctx, t);
  const uint64_t op = ++ctx->next_op;
  ctx->net->sim().events().ScheduleAt(
      at, [ctx, node, index, op, batch = std::move(batch)]() mutable {
        const size_t n = batch.size();
        const Status st = [&] {
          ScopedSpan span(ctx->log, "mind.insert_batch", op);
          return ctx->net->node(node).InsertBatch(*index, std::move(batch));
        }();
        if (st.ok()) ctx->inserts_accepted += n;
      });
}

void ScheduleQuery(Ctx* ctx, SimTime at, size_t node, const std::string* index,
                   Rect rect) {
  const uint64_t op = ++ctx->next_op;
  ctx->net->sim().events().ScheduleAt(at, [ctx, node, index, op, rect] {
    ++ctx->queries_issued;
    // A query that errors or never completes is simply never answered.
    ScopedSpan span(ctx->log, "mind.query", op);
    (void)ctx->net->node(node).Query(*index, rect, [ctx](const QueryResult& q) {
      if (q.complete) ++ctx->queries_answered;
    });
  });
}

/// A monitoring query in the paper's style (§4.1): uniform ranges on the
/// non-time attributes, a 5-minute window ending at `t_end` on time.
Rect MonitoringQuery(Rng* rng, const Schema& schema, int time_attr,
                     uint64_t t_end) {
  std::vector<Interval> ivs;
  for (int d = 0; d < schema.dims(); ++d) {
    const AttributeDef& a = schema.attr(d);
    if (d == time_attr) {
      ivs.push_back({t_end > 300 ? t_end - 300 : 0, t_end});
    } else {
      const Value x = rng->UniformRange(a.min, a.max);
      const Value y = rng->UniformRange(a.min, a.max);
      ivs.push_back({std::min(x, y), std::max(x, y)});
    }
  }
  return Rect(std::move(ivs));
}

Tuple RandomTuple(Rng* rng, const Schema& schema, size_t origin, uint64_t seq) {
  Tuple t;
  for (int d = 0; d < schema.dims(); ++d) {
    t.point.push_back(rng->UniformRange(schema.attr(d).min, schema.attr(d).max));
  }
  t.origin = static_cast<int>(origin);
  t.seq = seq;
  return t;
}

/// After the drive: issues `k` queries one at a time and compares each
/// result size with a brute-force count over every offered tuple (the
/// caller has checked that every offered tuple was accepted).
void VerifyQueries(Ctx* ctx, const std::string& index, const Schema& schema,
                   int time_attr, Rng* rng, int k, Round* r) {
  const size_t dims = static_cast<size_t>(schema.dims());
  for (int i = 0; i < k && r->error.empty(); ++i) {
    const uint64_t t_end = rng->UniformRange(300, schema.attr(time_attr).max);
    const Rect rect = MonitoringQuery(rng, schema, time_attr, t_end);
    size_t expected = 0;
    Point p(dims);
    for (size_t off = 0; off < ctx->offered_points.size(); off += dims) {
      std::copy_n(ctx->offered_points.begin() + static_cast<long>(off), dims,
                  p.begin());
      if (rect.Contains(p)) ++expected;
    }
    std::optional<QueryResult> got;
    const size_t from = rng->Uniform(ctx->net->size());
    Result<uint64_t> qid = ctx->net->node(from).Query(
        index, rect, [&got](const QueryResult& q) { got = q; });
    const SimTime deadline = ctx->net->sim().now() + FromSeconds(120);
    while (qid.ok() && !got && ctx->net->sim().now() < deadline) {
      ctx->net->sim().RunFor(FromMillis(100));
    }
    if (!got || !got->complete || got->tuples.size() != expected) {
      r->error = "verification query " + std::to_string(i) + " returned " +
                 (got ? std::to_string(got->tuples.size()) : "nothing") +
                 " tuples, brute force expects " + std::to_string(expected);
    }
  }
}

/// Marks the end of setup: resets the registry so every count and
/// histogram covers the drive only, times the reference between the two
/// phases, and starts the drive clock.
void BeginDrive(Ctx* ctx, int64_t setup_t0, Round* r) {
  ctx->net->sim().metrics().Reset();
  r->setup_s = Seconds(setup_t0, NowNs());
  r->ref_mid_s = TimeReference();
  r->drive_t0_ns = NowNs();
}

void EndDrive(Round* r) {
  r->drive_t1_ns = NowNs();
  r->drive_s = Seconds(r->drive_t0_ns, r->drive_t1_ns);
}

// ------------------------------------------------------------ fleet1k / churn48

/// The two flat-overlay workloads: one index, random uniform tuples,
/// `drive_sec` seconds of arrivals pre-scheduled by `arrivals` (called for
/// each second `t` of the drive, starting at sim time `at`), then
/// `settle_sec` of quiet sim time.
struct FlatSpec {
  uint64_t sim_seed;
  size_t nodes;
  Schema schema;
  size_t preload_per_node;  // 0 = no preload
  int drive_sec;
  int settle_sec;
  std::function<void(Ctx*, Rng*, const std::string*, const Schema&, int t,
                     SimTime at, uint64_t* seq)>
      arrivals;
};

void RunFlat(const FlatSpec& spec, uint64_t seed, SpanLog* log, Round* r) {
  const int64_t setup_t0 = NowNs();
  static const std::string kIndex = "bench";
  Ctx ctx;
  ctx.log = log;
  Rng rng(SubSeed(seed, kWorkloadRng));
  auto net = BuildNet(&ctx, spec.nodes, spec.sim_seed, {}, /*heartbeat=*/0, r);
  if (!r->error.empty()) return;
  IndexDef def;
  def.name = kIndex;
  def.schema = spec.schema;
  def.time_attr = 1;
  CreateIndex(&ctx, def, r);
  if (!r->error.empty()) return;
  RunSlices(&ctx, net->sim().now() + FromSeconds(10));  // overlay settles

  uint64_t seq = 0;
  if (spec.preload_per_node > 0) {
    // Every node ships 64-tuple trains on a 0.5 s cadence until its share
    // is in (fig19's preload).
    const size_t kTrain = 64;
    const SimTime t0 = net->sim().now();
    for (size_t n = 0; n < spec.nodes; ++n) {
      for (size_t done = 0; done < spec.preload_per_node; done += kTrain) {
        std::vector<Tuple> batch;
        for (size_t k = 0; k < std::min(kTrain, spec.preload_per_node - done); ++k) {
          batch.push_back(RandomTuple(&rng, spec.schema, n, ++seq));
        }
        ScheduleBatch(&ctx, t0 + FromSeconds(0.5 * static_cast<double>(done / kTrain)),
                      n, &kIndex, std::move(batch));
      }
    }
    const double window = 0.5 * static_cast<double>(spec.preload_per_node / kTrain + 2);
    RunSlices(&ctx, t0 + FromSeconds(window + 30));
  }
  const double setup_compaction =
      Count(net->sim().metrics(), "storage.compaction.rows");
  const uint64_t setup_offered = ctx.inserts_offered;
  const uint64_t setup_accepted = ctx.inserts_accepted;
  const size_t setup_committed = net->stored().size();

  const SimTime drive_t0 = net->sim().now();
  for (int t = 0; t < spec.drive_sec; ++t) {
    spec.arrivals(&ctx, &rng, &kIndex, spec.schema, t, drive_t0 + FromSeconds(t), &seq);
  }

  BeginDrive(&ctx, setup_t0, r);
  r->events = RunSlices(&ctx, drive_t0 + FromSeconds(spec.drive_sec + spec.settle_sec));
  EndDrive(r);

  const auto& m = net->sim().metrics();
  const uint64_t committed = net->stored().size();
  const uint64_t drive_offered = ctx.inserts_offered - setup_offered;
  const uint64_t drive_accepted = ctx.inserts_accepted - setup_accepted;
  r->ops = (committed - setup_committed) + ctx.queries_answered;
  r->attempted = drive_offered + ctx.queries_issued;
  r->failed = (drive_offered - drive_accepted) + (ctx.queries_issued - ctx.queries_answered);
  r->queries_submitted = ctx.queries_issued;
  ReadRegistry(m, "mind.query.latency_ms", r);
  r->sim["storage.compaction_rows_per_insert"] =
      Ratio(setup_compaction + Count(m, "storage.compaction.rows"),
            static_cast<double>(committed));
  r->digest = net->StateDigest();

  if (ctx.queries_answered != ctx.queries_issued) {
    r->error = std::to_string(ctx.queries_issued - ctx.queries_answered) + " of " +
               std::to_string(ctx.queries_issued) + " queries unanswered or incomplete";
  } else if (ctx.inserts_accepted != ctx.inserts_offered) {
    r->error = std::to_string(ctx.inserts_offered - ctx.inserts_accepted) +
               " inserts rejected";
  } else if (committed != ctx.inserts_accepted) {
    r->error = "committed tuples " + std::to_string(committed) +
               " != accepted inserts " + std::to_string(ctx.inserts_accepted);
  } else {
    VerifyQueries(&ctx, kIndex, spec.schema, def.time_attr, &rng, 4, r);
  }
}

FlatSpec Fleet1k() {
  FlatSpec s;
  s.sim_seed = 0x18181818;
  s.nodes = 1024;
  s.schema = Schema({{"dst", 0, 0xFFFFFFFFull}, {"ts", 0, 86400 * 14}, {"v", 0, 1 << 20}});
  s.preload_per_node = 0;
  s.drive_sec = 120;
  s.settle_sec = 60;
  s.arrivals = [](Ctx* ctx, Rng* rng, const std::string* index,
                  const Schema& schema, int t, SimTime at, uint64_t* seq) {
    const size_t nodes = ctx->net->size();
    // Singles: every 4th node inserts one tuple per second.
    for (size_t n = 0; n < nodes; n += 4) {
      ScheduleInsert(ctx, at, n, index, RandomTuple(rng, schema, n, ++*seq));
    }
    // Trains: 32 origins ship 16 tuples every 4 s.
    if (t % 4 == 0) {
      for (size_t n = 1; n < nodes; n += 32) {
        std::vector<Tuple> batch;
        for (int k = 0; k < 16; ++k) batch.push_back(RandomTuple(rng, schema, n, ++*seq));
        ScheduleBatch(ctx, at, n, index, std::move(batch));
      }
    }
    // 16 monitoring queries per second from random nodes.
    for (int q = 0; q < 16; ++q) {
      const size_t from = rng->Uniform(nodes);
      ScheduleQuery(ctx, at, from, index, MonitoringQuery(rng, schema, 1, 86400));
    }
  };
  return s;
}

FlatSpec Churn48() {
  FlatSpec s;
  s.sim_seed = 0x19f19f;
  s.nodes = 48;
  s.schema = Schema({{"dst", 0, 0xFFFFFFFFull}, {"ts", 0, 86400}, {"v", 0, 1 << 20}});
  s.preload_per_node = 6000;
  s.drive_sec = 120;
  s.settle_sec = 30;
  s.arrivals = [](Ctx* ctx, Rng* rng, const std::string* index,
                  const Schema& schema, int /*t*/, SimTime at, uint64_t* seq) {
    const size_t nodes = ctx->net->size();
    // Every node inserts one tuple per second, 48 queries per second;
    // staggered so each insert lands between reads of the same stores.
    for (size_t n = 0; n < nodes; ++n) {
      ScheduleInsert(ctx, at + FromMillis(static_cast<double>(n)), n, index,
                     RandomTuple(rng, schema, n, ++*seq));
    }
    for (size_t q = 0; q < nodes; ++q) {
      const size_t from = rng->Uniform(nodes);
      const uint64_t t_end = rng->UniformRange(300, 86400);
      ScheduleQuery(ctx, at + FromMillis(10.0 * static_cast<double>(q)), from, index,
                    MonitoringQuery(rng, schema, 1, t_end));
    }
  };
  return s;
}

// ------------------------------------------------------------ backbone_live

constexpr double kTraceT0 = 39600;          // 11:00, the busy hour
constexpr double kTraceSec = 300;           // replayed trace per round
constexpr double kSampleSec = 120;          // previous day's cut sample
constexpr double kPeakFlowsPerRouter = 400;

/// Points of the previous day's tuples for each paper index, from one
/// generated window (the offline input of the balanced cuts).
std::array<std::vector<Point>, 3> SampleDay0(FlowGenerator* gen) {
  std::array<std::vector<Point>, 3> points;
  const AggregatorOptions aopts;
  uint64_t seq = 0;
  for (double t = kTraceT0; t < kTraceT0 + kSampleSec; t += aopts.window_sec) {
    Aggregator agg(aopts);
    gen->Generate(0, t, std::min(t + aopts.window_sec, kTraceT0 + kSampleSec),
                  [&agg](const FlowRecord& f) { agg.Add(f); });
    for (const AggregateRecord& rec : agg.DrainAll()) {
      if (auto t1 = ToIndex1Tuple(rec, ++seq)) points[0].push_back(t1->point);
      if (auto t2 = ToIndex2Tuple(rec, ++seq)) points[1].push_back(t2->point);
      if (auto t3 = ToIndex3Tuple(rec, ++seq)) points[2].push_back(t3->point);
    }
  }
  return points;
}

Rect FullScan(const Schema& schema) {
  std::vector<Interval> ivs;
  for (int d = 0; d < schema.dims(); ++d) {
    ivs.push_back({schema.attr(d).min, schema.attr(d).max});
  }
  return Rect(std::move(ivs));
}

void RunBackbone(uint64_t seed, SpanLog* log, Round* r) {
  using frontend::Delivery;
  using frontend::QueryService;
  const int64_t setup_t0 = NowNs();
  Ctx ctx;
  ctx.log = log;
  Rng rng(SubSeed(seed, kWorkloadRng));
  const Topology topo = Topology::AbileneGeant();
  auto net = BuildNet(&ctx, topo.size(), /*sim_seed=*/0x21f0, topo.Positions(),
                      FromSeconds(5), r);
  if (!r->error.empty()) return;
  const IndexDef defs[3] = {MakeIndex1(), MakeIndex2(), MakeIndex3()};
  for (const IndexDef& def : defs) CreateIndex(&ctx, def, r);
  if (!r->error.empty()) return;

  FlowGeneratorOptions gopts;
  gopts.peak_flows_per_router_sec = kPeakFlowsPerRouter;
  gopts.seed = 0x21f1;  // fig21's trace
  FlowGenerator gen(topo, gopts);

  // Balanced cuts from the previous day's sample, shifted one day forward
  // so they sit where today's timestamps fall (§3.7), installed as v2.
  auto samples = [&] {
    ScopedSpan span(log, "traffic.sample");
    return SampleDay0(&gen);
  }();
  for (int i = 0; i < 3; ++i) {
    Result<CutTree> cuts = [&] {
      ScopedSpan span(log, "space.balanced_cuts");
      Histogram h(defs[i].schema, 256);
      for (Point& p : samples[static_cast<size_t>(i)]) {
        p[static_cast<size_t>(defs[i].time_attr)] += 86400;
        h.Add(p);
      }
      return CutTree::Balanced(defs[i].schema, h, 12);
    }();
    if (!cuts.ok()) {
      r->error = "balanced cuts failed: " + cuts.status().ToString();
      return;
    }
    const Status st = [&] {
      ScopedSpan span(log, "mind.install_cuts");
      return net->InstallCutsEverywhere(
          defs[i].name, 2, std::make_shared<CutTree>(std::move(cuts).value()), 0);
    }();
    if (!st.ok()) {
      r->error = "install cuts failed: " + st.ToString();
      return;
    }
  }

  // Result sink; declared before the front-end, which holds copies of it.
  uint64_t finals = 0, finals_complete = 0, submit_errors = 0;
  auto sink = [&finals, &finals_complete](const Delivery& d) {
    if (!d.done) return;
    ++finals;
    if (d.complete) ++finals_complete;
  };
  frontend::FrontendOptions fopts;
  fopts.ingest.batcher.batch_max_tuples = 32;
  fopts.ingest.batcher.flush_deadline = FromMillis(500);
  fopts.ingest.batcher.queue_max_tuples = 512;
  fopts.query.max_inflight = 16;
  fopts.query.max_queue = 24;
  fopts.query.per_client_quota = 6;
  fopts.query.max_cost_tuples = 15;  // whole-domain scans are refused
  fopts.query.default_deadline = FromSeconds(20);
  auto source = std::make_unique<TimedTraceSource>(
      std::make_unique<frontend::GeneratorTraceSource>(&gen, /*day=*/1, kTraceT0,
                                                       kTraceT0 + kTraceSec),
      log);
  frontend::Frontend fe(net.get(), std::move(source), fopts);
  QueryService& qs = fe.queries();

  // Clients: one per Abilene router (the US half of the deployment).
  const size_t kClients = 11;
  std::vector<frontend::ClientId> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.push_back(qs.RegisterClient(static_cast<NodeId>(c)));
  }
  const double day1 = 86400;
  for (int i = 0; i < 3; ++i) {
    Rect rect = MonitoringQuery(&rng, defs[i].schema, defs[i].time_attr,
                                static_cast<uint64_t>(day1 + kTraceT0 + kTraceSec));
    auto sid = qs.AddStanding(clients[static_cast<size_t>(i)], defs[i].name, rect,
                              FromSeconds(15), sink);
    if (!sid.ok()) {
      r->error = "standing query failed: " + sid.status().ToString();
      return;
    }
  }

  // On-demand load, pre-scheduled over the replay (fig21's mix): a steady
  // per-client stream, quota bursts, full-quota volleys, and whole-domain
  // scans that the cost gate refuses.
  const SimTime t0 = net->sim().now();
  auto submit = [&](SimTime at, size_t client, int which, Rect rect, int repeat) {
    const uint64_t op = ++ctx.next_op;
    net->sim().events().ScheduleAt(at, [&, client, which, rect, repeat, op] {
      for (int k = 0; k < repeat; ++k) {
        const Result<QueryService::SubmitOutcome> out = [&] {
          ScopedSpan span(log, "frontend.submit", op);
          return qs.Submit(clients[client], defs[which].name, rect, sink);
        }();
        if (!out.ok()) ++submit_errors;
      }
    });
  };
  for (double t = 1; t < kTraceSec; t += 1) {
    const auto tick = static_cast<uint64_t>(t);
    const auto t_end = static_cast<uint64_t>(day1 + kTraceT0 + t);
    for (size_t c = 0; c < kClients; ++c) {
      const int which = static_cast<int>((tick + c) % 3);
      submit(t0 + FromSeconds(t + 0.037 * static_cast<double>(c)), c, which,
             MonitoringQuery(&rng, defs[which].schema, 1, t_end), 1);
    }
    if (tick % 20 == 0) {
      submit(t0 + FromSeconds(t + 0.5), (tick / 20) % kClients, 0,
             MonitoringQuery(&rng, defs[0].schema, 1, t_end), 16);
    }
    if (tick % 20 == 10) {
      for (size_t c = 0; c < kClients; ++c) {
        submit(t0 + FromSeconds(t + 0.6 + 0.001 * static_cast<double>(c)), c, 1,
               MonitoringQuery(&rng, defs[1].schema, 1, t_end),
               static_cast<int>(fopts.query.per_client_quota));
      }
    }
    if (tick % 15 == 0) {
      const int which = static_cast<int>((tick / 15) % 3);
      submit(t0 + FromSeconds(t + 0.25), static_cast<size_t>(which + 5) % kClients,
             which, FullScan(defs[which].schema), 1);
    }
  }

  const size_t setup_committed = net->stored().size();
  const double setup_compaction =
      Count(net->sim().metrics(), "storage.compaction.rows");
  BeginDrive(&ctx, setup_t0, r);
  fe.Start();
  r->events = RunSlices(&ctx, t0 + FromSeconds(kTraceSec));
  // Drain: the replay tail, in-flight queries and deliveries.
  for (int i = 0; i < 40 && !fe.ingest().done(); ++i) {
    r->events += RunSlices(&ctx, net->sim().now() + FromSeconds(5));
  }
  r->events += RunSlices(&ctx, net->sim().now() + FromSeconds(45));
  EndDrive(r);

  const auto& m = net->sim().metrics();
  const auto& ingest = fe.ingest();
  const uint64_t committed = net->stored().size() - setup_committed;
  const uint64_t accepted = ingest.tuples_out() - ingest.tuples_dropped();
  const uint64_t submitted = static_cast<uint64_t>(Count(m, "frontend.query.submitted"));
  r->ops = committed + finals_complete;
  r->attempted = ingest.tuples_out() + submitted;
  r->failed = ingest.tuples_dropped() + (finals - finals_complete) + submit_errors;
  r->queries_submitted = submitted;
  r->queries_refused = qs.rejected_total();
  ReadRegistry(m, "frontend.query.latency_ms", r);
  r->sim["storage.compaction_rows_per_insert"] =
      Ratio(setup_compaction + Count(m, "storage.compaction.rows"),
            static_cast<double>(committed));
  r->sim["traffic.records_per_tuple"] =
      Ratio(static_cast<double>(ingest.records_in()),
            static_cast<double>(ingest.tuples_out()));
  r->digest = net->StateDigest();

  if (!ingest.done()) {
    r->error = "ingest did not drain";
  } else if (committed != accepted) {
    r->error = "committed tuples " + std::to_string(committed) +
               " != accepted ingest tuples " + std::to_string(accepted);
  } else if (qs.admitted_total() == 0 || qs.rejected_total() == 0) {
    r->error = "admission control never engaged (admitted " +
               std::to_string(qs.admitted_total()) + ", rejected " +
               std::to_string(qs.rejected_total()) + ")";
  } else if (finals + qs.inflight() + qs.queued() != qs.admitted_total()) {
    r->error = "admitted queries lost: " + std::to_string(qs.admitted_total()) +
               " admitted, " + std::to_string(finals) + " finished";
  }
}

// ------------------------------------------------------------ main

const char* const kWorkloads[] = {"fleet1k", "churn48", "backbone_live"};

double Round::setup_norm_s() const {
  return setup_s * Ratio(2 * kNominalReferenceS, ref_start_s + ref_mid_s);
}

double Round::drive_norm_s() const {
  return drive_s * Ratio(2 * kNominalReferenceS, ref_mid_s + ref_end_s);
}

/// `ref_start_s` is the reference timed just before the round, which is
/// the previous round's closing one.
Round RunRound(const std::string& workload, uint64_t seed, SpanLog* log,
               double ref_start_s) {
  Round r;
  pool::ResetPeak();
  r.ref_start_s = ref_start_s;
  if (workload == "fleet1k") {
    RunFlat(Fleet1k(), seed, log, &r);
  } else if (workload == "churn48") {
    RunFlat(Churn48(), seed, log, &r);
  } else {
    RunBackbone(seed, log, &r);
  }
  r.ref_end_s = TimeReference();
  r.pool_peak_mb = static_cast<double>(pool::GatherStats().peak_bytes) / 1e6;
  return r;
}

/// Wall-clock per-layer numbers of one traced round: setup spans timed as a
/// whole, drive spans as per-call means and per-layer self-time shares of
/// the drive (`share.<layer>`), and the share of the drive the spans cover.
std::map<std::string, double> SpanMetrics(const SpanLog& log, const Round& r) {
  const auto setup = log.Summarize(0, r.drive_t0_ns);
  const auto drive = log.Summarize(r.drive_t0_ns, r.drive_t1_ns);
  auto total = [](const std::map<std::string, SpanLog::NameTotals>& sum,
                  const char* name) {
    auto it = sum.find(name);
    return it == sum.end() ? 0.0 : it->second.total_s;
  };
  auto per_call_us = [&drive](std::initializer_list<const char*> names) {
    double t = 0, n = 0;
    for (const char* name : names) {
      auto it = drive.find(name);
      if (it == drive.end()) continue;
      t += it->second.total_s;
      n += static_cast<double>(it->second.count);
    }
    return Ratio(t * 1e6, n);
  };
  std::map<std::string, double> m;
  m["overlay.build_s"] = total(setup, "overlay.build");
  m["space.balanced_cuts_s"] = total(setup, "space.balanced_cuts");
  m["traffic.source_s"] = total(drive, "traffic.source");
  m["mind.insert_call_us"] = per_call_us({"mind.insert", "mind.insert_batch"});
  m["mind.query_call_us"] = per_call_us({"mind.query"});
  m["frontend.submit_us"] = per_call_us({"frontend.submit"});
  auto run = drive.find("sim.run");
  m["sim.run_self_s"] = run == drive.end() ? 0.0 : run->second.self_s;
  double covered = 0;
  for (const auto& [name, t] : drive) {
    covered += t.self_s;
    m["share." + name.substr(0, name.find('.'))] += Ratio(t.self_s, r.drive_s);
  }
  m["trace.coverage"] = Ratio(covered, r.drive_s);
  return m;
}

/// Same-seed rounds must agree on everything simulated.
std::string CompareRounds(const Round& a, const Round& b) {
  if (a.digest != b.digest) return "StateDigest differs between same-seed rounds";
  if (a.attempted != b.attempted || a.failed != b.failed || a.ops != b.ops ||
      a.queries_refused != b.queries_refused) {
    return "operation counts differ between same-seed rounds";
  }
  for (const auto& [name, v] : a.sim) {
    auto it = b.sim.find(name);
    if (it == b.sim.end() || it->second != v) {
      return "simulated metric " + name + " differs between same-seed rounds";
    }
  }
  return "";
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val, &end, 10);
      have_seed = end != val && *end == '\0';
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val, &end);
      if (end == val || *end != '\0') a->seconds = 0;
    } else if (key == "--trace") {
      a->trace = std::strcmp(val, "0") == 0 ? 0 : std::strcmp(val, "1") == 0 ? 1 : -1;
    } else if (key == "--spans-out") {
      a->spans_out = val;
    } else {
      return false;
    }
  }
  const bool known = std::any_of(std::begin(kWorkloads), std::end(kWorkloads),
                                 [&a](const char* w) { return a->workload == w; });
  return argc % 2 == 1 && known && have_seed && a->seconds > 0 && a->trace >= 0;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

using Metric = std::pair<double, const char*>;  // value, unit

void PrintResult(uint64_t attempted, uint64_t failed,
                 const std::vector<std::pair<std::string, Metric>>& metrics) {
  for (const auto& [name, m] : metrics) {
    std::printf("  %-36s %16.6f %s\n", name.c_str(), m.first, m.second);
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].first.c_str(), metrics[i].second.first,
                metrics[i].second.second);
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  for (const char* env : kPinnedEnv) {
    if (std::getenv(env) != nullptr) {
      std::fprintf(stderr, "perfbench: %s is set; the benchmark pins its configuration, unset it\n", env);
      return 2;
    }
  }
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: mind_perfbench --workload <fleet1k|churn48|backbone_live> "
                 "--seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]\n");
    return 2;
  }

  std::printf("config: {\"workload\": \"%s\", \"seed\": %llu, \"engine\": \"sequential\", "
              "\"threads\": 1, \"backend\": \"%s\", \"telemetry\": \"on\", "
              "\"build_type\": \"%s\", \"trace\": %d}\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              IndexBackendKindName(kBackend), PERFBENCH_BUILD_TYPE, args.trace);

  // Untraced rounds, and with --trace 1 traced rounds in alternation.
  SpanLog traced_log;
  std::vector<Round> plain, traced;
  const size_t min_each = args.trace ? 2 : 3;
  double first_round_rss_mb = 0;
  double ref_s = TimeReference();
  const int64_t start = NowNs();
  for (size_t i = 0;; ++i) {
    const bool trace_round = args.trace && i % 2 == 1;
    if (trace_round) traced_log.Clear();
    Round r = RunRound(args.workload, args.seed, trace_round ? &traced_log : nullptr, ref_s);
    ref_s = r.ref_end_s;
    if (r.error.empty() && !plain.empty()) r.error = CompareRounds(plain.front(), r);
    if (!r.error.empty()) {
      std::fprintf(stderr, "perfbench: %s round %zu FAILED: %s\n",
                   args.workload.c_str(), i, r.error.c_str());
      return 1;
    }
    std::printf("round %zu%s: setup %.3f s, drive %.3f s, reference %.4f/%.4f/%.4f s, "
                "%llu ops, %llu events, digest %016llx\n",
                i, trace_round ? " (traced)" : "", r.setup_s, r.drive_s, r.ref_start_s,
                r.ref_mid_s, r.ref_end_s,
                static_cast<unsigned long long>(r.ops),
                static_cast<unsigned long long>(r.events),
                static_cast<unsigned long long>(r.digest));
    // Later rounds reuse (and fragment) the heap the first one grew, so the
    // process peak is taken once, after one round of the workload.
    if (i == 0) first_round_rss_mb = PeakRssMb();
    if (trace_round) r.spans = SpanMetrics(traced_log, r);
    (trace_round ? traced : plain).push_back(std::move(r));
    const bool enough = plain.size() >= min_each && (!args.trace || traced.size() >= min_each);
    if (enough && Seconds(start, NowNs()) >= args.seconds) break;
  }

  auto median_of = [](const std::vector<Round>& rs, auto&& f) {
    std::vector<double> v;
    for (const Round& r : rs) v.push_back(f(r));
    return Median(v);
  };
  // Throughput over every drive of the run: all ops over all drive seconds,
  // normalised to the nominal host speed (the metric) or as measured.
  auto ops_per_drive_s = [](const std::vector<Round>& rs, bool normalised) {
    double ops = 0, secs = 0;
    for (const Round& r : rs) {
      ops += static_cast<double>(r.ops);
      secs += normalised ? r.drive_norm_s() : r.drive_s;
    }
    return Ratio(ops, secs);
  };
  uint64_t attempted = 0, failed = 0;
  for (const auto* rs : {&plain, &traced}) {
    for (const Round& r : *rs) {
      attempted += r.attempted;
      failed += r.failed;
    }
  }
  const Round& first = plain.front();
  const auto& sim = first.sim;
  std::printf("samples: insert n=%.0f, query n=%.0f (per round)\n", sim.at("insert_n"),
              sim.at("query_n"));
  std::printf("as measured: setup_s %.4f, ops_per_s %.1f; reference %.4f s (nominal %.2f)\n",
              median_of(plain, [](const Round& r) { return r.setup_s; }),
              ops_per_drive_s(plain, false),
              median_of(plain, [](const Round& r) { return r.ref_mid_s; }), kNominalReferenceS);

  std::vector<std::pair<std::string, Metric>> out;
  if (!args.trace) {
    out.push_back({"setup_s", {median_of(plain, [](const Round& r) { return r.setup_norm_s(); }), "s"}});
    out.push_back({"ops_per_s", {ops_per_drive_s(plain, true), "1/s"}});
    out.push_back({"peak_rss_mb", {first_round_rss_mb, "MB"}});
    for (const char* k : {"insert_p50_ms", "insert_p99_ms", "query_p50_ms", "query_p99_ms"}) {
      out.push_back({k, {sim.at(k), "ms"}});
    }
    out.push_back({"ok_frac",
                   {1.0 - Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
                    "fraction"}});
    out.push_back({"admitted_frac",
                   {1.0 - Ratio(static_cast<double>(first.queries_refused),
                                static_cast<double>(first.queries_submitted)),
                    "fraction"}});
    PrintResult(attempted, failed, out);
    return 0;
  }

  // Per-layer numbers: span times from the traced rounds, rates from the
  // untraced ones, counts from the (identical) simulated state.
  auto span_median = [&traced, &median_of](const char* key) {
    return median_of(traced, [key](const Round& r) {
      auto it = r.spans.find(key);
      return it == r.spans.end() ? 0.0 : it->second;
    });
  };
  std::printf("drive self time by layer (median of %zu traced rounds):\n", traced.size());
  for (const auto& [key, v] : traced.back().spans) {
    if (key.rfind("share.", 0) == 0) {
      std::printf("  %-10s %5.1f%%\n", key.c_str() + 6, 100 * span_median(key.c_str()));
    }
  }
  const double plain_ops = ops_per_drive_s(plain, true);
  const double traced_ops = ops_per_drive_s(traced, true);
  double events = 0, plain_drive_s = 0;
  for (const Round& r : plain) {
    events += static_cast<double>(r.events);
    plain_drive_s += r.drive_norm_s();
  }
  auto counted = [&sim, &out](const char* key, const char* unit) {
    auto it = sim.find(key);  // absent where the workload bypasses the layer
    out.push_back({key, {it == sim.end() ? 0.0 : it->second, unit}});
  };
  auto spanned = [&span_median, &out](const char* key, const char* unit) {
    out.push_back({key, {span_median(key), unit}});
  };
  out.push_back({"sim.events_per_s", {Ratio(events, plain_drive_s), "1/s"}});
  spanned("sim.run_self_s", "s");
  counted("sim.net.msgs_per_op", "count");
  counted("sim.net.queue_wait_p99_ms", "ms");
  spanned("overlay.build_s", "s");
  counted("overlay.forwarded_per_op", "count");
  counted("overlay.route_cache_hit_rate", "fraction");
  counted("overlay.route_cache_lookups", "count");
  spanned("mind.insert_call_us", "us");
  spanned("mind.query_call_us", "us");
  counted("mind.insert_hops_p50", "count");
  counted("mind.dac_query_wait_p99_ms", "ms");
  counted("mind.replies_per_query", "count");
  counted("storage.rows_examined_per_returned", "count");
  counted("storage.cover_cache_hit_rate", "fraction");
  counted("storage.cover_cache_lookups", "count");
  counted("storage.compaction_rows_per_insert", "count");
  spanned("space.balanced_cuts_s", "s");
  spanned("traffic.source_s", "s");
  counted("traffic.records_per_tuple", "count");
  spanned("frontend.submit_us", "us");
  counted("frontend.wait_p99_ms", "ms");
  counted("frontend.admit_frac", "fraction");
  out.push_back({"memory.pool_peak_mb",
                 {median_of(plain, [](const Round& r) { return r.pool_peak_mb; }), "MB"}});
  out.push_back({"trace.overhead_frac", {1.0 - Ratio(traced_ops, plain_ops), "fraction"}});
  spanned("trace.coverage", "fraction");

  if (!args.spans_out.empty() && !traced_log.WriteCsv(args.spans_out)) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", args.spans_out.c_str());
    return 1;
  }
  PrintResult(attempted, failed, out);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
