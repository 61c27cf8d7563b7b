// Shared machinery for the experiment benches: deployment construction over
// a backbone topology, trace-driven insertion, query workloads, and
// paper-style table printing.
#ifndef MIND_BENCH_COMMON_H_
#define MIND_BENCH_COMMON_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "anomaly/ground_truth.h"
#include "mind/mind_net.h"
#include "telemetry/export.h"
#include "telemetry/stats.h"
#include "traffic/aggregator.h"
#include "traffic/anomaly_injector.h"
#include "traffic/flow_generator.h"
#include "traffic/indices.h"
#include "traffic/topology.h"

namespace mind {
namespace bench {

// ------------------------------------------------------------ statistics

// The single definition lives in telemetry/stats.h so benches, the registry
// histograms and the exporters all agree.
using telemetry::Mean;
using telemetry::Percentile;

inline void PrintLatencyRow(const char* label, const std::vector<double>& sec) {
  std::printf("%-28s n=%6zu  median=%7.3fs  mean=%7.3fs  p90=%7.3fs  p99=%7.3fs\n",
              label, sec.size(), Percentile(sec, 50), Mean(sec),
              Percentile(sec, 90), Percentile(sec, 99));
}

/// Same table row printed from a registry histogram recorded in milliseconds
/// (values shown in seconds). Because the BENCH_*.json exporter snapshots the
/// very same histogram, the printed median/p90/p99 equal the JSON ones.
inline void PrintLatencyRowHist(const char* label,
                                const telemetry::SimHistogram& h_ms) {
  std::printf("%-28s n=%6llu  median=%7.3fs  mean=%7.3fs  p90=%7.3fs  p99=%7.3fs\n",
              label, static_cast<unsigned long long>(h_ms.count()),
              h_ms.Percentile(50) / 1e3, h_ms.Mean() / 1e3,
              h_ms.Percentile(90) / 1e3, h_ms.Percentile(99) / 1e3);
}

/// Writes the registry snapshot to BENCH_<meta.bench>.json (plus metadata).
inline void ExportBench(const telemetry::MetricsRegistry& registry,
                        const telemetry::RunMeta& meta) {
  std::string path = telemetry::JsonExporter::DefaultPath(meta);
  Status st = telemetry::JsonExporter::WriteFile(registry, meta, path);
  if (!st.ok()) {
    std::fprintf(stderr, "bench export failed: %s\n", st.ToString().c_str());
    return;
  }
  std::printf("[export] wrote %s\n", path.c_str());
}

/// Duty cycle in percent, clamped to [1, 100]: argv[1] wins over
/// MIND_BENCH_DUTY, which wins over the default of 100. The scale benches
/// multiply their driven sim time by it so CI smoke runs stay short.
inline int DutyPercent(int argc, char** argv) {
  int duty = 100;
  if (const char* env = std::getenv("MIND_BENCH_DUTY")) duty = std::atoi(env);
  if (argc > 1) duty = std::atoi(argv[1]);
  if (duty < 1) duty = 1;
  if (duty > 100) duty = 100;
  return duty;
}

// ------------------------------------------------------------ deployment

struct DeploymentOptions {
  /// Replication level (paper default: one replica).
  int replication = 1;
  /// Heartbeats on for failure experiments; off keeps static runs light.
  SimTime heartbeat_interval = FromSeconds(5);
  uint64_t seed = 0x5eed;
  /// Build pacing overrides for very large fleets (0 = MindNetOptions
  /// defaults). fig22's 10k-node build outruns the default 3600 s sim
  /// deadline at the default 300 ms stagger.
  SimTime join_stagger = 0;
  SimTime build_deadline = 0;
};

/// A MindNet whose node i is co-located with topology router i (the paper's
/// geographic PlanetLab placement, §4.2).
inline std::unique_ptr<MindNet> MakeDeployment(const Topology& topo,
                                               DeploymentOptions opts = {}) {
  MindNetOptions mopts;
  mopts.sim.seed = opts.seed;
  mopts.overlay.heartbeat_interval = opts.heartbeat_interval;
  mopts.mind.replication = opts.replication;
  mopts.positions = topo.Positions();
  auto net = std::make_unique<MindNet>(topo.size(), mopts);
  Status st = net->Build();
  if (!st.ok()) {
    std::fprintf(stderr, "overlay build failed: %s\n", st.ToString().c_str());
    std::abort();
  }
  return net;
}

/// A MindNet of arbitrary size without geography (the 102-node experiments).
inline std::unique_ptr<MindNet> MakeFlatDeployment(size_t n,
                                                   DeploymentOptions opts = {}) {
  MindNetOptions mopts;
  mopts.sim.seed = opts.seed;
  mopts.overlay.heartbeat_interval = opts.heartbeat_interval;
  mopts.mind.replication = opts.replication;
  if (opts.join_stagger > 0) mopts.join_stagger = opts.join_stagger;
  if (opts.build_deadline > 0) mopts.build_deadline = opts.build_deadline;
  auto net = std::make_unique<MindNet>(n, mopts);
  Status st = net->Build();
  if (!st.ok()) {
    std::fprintf(stderr, "overlay build failed: %s\n", st.ToString().c_str());
    std::abort();
  }
  return net;
}

// ------------------------------------------------------------ trace driving

struct TraceDriveOptions {
  int day = 0;
  double t0_sec = 39600;  // 11:00
  double t1_sec = 43200;  // 12:00
  bool feed_index1 = true;
  bool feed_index2 = true;
  bool feed_index3 = true;
  PaperIndexOptions index_opts;
  AggregatorOptions agg;
  std::vector<AnomalyEvent> anomalies;
  uint64_t anomaly_seed = 0xbad;
};

struct TraceDriveResult {
  size_t raw_records = 0;
  size_t aggregates = 0;
  size_t inserted1 = 0, inserted2 = 0, inserted3 = 0;
  /// All aggregates (pre-filter), for ground-truth analysis.
  std::vector<AggregateRecord> all_aggregates;
  /// Sim time corresponding to trace second t0 (epoch of the drive).
  SimTime epoch = 0;
};

/// Maps a trace-relative second to sim time given the drive's epoch.
inline SimTime TraceToSim(const TraceDriveResult& drive, double trace_sec,
                          double t0_sec) {
  return drive.epoch + FromSeconds(trace_sec - t0_sec);
}

/// Feeds one window of trace into the deployment: generates raw flows,
/// aggregates per monitor, filters per index, and schedules each tuple's
/// insert_record call at its home monitor at the window-close sim time.
/// Runs the simulation along with the trace clock.
inline TraceDriveResult DriveTrace(MindNet& net, FlowGenerator& gen,
                                   const TraceDriveOptions& opts) {
  TraceDriveResult result;
  result.epoch = net.sim().now();
  AnomalyInjector injector(&gen, opts.anomaly_seed);
  const double window = opts.agg.window_sec;
  uint64_t seq = 0;

  for (double t = opts.t0_sec; t < opts.t1_sec; t += window) {
    double t_end = std::min(t + window, opts.t1_sec);
    Aggregator agg(opts.agg);
    size_t raw = 0;
    gen.Generate(opts.day, t, t_end, [&](const FlowRecord& f) {
      agg.Add(f);
      ++raw;
    });
    for (const auto& ev : opts.anomalies) {
      if (ev.day != opts.day) continue;
      for (const auto& f : injector.Generate(ev, t, t_end)) {
        agg.Add(f);
        ++raw;
      }
    }
    result.raw_records += raw;
    auto aggregates = agg.DrainAll();
    result.aggregates += aggregates.size();

    // Schedule the inserts at the window's closing sim time, on the monitor's
    // own queue (ScheduleOn == events().ScheduleAt under the sequential
    // engine; under the parallel engine the control queue must stay empty).
    SimTime when = result.epoch + FromSeconds(t_end - opts.t0_sec);
    for (const auto& rec : aggregates) {
      result.all_aggregates.push_back(rec);
      int monitor = rec.router;
      if (opts.feed_index1) {
        if (auto tup = ToIndex1Tuple(rec, ++seq, opts.index_opts)) {
          ++result.inserted1;
          net.sim().ScheduleOn(monitor, when, [&net, monitor, tup] {
            (void)net.node(monitor).Insert("index1_fanout", *tup);
          });
        }
      }
      if (opts.feed_index2) {
        if (auto tup = ToIndex2Tuple(rec, ++seq, opts.index_opts)) {
          ++result.inserted2;
          net.sim().ScheduleOn(monitor, when, [&net, monitor, tup] {
            (void)net.node(monitor).Insert("index2_octets", *tup);
          });
        }
      }
      if (opts.feed_index3) {
        if (auto tup = ToIndex3Tuple(rec, ++seq, opts.index_opts)) {
          ++result.inserted3;
          net.sim().ScheduleOn(monitor, when, [&net, monitor, tup] {
            (void)net.node(monitor).Insert("index3_flowsize", *tup);
          });
        }
      }
    }
    // Advance the simulation to the window close.
    net.sim().RunUntil(when);
  }
  // Let in-flight inserts settle.
  net.sim().RunFor(FromSeconds(30));
  return result;
}

/// Creates the paper's three indices with even cuts (callers re-balance).
inline void CreatePaperIndices(MindNet& net, const PaperIndexOptions& opts = {},
                               bool idx1 = true, bool idx2 = true,
                               bool idx3 = true) {
  auto create = [&](const IndexDef& def) {
    Status st = net.CreateIndexEverywhere(
        def, std::make_shared<CutTree>(CutTree::Even(def.schema)), 1, 0);
    if (!st.ok()) {
      std::fprintf(stderr, "create %s failed: %s\n", def.name.c_str(),
                   st.ToString().c_str());
      std::abort();
    }
  };
  if (idx1) create(MakeIndex1(opts));
  if (idx2) create(MakeIndex2(opts));
  if (idx3) create(MakeIndex3(opts));
}

/// Installs histogram-balanced cuts (built offline from `sample`) as the
/// active version of the given index — the paper's daily balanced-cut
/// installation, computed from the previous day's distribution (§3.7).
inline void InstallBalancedCuts(
    MindNet& net, const std::string& index, const IndexDef& def,
    const std::vector<Point>& sample, int bins_per_dim, int depth,
    VersionId version, SimTime start) {
  Histogram h(def.schema, bins_per_dim);
  for (const auto& p : sample) h.Add(p);
  auto cuts = CutTree::Balanced(def.schema, h, depth);
  if (!cuts.ok()) {
    std::fprintf(stderr, "balanced cuts failed: %s\n",
                 cuts.status().ToString().c_str());
    std::abort();
  }
  Status st = net.InstallCutsEverywhere(
      index, version, std::make_shared<CutTree>(std::move(cuts).value()), start);
  if (!st.ok()) {
    std::fprintf(stderr, "install cuts failed: %s\n", st.ToString().c_str());
    std::abort();
  }
}

/// Shifts the timestamp attribute of sampled points forward by `days` —
/// balanced cuts built from day d's data must sit where day d+`days`'s
/// timestamps will fall (§3.7's "one day's distribution stores the next").
inline void ShiftTimeAttr(std::vector<Point>* points, int time_attr,
                          int days = 1) {
  for (auto& p : *points) p[time_attr] += static_cast<Value>(days) * 86400;
}

/// Collects sample points of a day's (filtered) tuples for an index, for
/// offline balanced-cut construction.
inline std::vector<Point> SampleIndexPoints(
    FlowGenerator& gen, int day, double t0, double t1, int which_index,
    const PaperIndexOptions& iopts = {}, const AggregatorOptions& aopts = {}) {
  std::vector<Point> points;
  const double window = aopts.window_sec;
  uint64_t seq = 0;
  for (double t = t0; t < t1; t += window) {
    Aggregator agg(aopts);
    gen.Generate(day, t, std::min(t + window, t1),
                 [&](const FlowRecord& f) { agg.Add(f); });
    for (const auto& rec : agg.DrainAll()) {
      std::optional<Tuple> tup;
      switch (which_index) {
        case 1: tup = ToIndex1Tuple(rec, ++seq, iopts); break;
        case 2: tup = ToIndex2Tuple(rec, ++seq, iopts); break;
        default: tup = ToIndex3Tuple(rec, ++seq, iopts); break;
      }
      if (tup) points.push_back(tup->point);
    }
  }
  return points;
}

/// A random monitoring query in the paper's style (§4.1): uniform ranges on
/// the non-time attributes, a 5-minute window ending at `t_end` on the time
/// attribute.
inline Rect RandomMonitoringQuery(Rng* rng, const IndexDef& def,
                                  uint64_t t_end_sec) {
  std::vector<Interval> ivs;
  for (int d = 0; d < def.schema.dims(); ++d) {
    const auto& attr = def.schema.attr(d);
    if (d == def.time_attr) {
      uint64_t lo = t_end_sec > 300 ? t_end_sec - 300 : 0;
      ivs.push_back({lo, t_end_sec});
    } else {
      Value a = rng->UniformRange(attr.min, attr.max);
      Value b = rng->UniformRange(attr.min, attr.max);
      ivs.push_back({std::min(a, b), std::max(a, b)});
    }
  }
  return Rect(std::move(ivs));
}

/// Issues a query and runs the sim until its callback fires (or gives up
/// after 120 s of sim time). Returns nullopt when the query API errored.
inline std::optional<QueryResult> RunQueryBlocking(MindNet& net, size_t from,
                                                   const std::string& index,
                                                   const Rect& rect) {
  std::optional<QueryResult> out;
  auto qid = net.node(from).Query(index, rect,
                                  [&](const QueryResult& r) { out = r; });
  if (!qid.ok()) return std::nullopt;
  SimTime deadline = net.sim().now() + FromSeconds(120);
  while (!out.has_value() && net.sim().now() < deadline) {
    net.sim().RunFor(FromMillis(100));
  }
  return out;
}

}  // namespace bench
}  // namespace mind

#endif  // MIND_BENCH_COMMON_H_
