// Telemetry subsystem tests: registry semantics, histogram percentile
// accuracy against the exact definition, and exporter schema round-trips
// through the bundled JSON parser.
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "telemetry/export.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/stats.h"

namespace mind {
namespace telemetry {
namespace {

// ---------------------------------------------------------------- registry

TEST(MetricsRegistryTest, InstrumentsAreNamedAndStable) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x.count");
  Counter& b = reg.counter("x.count");
  EXPECT_EQ(&a, &b);  // same name, same instrument
  Gauge& g = reg.gauge("x.level");
  SimHistogram& h = reg.histogram("x.wait_ms");
  EXPECT_EQ(&g, &reg.gauge("x.level"));
  EXPECT_EQ(&h, &reg.histogram("x.wait_ms"));

  EXPECT_NE(reg.FindCounter("x.count"), nullptr);
  EXPECT_EQ(reg.FindCounter("missing"), nullptr);
  EXPECT_NE(reg.FindGauge("x.level"), nullptr);
  EXPECT_NE(reg.FindHistogram("x.wait_ms"), nullptr);
}

TEST(MetricsRegistryTest, CounterAndGaugeRecord) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.value(), 42u);
  Gauge& g = reg.gauge("g");
  g.Set(3.5);
  g.Add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsReferences) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  SimHistogram& h = reg.histogram("h");
  c.Inc(7);
  h.Record(12.0);
  reg.Reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(&c, &reg.counter("c"));
}

// --------------------------------------------------------------- histogram

TEST(SimHistogramTest, BasicMoments) {
  MetricsRegistry reg;
  SimHistogram& h = reg.histogram("h");
  for (double v : {1.0, 2.0, 3.0, 4.0}) h.Record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 10.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 2.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
}

TEST(SimHistogramTest, PercentilesTrackExactWithinBucketError) {
  MetricsRegistry reg;
  SimHistogram& h = reg.histogram("h");  // growth 1.07 -> ~7% relative error
  std::vector<double> exact;
  uint64_t state = 12345;
  for (int i = 0; i < 20000; ++i) {
    // xorshift: deterministic heavy-ish tail spanning several decades
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    double u = static_cast<double>(state % 1000000) / 1e6;
    double v = 0.1 + 5000.0 * u * u * u;  // 0.1 .. 5000 ms, skewed low
    h.Record(v);
    exact.push_back(v);
  }
  for (double p : {10.0, 50.0, 90.0, 99.0, 99.9}) {
    double want = Percentile(exact, p);
    double got = h.Percentile(p);
    EXPECT_NEAR(got, want, 0.08 * want + 1e-9)
        << "p" << p << " exact=" << want << " hist=" << got;
  }
  // Extremes clamp to observed range.
  EXPECT_DOUBLE_EQ(h.Percentile(0), h.min());
  EXPECT_DOUBLE_EQ(h.Percentile(100), h.max());
}

TEST(SimHistogramTest, OverflowBucketUsesObservedMax) {
  MetricsRegistry reg;
  SimHistogram& h = reg.histogram("h", HistogramOptions{1e-3, 1.07, 8});
  h.Record(1e9);  // way past the last bound
  h.Record(2e9);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.max(), 2e9);
  EXPECT_LE(h.Percentile(99), 2e9);
  EXPECT_GE(h.Percentile(99), 1e9 * 0.5);
}

TEST(StatsTest, PercentileExactDefinition) {
  std::vector<double> v = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(Mean(v), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
}

// -------------------------------------------------------------------- json

TEST(JsonTest, ParseRoundTrip) {
  const char* doc =
      "{\"a\": [1, 2.5, true, null, \"s\\n\"], \"b\": {\"c\": -3e2}}";
  auto parsed = JsonValue::Parse(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& v = *parsed;
  ASSERT_TRUE(v.is_object());
  const JsonValue* a = v.Get("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 5u);
  EXPECT_DOUBLE_EQ(a->items()[1].as_number(), 2.5);
  EXPECT_TRUE(a->items()[2].as_bool());
  EXPECT_TRUE(a->items()[3].is_null());
  EXPECT_EQ(a->items()[4].as_string(), "s\n");
  const JsonValue* c = v.GetPath("b.c");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->as_number(), -300.0);

  // Serialize -> reparse -> identical serialization (stable form).
  std::string s1 = v.ToString();
  auto reparsed = JsonValue::Parse(s1);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->ToString(), s1);
}

TEST(JsonTest, RejectsMalformed) {
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1} trailing").ok());
  EXPECT_FALSE(JsonValue::Parse("nul").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
}

// --------------------------------------------------------------- exporters

RunMeta TestMeta() {
  RunMeta meta;
  meta.bench = "unit";
  meta.seed = 31337;
  meta.topology = "flat";
  meta.nodes = 8;
  meta.extra["note"] = "round-trip";
  return meta;
}

TEST(JsonExporterTest, SchemaRoundTrip) {
  MetricsRegistry reg;
  reg.counter("a.count").Inc(3);
  reg.gauge("a.level").Set(1.25);
  SimHistogram& h = reg.histogram("a.wait_ms");
  for (double v : {1.0, 2.0, 3.0, 4.0, 100.0}) h.Record(v);

  std::string doc = JsonExporter::Export(reg, TestMeta());
  auto parsed = JsonValue::Parse(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& v = *parsed;

  // Required keys of schema_version 1 — this is the regression guard that a
  // bench-style export stays machine-readable.
  ASSERT_NE(v.Get("schema_version"), nullptr);
  EXPECT_DOUBLE_EQ(v.Get("schema_version")->as_number(), 1.0);
  ASSERT_NE(v.Get("bench"), nullptr);
  EXPECT_EQ(v.Get("bench")->as_string(), "unit");
  ASSERT_NE(v.GetPath("meta.seed"), nullptr);
  EXPECT_DOUBLE_EQ(v.GetPath("meta.seed")->as_number(), 31337.0);
  ASSERT_NE(v.GetPath("meta.topology"), nullptr);
  ASSERT_NE(v.GetPath("meta.nodes"), nullptr);
  ASSERT_NE(v.GetPath("meta.note"), nullptr);
  ASSERT_NE(v.Get("counters"), nullptr);
  ASSERT_NE(v.Get("gauges"), nullptr);
  ASSERT_NE(v.Get("histograms"), nullptr);

  // Run-environment block: every export says what machine-shape produced it.
  for (const char* key : {"threads", "duty", "build_type", "git_sha"}) {
    ASSERT_NE(v.GetPath((std::string("run.") + key).c_str()), nullptr)
        << "missing run field " << key;
  }
  EXPECT_DOUBLE_EQ(v.GetPath("run.threads")->as_number(), 0.0);
  EXPECT_NE(v.GetPath("run.git_sha")->as_string(), "");

  // Metric names contain dots, so index them with plain Get, not GetPath.
  const JsonValue* hj = v.Get("histograms")->Get("a.wait_ms");
  ASSERT_NE(hj, nullptr);
  for (const char* key : {"count", "sum", "min", "max", "mean", "p50", "p90",
                          "p99"}) {
    ASSERT_NE(hj->Get(key), nullptr) << "missing histogram field " << key;
  }
  // Snapshot values match the live instruments exactly.
  const JsonValue* cj = v.Get("counters")->Get("a.count");
  ASSERT_NE(cj, nullptr);
  EXPECT_DOUBLE_EQ(cj->as_number(), 3.0);
  EXPECT_DOUBLE_EQ(hj->Get("count")->as_number(),
                   static_cast<double>(h.count()));
  EXPECT_DOUBLE_EQ(hj->Get("p50")->as_number(), h.Percentile(50));
  EXPECT_DOUBLE_EQ(hj->Get("p90")->as_number(), h.Percentile(90));
  EXPECT_DOUBLE_EQ(hj->Get("p99")->as_number(), h.Percentile(99));
}

TEST(JsonExporterTest, DefaultPathIsBenchName) {
  EXPECT_EQ(JsonExporter::DefaultPath(TestMeta()), "BENCH_unit.json");
}

TEST(CsvExporterTest, FlatRowsParse) {
  MetricsRegistry reg;
  reg.counter("a.count").Inc(2);
  std::string csv = CsvExporter::Export(reg, TestMeta());
  EXPECT_NE(csv.find("kind,name,field,value"), std::string::npos);
  EXPECT_NE(csv.find("meta,unit,seed,31337"), std::string::npos);
  EXPECT_NE(csv.find("counter,a.count,value,"), std::string::npos);
}

}  // namespace
}  // namespace telemetry
}  // namespace mind
