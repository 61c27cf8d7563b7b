#include "telemetry/export.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "telemetry/json.h"

// MIND_GIT_SHA comes from the header the mind_build_stamp target regenerates
// on every build, MIND_BUILD_TYPE from the top-level CMakeLists. The fallbacks
// keep out-of-band compiles (e.g. a bare clang-tidy invocation) building.
#if __has_include("mind_build_stamp.h")
#include "mind_build_stamp.h"
#endif
#ifndef MIND_GIT_SHA
#define MIND_GIT_SHA "unknown"
#endif
#ifndef MIND_BUILD_TYPE
#define MIND_BUILD_TYPE "unknown"
#endif

namespace mind {
namespace telemetry {

namespace {

// The run-environment block: everything needed to judge whether two exports
// are comparable (same build shape, same duty cycle, same engine config).
std::string DutyEnv() {
  const char* env = std::getenv("MIND_BENCH_DUTY");
  return env != nullptr ? env : "";
}

JsonValue HistogramJson(const SimHistogram& h) {
  JsonValue v = JsonValue::Object();
  v.Set("count", JsonValue::Number(static_cast<double>(h.count())));
  v.Set("sum", JsonValue::Number(h.sum()));
  v.Set("min", JsonValue::Number(h.min()));
  v.Set("max", JsonValue::Number(h.max()));
  v.Set("mean", JsonValue::Number(h.Mean()));
  v.Set("p50", JsonValue::Number(h.Percentile(50)));
  v.Set("p90", JsonValue::Number(h.Percentile(90)));
  v.Set("p99", JsonValue::Number(h.Percentile(99)));
  return v;
}

Status WriteStringToFile(const std::string& content, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open " + path + ": " +
                            std::strerror(errno));
  }
  size_t written = std::fwrite(content.data(), 1, content.size(), f);
  int close_rc = std::fclose(f);
  if (written != content.size() || close_rc != 0) {
    return Status::Internal("short write to " + path);
  }
  return Status::OK();
}

std::string FormatDouble(double d) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  return buf;
}

}  // namespace

std::string JsonExporter::Export(const MetricsRegistry& registry,
                                 const RunMeta& meta) {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema_version", JsonValue::Number(1));
  doc.Set("bench", JsonValue::Str(meta.bench));

  JsonValue m = JsonValue::Object();
  m.Set("seed", JsonValue::Number(static_cast<double>(meta.seed)));
  m.Set("topology", JsonValue::Str(meta.topology));
  m.Set("nodes", JsonValue::Number(meta.nodes));
  for (const auto& [k, v] : meta.extra) m.Set(k, JsonValue::Str(v));
  doc.Set("meta", std::move(m));

  JsonValue run = JsonValue::Object();
  run.Set("threads", JsonValue::Number(meta.threads));
  run.Set("duty", JsonValue::Str(DutyEnv()));
  run.Set("build_type", JsonValue::Str(MIND_BUILD_TYPE));
  run.Set("git_sha", JsonValue::Str(MIND_GIT_SHA));
  doc.Set("run", std::move(run));

  JsonValue counters = JsonValue::Object();
  for (const auto& [name, c] : registry.counters()) {
    counters.Set(name, JsonValue::Number(static_cast<double>(c->value())));
  }
  doc.Set("counters", std::move(counters));

  JsonValue gauges = JsonValue::Object();
  for (const auto& [name, g] : registry.gauges()) {
    gauges.Set(name, JsonValue::Number(g->value()));
  }
  doc.Set("gauges", std::move(gauges));

  JsonValue hists = JsonValue::Object();
  for (const auto& [name, h] : registry.histograms()) {
    hists.Set(name, HistogramJson(*h));
  }
  doc.Set("histograms", std::move(hists));

  return doc.ToString() + "\n";
}

Status JsonExporter::WriteFile(const MetricsRegistry& registry,
                               const RunMeta& meta, const std::string& path) {
  return WriteStringToFile(Export(registry, meta), path);
}

std::string JsonExporter::DefaultPath(const RunMeta& meta) {
  return "BENCH_" + meta.bench + ".json";
}

std::string CsvExporter::Export(const MetricsRegistry& registry,
                                const RunMeta& meta) {
  std::ostringstream out;
  out << "kind,name,field,value\n";
  out << "meta," << meta.bench << ",seed," << meta.seed << "\n";
  out << "meta," << meta.bench << ",topology," << meta.topology << "\n";
  out << "meta," << meta.bench << ",nodes," << meta.nodes << "\n";
  for (const auto& [k, v] : meta.extra) {
    out << "meta," << meta.bench << "," << k << "," << v << "\n";
  }
  out << "run," << meta.bench << ",threads," << meta.threads << "\n";
  out << "run," << meta.bench << ",duty," << DutyEnv() << "\n";
  out << "run," << meta.bench << ",build_type," << MIND_BUILD_TYPE << "\n";
  out << "run," << meta.bench << ",git_sha," << MIND_GIT_SHA << "\n";
  for (const auto& [name, c] : registry.counters()) {
    out << "counter," << name << ",value," << c->value() << "\n";
  }
  for (const auto& [name, g] : registry.gauges()) {
    out << "gauge," << name << ",value," << FormatDouble(g->value()) << "\n";
  }
  for (const auto& [name, h] : registry.histograms()) {
    out << "histogram," << name << ",count," << h->count() << "\n";
    out << "histogram," << name << ",sum," << FormatDouble(h->sum()) << "\n";
    out << "histogram," << name << ",min," << FormatDouble(h->min()) << "\n";
    out << "histogram," << name << ",max," << FormatDouble(h->max()) << "\n";
    out << "histogram," << name << ",mean," << FormatDouble(h->Mean()) << "\n";
    out << "histogram," << name << ",p50," << FormatDouble(h->Percentile(50))
        << "\n";
    out << "histogram," << name << ",p90," << FormatDouble(h->Percentile(90))
        << "\n";
    out << "histogram," << name << ",p99," << FormatDouble(h->Percentile(99))
        << "\n";
  }
  return out.str();
}

Status CsvExporter::WriteFile(const MetricsRegistry& registry,
                              const RunMeta& meta, const std::string& path) {
  return WriteStringToFile(Export(registry, meta), path);
}

}  // namespace telemetry
}  // namespace mind
