// qpbench: runs one benchmark workload against the qpricer library and
// the qpricerd daemon, verifies every answer, and prints its metrics.
//
//   qpbench --workload serve_churn|solve_mix --seed N
//           --seconds S --trace 0|1 --daemon PATH --out-dir DIR
//           [--git-sha SHA] [--src-lines N]
//
// Prints a text table of every metric, writes a full JSON report (and,
// when traced, the raw spans) under --out-dir, and ends stdout with one
// JSON line: {"correct", "attempted", "failed", "metrics"}. Exits 1 when
// an answer is wrong or the workload could not run.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage(const char* msg) {
  std::fprintf(stderr, "qpbench: %s\n", msg);
  std::fprintf(stderr,
               "usage: qpbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --daemon PATH --out-dir DIR "
               "[--git-sha SHA] [--src-lines N]\n");
  return 2;
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics,
                        const char* indent) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out += first ? "" : ",";
    first = false;
    out += indent;
    out += JsonEscape(name) + ": {\"value\": " + Num(m.value) +
           ", \"unit\": " + JsonEscape(m.unit) + "}";
  }
  return out + "}";
}

void PrintTable(const RunResult& r) {
  std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
              r.workload.c_str(), static_cast<unsigned long long>(r.seed),
              r.seconds, r.trace ? 1 : 0);
  std::printf("%-34s %16s  %s\n", "operation", "att/ok/fail/shed", "");
  for (const auto& [name, c] : r.ops) {
    std::printf("  %-32s %llu/%llu/%llu/%llu\n", name.c_str(),
                static_cast<unsigned long long>(c.attempted),
                static_cast<unsigned long long>(c.succeeded),
                static_cast<unsigned long long>(c.failed),
                static_cast<unsigned long long>(c.shed));
  }
  std::printf("%-34s %16s  %s\n", r.trace ? "per-layer metric" : "metric",
              "value", "unit");
  for (const auto& [name, m] : r.metrics) {
    std::printf("  %-32s %16.4f  %s\n", name.c_str(), m.value,
                m.unit.c_str());
  }
  if (!r.info.empty()) {
    std::printf("%-34s %16s  %s\n", "detail", "value", "unit");
    for (const auto& [name, m] : r.info) {
      std::printf("  %-32s %16.4f  %s\n", name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  for (const std::string& e : r.errors) {
    std::printf("ERROR: %s\n", e.c_str());
  }
}

bool WriteReport(const Options& o, const RunResult& r, std::string* path) {
  *path = o.out_dir + "/" + r.workload + "-seed" + std::to_string(r.seed) +
          "-trace" + (r.trace ? "1" : "0") + ".json";
  std::FILE* f = std::fopen(path->c_str(), "w");
  if (f == nullptr) return false;
  std::string ops = "{";
  bool first = true;
  for (const auto& [name, c] : r.ops) {
    ops += first ? "" : ",";
    first = false;
    ops += "\n    " + JsonEscape(name) +
           ": {\"attempted\": " + std::to_string(c.attempted) +
           ", \"succeeded\": " + std::to_string(c.succeeded) +
           ", \"failed\": " + std::to_string(c.failed) +
           ", \"shed\": " + std::to_string(c.shed) + "}";
  }
  ops += "}";
  std::string errors = "[";
  for (size_t i = 0; i < r.errors.size(); ++i) {
    errors += (i ? ", " : "") + JsonEscape(r.errors[i]);
  }
  errors += "]";
  std::string extra;
  for (const auto& [name, raw] : r.extra_json) {
    extra += ",\n  " + JsonEscape(name) + ": " + raw;
  }
  std::fprintf(
      f,
      "{\n  \"workload\": %s,\n  \"seed\": %llu,\n  \"seconds\": %s,\n"
      "  \"trace\": %s,\n  \"git_sha\": %s,\n  \"src_lines\": %s,\n"
      "  \"host\": %s,\n  \"correct\": %s,\n  \"errors\": %s,\n"
      "  \"ops\": %s,\n  \"metrics\": %s,\n  \"detail\": %s%s\n}\n",
      JsonEscape(r.workload).c_str(), static_cast<unsigned long long>(r.seed),
      Num(r.seconds).c_str(), r.trace ? "true" : "false",
      JsonEscape(o.git_sha).c_str(), JsonEscape(o.src_lines).c_str(),
      HostFingerprintJson().c_str(), r.correct ? "true" : "false",
      errors.c_str(), ops.c_str(), MetricsJson(r.metrics, "\n    ").c_str(),
      MetricsJson(r.info, "\n    ").c_str(), extra.c_str());
  return std::fclose(f) == 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      o.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--daemon") {
      o.daemon_path = v;
    } else if (flag == "--out-dir") {
      o.out_dir = v;
    } else if (flag == "--git-sha") {
      o.git_sha = v;
    } else if (flag == "--src-lines") {
      o.src_lines = v;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (o.seconds <= 0) return Usage("--seconds must be > 0");
  if (o.out_dir.empty()) return Usage("--out-dir is required");

  RunResult r;
  r.workload = o.workload;
  r.seed = o.seed;
  r.seconds = o.seconds;
  r.trace = o.trace;
  if (o.workload == "serve_churn") {
    RunServeChurn(o, &r);
  } else if (o.workload == "solve_mix") {
    RunSolveMix(o, &r);
  } else {
    return Usage(("unknown workload " + o.workload).c_str());
  }
  if (r.Attempted() == 0) r.Fail("no operation was attempted");
  if (r.trace) {
    for (const auto& [name, unit] : PerLayerMetrics()) {
      if (r.metrics.count(name) == 0) r.Set(name, 0, unit);
    }
  } else {
    for (const auto& [name, unit] : EndToEndMetrics()) {
      if (r.metrics.count(name) == 0) {
        r.Fail("workload did not measure " + name);
      }
    }
  }

  PrintTable(r);
  std::string path;
  if (!WriteReport(o, r, &path)) {
    std::fprintf(stderr, "qpbench: cannot write report %s\n", path.c_str());
    return 1;
  }
  std::printf("report: %s\n", path.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.Attempted()),
              static_cast<unsigned long long>(r.Failed()),
              MetricsJson(r.metrics, " ").c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
