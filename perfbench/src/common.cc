#include "common.h"

#include <sys/utsname.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>

namespace perfbench {

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

void Samples::Sort() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Samples::Mean() const {
  if (values_.empty()) return 0;
  double sum = 0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double Samples::Percentile(double q) const {
  if (values_.empty()) return 0;
  Sort();
  size_t rank = static_cast<size_t>(
      std::ceil(q / 100.0 * static_cast<double>(values_.size())));
  if (rank < 1) rank = 1;
  if (rank > values_.size()) rank = values_.size();
  return values_[rank - 1];
}

size_t Samples::Beyond(double q) const {
  if (values_.empty()) return 0;
  Sort();
  double p = Percentile(q);
  return static_cast<size_t>(
      values_.end() - std::upper_bound(values_.begin(), values_.end(), p));
}

void RunResult::Fail(const std::string& why) {
  correct = false;
  if (errors.size() < 20) errors.push_back(why);
}

uint64_t RunResult::Attempted() const {
  uint64_t n = 0;
  for (const auto& [name, c] : ops) n += c.attempted;
  return n;
}

uint64_t RunResult::Failed() const {
  uint64_t n = 0;
  for (const auto& [name, c] : ops) n += c.failed;
  return n;
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"setup_s", "s"},
      {"rss_mb", "MiB"},
      {"throughput_per_s", "1/s"},
      {"cpu_us_per_op", "us"},
      {"aux_cpu_us_per_op", "us"},
  };
  return names;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"server.decode_us", "us"},
      {"server.encode_us", "us"},
      {"server.request_us", "us"},
      {"server.transport_us", "us"},
      {"server.parse_memo_hit_ratio", "ratio"},
      {"query.parse_us", "us"},
      {"pool.interactive_wait_us", "us"},
      {"pool.background_wait_us", "us"},
      {"market.acquire_us", "us"},
      {"market.publish_us", "us"},
      {"market.publishes_per_insert", "ratio"},
      {"market.reclaims", "count"},
      {"cache.lookup_us", "us"},
      {"cache.hit_ratio", "ratio"},
      {"cache.warm_hit_ratio", "ratio"},
      {"cache.warm_useful_ratio", "ratio"},
      {"engine.classify_us", "us"},
      {"engine.workproblem_us", "us"},
      {"engine.price_us.gchq", "us"},
      {"engine.price_us.clause", "us"},
      {"engine.price_us.clause_ground", "us"},
      {"engine.price_us.exhaustive", "us"},
      {"engine.price_us.boolean_witness", "us"},
      {"engine.price_us.composition", "us"},
      {"engine.dispatch.gchq", "count"},
      {"engine.dispatch.clause", "count"},
      {"engine.dispatch.clause_ground", "count"},
      {"engine.dispatch.exhaustive", "count"},
      {"engine.dispatch.boolean_witness", "count"},
      {"engine.dispatch.component_composition", "count"},
      {"flow.maxflow_us", "us"},
      {"flow.mincut_us", "us"},
      {"flow.augmenting_paths_per_solve", "count"},
      {"flow.bfs_rounds_per_solve", "count"},
      {"flow.edges_per_solve", "count"},
      {"bnb.solve_us", "us"},
      {"clause.solve_us", "us"},
      {"bnb.nodes_per_solve", "count"},
      {"bnb.pruned_ratio", "ratio"},
      {"bnb.memo_hit_ratio", "ratio"},
      {"bnb.oracle_evals_per_solve", "count"},
      {"batch.queue_wait_us", "us"},
      {"batch.parallel_efficiency", "ratio"},
      {"ctl.level_max", "level"},
      {"gen.late_p99_us", "us"},
      {"trace.overhead_us", "us"},
      {"e2e.quote_p50_us", "us"},
      {"e2e.quote_p99_us", "us"},
      {"e2e.aux_p50_us", "us"},
      {"e2e.aux_tail_us", "us"},
  };
  return names;
}

double PeakRssMb(int pid) {
  std::string path = pid == 0 ? std::string("/proc/self/status")
                              : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

uint64_t CpuNs(int pid) {
  uint64_t ns = 0;
  std::error_code ec;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  for (const auto& task : std::filesystem::directory_iterator(dir, ec)) {
    std::ifstream in(task.path() / "schedstat");
    uint64_t on_cpu = 0;  // first field: time spent on a CPU
    if (in >> on_cpu) ns += on_cpu;
  }
  return ns;
}

uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t field = 0;
  uint64_t steal = 0;
  in >> cpu;  // aggregate "cpu" line: user nice system idle iowait irq
  for (int i = 1; i <= 8 && in >> field; ++i) {  // softirq steal
    if (i == 8) steal = field;
  }
  return steal;
}

double StealPercent(uint64_t before, uint64_t after, double seconds) {
  const double capacity = seconds * static_cast<double>(sysconf(_SC_CLK_TCK)) *
                          static_cast<double>(std::thread::hardware_concurrency());
  return capacity <= 0 ? 0 : 100.0 * static_cast<double>(after - before) / capacity;
}

std::string JsonEscape(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string HostFingerprintJson() {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  struct utsname uts {};
  std::string kernel = uname(&uts) == 0
                           ? std::string(uts.sysname) + " " + uts.release
                           : "unknown";
  return "{\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu\": " + JsonEscape(cpu) + ", \"kernel\": " +
         JsonEscape(kernel) + ", \"compiler\": " +
#ifdef __clang__
         JsonEscape(std::string("clang ") + __VERSION__) +
#else
         JsonEscape(std::string("gcc ") + __VERSION__) +
#endif
         ", \"build_type\": " + JsonEscape(QPBENCH_BUILD_TYPE) + "}";
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace perfbench
