// Shared pieces of the qpricer benchmark: timing, sample statistics,
// per-operation accounting and the result record every workload fills.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Latency samples of one operation type, in microseconds.
class Samples {
 public:
  void Add(double us) { values_.push_back(us); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  double Mean() const;
  /// Nearest-rank percentile (q in [0, 100]); 0 when empty.
  double Percentile(double q) const;
  /// Samples strictly above the q-th percentile: the tail the
  /// percentile rests on (the benchmark wants at least 10).
  size_t Beyond(double q) const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
  void Sort() const;
};

/// Attempted / succeeded / failed / shed for one operation type. A shed
/// request (ResourceExhausted) is also a failure.
struct OpCounts {
  uint64_t attempted = 0;
  uint64_t succeeded = 0;
  uint64_t failed = 0;
  uint64_t shed = 0;
  void Merge(const OpCounts& o) {
    attempted += o.attempted;
    succeeded += o.succeeded;
    failed += o.failed;
    shed += o.shed;
  }
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// Everything one run reports. `metrics` is what the last stdout line
/// carries (end-to-end names untraced, per-layer names traced); `info`
/// holds the named figures the report file and the text table add.
struct RunResult {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool correct = true;
  std::vector<std::string> errors;
  std::map<std::string, OpCounts> ops;
  std::map<std::string, Metric> metrics;
  std::map<std::string, Metric> info;
  /// Extra JSON members for the report file (name -> raw JSON value).
  std::map<std::string, std::string> extra_json;

  void Fail(const std::string& why);
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Info(const std::string& name, double value, const std::string& unit) {
    info[name] = Metric{value, unit};
  }
  uint64_t Attempted() const;
  uint64_t Failed() const;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string daemon_path;
  std::string out_dir;
  std::string git_sha = "unknown";
  std::string src_lines = "unknown";
};

/// The metric names (and units) a run reports: end-to-end untraced,
/// per-layer traced. A traced run reports a layer metric its workload
/// does not exercise as 0.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Peak resident set (VmHWM) of `pid` (0 = this process), in MiB.
double PeakRssMb(int pid = 0);

/// CPU time all threads of `pid` have run so far, in ns, summed from
/// /proc/<pid>/task/*/schedstat (finer than /proc/<pid>/stat's clock
/// ticks). Time the host stole is not counted.
uint64_t CpuNs(int pid);

/// CPU time the calling thread has run so far, in ns.
uint64_t ThreadCpuNs();

/// Host CPU time stolen from this VM (the "steal" column of /proc/stat),
/// in clock ticks summed over all CPUs.
uint64_t StealTicks();
/// Stolen share of all CPUs' time between two StealTicks() readings taken
/// `seconds` apart, in percent. Loopback serving is very sensitive to it.
double StealPercent(uint64_t before, uint64_t after, double seconds);

/// nproc, CPU model, kernel, compiler and build type as a JSON object.
std::string HostFingerprintJson();

std::string JsonEscape(const std::string& s);
/// Full-precision number formatting (no trailing-zero trimming games).
std::string Num(double v);

/// splitmix64: seeds every derived stream from the run's --seed.
uint64_t Mix(uint64_t x);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
