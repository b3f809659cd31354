// The qpricerd process under test, and the metrics it exports.
#ifndef PERFBENCH_DAEMON_H_
#define PERFBENCH_DAEMON_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "qp/obs/metrics.h"

namespace perfbench {

/// A spawned qpricerd. Spawn() returns once the daemon printed its
/// "listening" line; the destructor stops it (SIGTERM, then SIGKILL after
/// a grace period) and reaps it, so no run leaves a daemon behind. The
/// child also gets SIGKILL if the benchmark itself dies.
class Daemon {
 public:
  static std::unique_ptr<Daemon> Spawn(const std::string& binary,
                                       const std::vector<std::string>& args,
                                       std::string* error);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// SIGTERM and wait; true when the daemon exited 0 (clean drain).
  bool Stop();

 private:
  Daemon(pid_t pid, uint16_t port) : pid_(pid), port_(port) {}
  pid_t pid_;
  uint16_t port_;
  /// Read end of the daemon's stdout, held open until it is reaped.
  int stdout_fd_ = -1;
  bool reaped_ = false;
};

/// Flattened metrics: counters, gauges, and histogram (count, sum).
struct MetricsView {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, std::pair<uint64_t, uint64_t>> hist;  // count, sum

  uint64_t Counter(const std::string& name) const;
  int64_t Gauge(const std::string& name) const;
  /// sum / count of a histogram, scaled by `scale` (0 when empty).
  double HistMean(const std::string& name, double scale = 1.0) const;
};

/// Parses the METRICS reply JSON (qp::MetricsToJson's layout).
bool ParseMetricsJson(const std::string& json, MetricsView* out);
MetricsView FromSnapshot(const qp::MetricsSnapshot& snapshot);
/// after - before for counters and histograms; gauges from `after`.
MetricsView Delta(const MetricsView& after, const MetricsView& before);

}  // namespace perfbench

#endif  // PERFBENCH_DAEMON_H_
