#include "daemon.h"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>

namespace perfbench {
namespace {

constexpr int kStartTimeoutMs = 60000;
constexpr int kStopGraceMs = 10000;

/// Waits up to `timeout_ms` for `pid` to exit; true when reaped.
bool WaitExit(pid_t pid, int timeout_ms, int* status) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    pid_t r = waitpid(pid, status, WNOHANG);
    if (r == pid) return true;
    if (r < 0) return true;  // already reaped elsewhere: nothing to wait on
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace

std::unique_ptr<Daemon> Daemon::Spawn(const std::string& binary,
                                      const std::vector<std::string>& args,
                                      std::string* error) {
  int fds[2];
  if (pipe(fds) != 0) {
    *error = "pipe failed";
    return nullptr;
  }
  std::vector<std::string> argv_store = {binary};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    *error = "fork failed";
    return nullptr;
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(fds[1]);

  // Read until the "listening on 127.0.0.1:<port>" line.
  std::string out;
  uint16_t port = 0;
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(kStartTimeoutMs);
  while (port == 0) {
    int left = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now())
            .count());
    struct pollfd p {fds[0], POLLIN, 0};
    if (left <= 0 || poll(&p, 1, left) <= 0) break;
    char buf[256];
    ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n <= 0) break;
    out.append(buf, static_cast<size_t>(n));
    size_t at = out.find("listening on 127.0.0.1:");
    if (at != std::string::npos && out.find('\n', at) != std::string::npos) {
      port = static_cast<uint16_t>(
          std::strtoul(out.c_str() + at + std::strlen("listening on 127.0.0.1:"),
                       nullptr, 10));
    }
  }
  // Keep the pipe's read end open for the daemon's lifetime: its shutdown
  // line must not hit a closed pipe (SIGPIPE would make the exit unclean).
  auto daemon = std::unique_ptr<Daemon>(new Daemon(pid, port));
  daemon->stdout_fd_ = fds[0];
  if (port == 0) {
    *error = "qpricerd did not report a listening port";
    return nullptr;  // destructor kills and reaps
  }
  return daemon;
}

bool Daemon::Stop() {
  if (reaped_) return false;
  kill(pid_, SIGTERM);
  int status = 0;
  if (!WaitExit(pid_, kStopGraceMs, &status)) {
    kill(pid_, SIGKILL);
    WaitExit(pid_, kStopGraceMs, &status);
    status = -1;
  }
  reaped_ = true;
  if (stdout_fd_ >= 0) close(stdout_fd_);
  stdout_fd_ = -1;
  return status == 0;
}

Daemon::~Daemon() {
  if (!reaped_) Stop();
}

uint64_t MetricsView::Counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

int64_t MetricsView::Gauge(const std::string& name) const {
  auto it = gauges.find(name);
  return it == gauges.end() ? 0 : it->second;
}

double MetricsView::HistMean(const std::string& name, double scale) const {
  auto it = hist.find(name);
  if (it == hist.end() || it->second.first == 0) return 0;
  return static_cast<double>(it->second.second) /
         static_cast<double>(it->second.first) * scale;
}

bool ParseMetricsJson(const std::string& json, MetricsView* out) {
  // The layout is fixed (qp::MetricsToJson): one member per line inside
  // the "counters", "gauges" and "histograms" objects.
  std::istringstream in(json);
  std::string line;
  enum { kNone, kCounters, kGauges, kHist } section = kNone;
  bool any = false;
  while (std::getline(in, line)) {
    if (line.find("\"counters\":") != std::string::npos) {
      section = kCounters;
      any = true;
      continue;
    }
    if (line.find("\"gauges\":") != std::string::npos) {
      section = kGauges;
      continue;
    }
    if (line.find("\"histograms\":") != std::string::npos) {
      section = kHist;
      continue;
    }
    size_t q1 = line.find('"');
    if (q1 == std::string::npos) continue;
    size_t q2 = line.find('"', q1 + 1);
    if (q2 == std::string::npos) continue;
    std::string name = line.substr(q1 + 1, q2 - q1 - 1);
    const char* rest = line.c_str() + q2 + 1;
    while (*rest == ':' || *rest == ' ') ++rest;
    if (section == kCounters) {
      out->counters[name] = std::strtoull(rest, nullptr, 10);
    } else if (section == kGauges) {
      out->gauges[name] = std::strtoll(rest, nullptr, 10);
    } else if (section == kHist) {
      size_t c = line.find("\"count\": ");
      size_t s = line.find("\"sum\": ");
      if (c == std::string::npos || s == std::string::npos) continue;
      out->hist[name] = {std::strtoull(line.c_str() + c + 9, nullptr, 10),
                         std::strtoull(line.c_str() + s + 7, nullptr, 10)};
    }
  }
  return any;
}

MetricsView FromSnapshot(const qp::MetricsSnapshot& snapshot) {
  MetricsView v;
  for (const auto& c : snapshot.counters) v.counters[c.name] = c.value;
  for (const auto& g : snapshot.gauges) v.gauges[g.name] = g.value;
  for (const auto& h : snapshot.histograms) v.hist[h.name] = {h.count, h.sum};
  return v;
}

MetricsView Delta(const MetricsView& after, const MetricsView& before) {
  MetricsView d;
  for (const auto& [name, value] : after.counters) {
    d.counters[name] = value - before.Counter(name);
  }
  d.gauges = after.gauges;
  for (const auto& [name, cs] : after.hist) {
    auto it = before.hist.find(name);
    std::pair<uint64_t, uint64_t> b =
        it == before.hist.end() ? std::pair<uint64_t, uint64_t>{0, 0}
                                : it->second;
    d.hist[name] = {cs.first - b.first, cs.second - b.second};
  }
  return d;
}

}  // namespace perfbench
