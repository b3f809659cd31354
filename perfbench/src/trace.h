// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own code around calls into each layer's public functions;
// nothing inside the library is instrumented. One Tracer per thread (no
// locking); threads' tracers are merged after they join.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  /// Index of the causing span in the same tracer, -1 for a root.
  int64_t parent = -1;
  /// Spans of one request share this id.
  uint64_t request = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled, size_t reserve = 0) : enabled_(enabled) {
    if (enabled_) spans_.reserve(reserve);
  }

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its index (-1 when tracing is off).
  int64_t Begin(const char* name, uint64_t request, int64_t parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, NowNs(), 0, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void End(int64_t index) {
    if (index >= 0) spans_[static_cast<size_t>(index)].end_ns = NowNs();
  }

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t request,
          int64_t parent = -1)
        : tracer_(tracer), index_(tracer->Begin(name, request, parent)) {}
    ~Scope() { tracer_->End(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int64_t index() const { return index_; }

   private:
    Tracer* tracer_;
    int64_t index_;
  };

  /// Appends `other`'s spans, re-basing their parent indexes.
  void Merge(const Tracer& other);

  /// Duration samples (µs) per span name.
  std::map<std::string, Samples> Durations() const;
  /// Self time (µs) per span name: each span's duration minus the part
  /// of its interval covered by its child spans.
  std::map<std::string, Samples> SelfTimes() const;

  /// Writes one JSON object per span (name, start/end ns, parent,
  /// request) to `path`. Returns false on an I/O error.
  bool WriteJsonLines(const std::string& path) const;

  size_t size() const { return spans_.size(); }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
