#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

void Tracer::Merge(const Tracer& other) {
  const int64_t base = static_cast<int64_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
}

std::map<std::string, Samples> Tracer::Durations() const {
  std::map<std::string, Samples> out;
  for (const Span& s : spans_) {
    if (s.end_ns < s.start_ns) continue;  // never closed
    out[s.name].Add(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

std::map<std::string, Samples> Tracer::SelfTimes() const {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= s.start_ns) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::map<std::string, Samples> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < s.start_ns) continue;
    // Union of the child intervals, clipped to the parent's interval.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    uint64_t covered = 0;
    uint64_t cur_start = 0;
    uint64_t cur_end = 0;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::max(a, s.start_ns);
      b = std::min(b, s.end_ns);
      if (b <= a) continue;
      if (open && a <= cur_end) {
        cur_end = std::max(cur_end, b);
      } else {
        if (open) covered += cur_end - cur_start;
        cur_start = a;
        cur_end = b;
        open = true;
      }
    }
    if (open) covered += cur_end - cur_start;
    out[s.name].Add(static_cast<double>(s.end_ns - s.start_ns - covered) /
                    1e3);
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start_ns\": %llu, \"end_ns\": %llu, "
                 "\"parent\": %lld, \"request\": %llu}\n",
                 s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
