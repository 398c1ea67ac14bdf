#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace perfbench {

std::int64_t SpanRecorder::add(const char* name, std::int64_t startNs,
                               std::int64_t endNs, std::int64_t parent,
                               std::uint64_t request) {
  std::lock_guard lock(mutex_);
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return -1;
  }
  spans_.push_back(Span{name, startNs, endNs, parent, request});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

std::size_t SpanRecorder::size() const {
  std::lock_guard lock(mutex_);
  return spans_.size();
}

std::uint64_t SpanRecorder::dropped() const {
  std::lock_guard lock(mutex_);
  return dropped_;
}

std::map<std::string, double> SpanRecorder::selfTimeUsByLayer() const {
  std::lock_guard lock(mutex_);
  // Children per parent, as [start, end) intervals clipped to the parent.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans_.size())
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.startNs, s.endNs);
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals inside the parent.
    std::int64_t covered = 0, reach = s.startNs;
    for (auto [a, b] : kids) {
      a = std::max(a, reach);
      b = std::min(b, s.endNs);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    const std::string name(s.name);
    const std::string layer = name.substr(0, name.find('.'));
    const std::int64_t own = std::max<std::int64_t>(0, s.endNs - s.startNs - covered);
    self[layer] += static_cast<double>(own) * 1e-3;
  }
  return self;
}

bool SpanRecorder::writeJsonLines(const std::string& path) const {
  std::lock_guard lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  char line[256];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                  "\"parent\":%lld,\"request\":%llu}\n",
                  s.name, static_cast<long long>(s.startNs),
                  static_cast<long long>(s.endNs), static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out << line;
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
