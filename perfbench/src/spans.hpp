// The traced run's span recorder. Spans are taken by the benchmark's own
// code around calls into each layer's public functions (tracing inside
// the library is not used): name, start, end, parent, and a request id
// shared by every span of one request. They stay in memory, thread-safe
// behind one mutex (the traced run pays for it; the timed run records
// nothing), and are written out as JSON lines when the run ends.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock (process-wide epoch).
inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process, and of the calling thread, in
/// nanoseconds. The kernel charges a thread only for time it ran, not for
/// time the host gave its vCPU to someone else, so on a shared VM these
/// move far less with the neighbours' load than wall time does.
inline std::int64_t processCpuNs() {
  timespec t{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<std::int64_t>(t.tv_sec) * 1'000'000'000 + t.tv_nsec;
}
inline std::int64_t threadCpuNs() {
  timespec t{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<std::int64_t>(t.tv_sec) * 1'000'000'000 + t.tv_nsec;
}

/// CPU time the rest of the process spends while the calling thread runs
/// a phase: with the load generator on the calling thread, the CPU of the
/// system under test.
class OthersCpu {
 public:
  OthersCpu() : process0_(processCpuNs()), thread0_(threadCpuNs()) {}
  double elapsedUs() const {
    return static_cast<double>((processCpuNs() - process0_) - (threadCpuNs() - thread0_)) *
           1e-3;
  }

 private:
  std::int64_t process0_;
  std::int64_t thread0_;
};

struct Span {
  const char* name = "";   ///< static string: "<layer>.<what>"
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::int64_t parent = -1;  ///< index of the parent span, -1 = root
  std::uint64_t request = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity = 2'000'000) : capacity_(capacity) {}

  /// Appends a span; returns its index (-1 when the recorder is full —
  /// the span is counted as dropped).
  std::int64_t add(const char* name, std::int64_t startNs, std::int64_t endNs,
                   std::int64_t parent, std::uint64_t request);

  std::size_t size() const;
  std::uint64_t dropped() const;

  /// Self time per layer (the name up to the first '.'): each span's
  /// duration minus the part of it its children cover, summed per layer,
  /// in microseconds.
  std::map<std::string, double> selfTimeUsByLayer() const;

  /// Writes one JSON object per line: name, start_ns, end_ns, parent,
  /// request. Returns false when the file cannot be written.
  bool writeJsonLines(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
};

}  // namespace perfbench
