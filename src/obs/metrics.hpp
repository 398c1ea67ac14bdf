// Process-wide metrics registry: counters, gauges, log-bucketed latency
// histograms, and append-only series.
//
// Recording is the hot path and is lock-free: every instrument is a fixed
// set of relaxed atomics, and the registry hands out references that stay
// valid for the life of the process (reset() zeroes values, it never
// deregisters). Name lookup takes a mutex, so call sites cache the
// reference (`static obs::Counter& c = registry.counter("x")`) or hoist it
// out of their loop. Snapshots read the same atomics and export through
// the existing JsonWriter (JSON) or Prometheus text exposition.
//
// Naming convention: `subsystem.noun` in lowercase with dots
// ("lns.iterations", "query.latency_us"); units go in the suffix.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace resex::obs {

/// Monotonic event count. Relaxed atomics: totals are exact once writer
/// threads are quiescent (joined or synchronized), which is when snapshots
/// are taken.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t get() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written double value (utilization, CV, seconds, ...).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    // fetch_add on atomic<double> compiles to a CAS loop; gauges are not
    // hot enough for that to matter.
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Monotone high-water update: keeps the larger of the current value and
  /// `v` (peak queue depth, worst backlog, ...). Lock-free CAS loop.
  void max(double v) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  double get() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-bucketed histogram for latency-like positive values: constant
/// relative error (~ +/- 2^(1/subBuckets)), quantiles without retaining
/// samples. Bucket 0 holds samples <= floor; bucket b holds
/// (floor * 2^((b-1)/s), floor * 2^(b/s)] for s sub-buckets per octave,
/// over kOctaves octaves; the last bucket also takes everything above.
/// Counts are relaxed atomics over that fixed range, so observe() is
/// lock-free; a copy is a snapshot.
class Histogram {
 public:
  static constexpr int kOctaves = 40;

  /// The default geometry is the registry's: microseconds from 1 us.
  explicit Histogram(double floor = 1.0, int subBucketsPerOctave = 8);
  Histogram(const Histogram& other);
  Histogram& operator=(const Histogram& other);

  /// Records one sample; NaN is ignored.
  void observe(double x) noexcept;
  /// Adds `other`'s samples. Both must share floor and sub-buckets (bucket
  /// edges line up); a mismatch throws std::invalid_argument.
  void merge(const Histogram& other);
  void reset() noexcept;

  std::uint64_t totalCount() const noexcept {
    return total_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  double maxSeen() const noexcept { return max_.load(std::memory_order_relaxed); }
  double meanValue() const noexcept;
  /// Quantile q in [0,1]: the geometric midpoint of the bucket holding the
  /// q-th sample, clamped to maxSeen() so no quantile exceeds the largest
  /// sample; q == 1 returns maxSeen() exactly. Empty histogram returns 0.
  double quantile(double q) const noexcept;

  /// Buckets up to the highest occupied one (exports stop there).
  std::size_t bucketCount() const noexcept;
  std::uint64_t countAt(std::size_t bucket) const noexcept {
    return counts_[bucket].load(std::memory_order_relaxed);
  }
  /// Inclusive upper edge of `bucket`; +inf for the last bucket.
  double bucketUpper(std::size_t bucket) const noexcept;

 private:
  std::size_t bucketFor(double x) const noexcept;

  double floor_;
  int subBuckets_;
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::uint64_t> total_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

/// Append-only series of up to four doubles per point — the metrics-layer
/// home for solver trajectories and other per-run curves. Appends take a
/// mutex (trajectory points are rare: new bests, epoch marks).
class Series {
 public:
  using Point = std::array<double, 4>;

  void append(double a, double b = 0.0, double c = 0.0, double d = 0.0);
  void appendAll(const Series& other);
  std::vector<Point> points() const;
  std::size_t size() const;
  void reset();

 private:
  mutable std::mutex mutex_;
  std::vector<Point> points_;
};

/// RAII latency recorder: observes elapsed microseconds into a histogram
/// at scope exit.
class ScopedLatencyUs {
 public:
  explicit ScopedLatencyUs(Histogram& hist) noexcept;
  ~ScopedLatencyUs();
  ScopedLatencyUs(const ScopedLatencyUs&) = delete;
  ScopedLatencyUs& operator=(const ScopedLatencyUs&) = delete;

 private:
  Histogram* hist_;
  std::uint64_t startNs_;
};

/// Point-in-time copy of every registered instrument.
struct MetricsSnapshot {
  struct SeriesData {
    std::string name;
    std::vector<Series::Point> points;
  };

  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, Histogram>> histograms;
  std::vector<SeriesData> series;

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...},
  /// "series":{...}}.
  std::string toJson() const;
  /// Prometheus text exposition ('.' in names becomes '_').
  std::string toPrometheusText() const;
};

class MetricsRegistry {
 public:
  /// The process-wide registry every instrumented subsystem records into.
  static MetricsRegistry& global();

  /// Finds or creates; the returned reference is valid forever.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Microsecond latencies (the default Histogram geometry).
  Histogram& histogram(const std::string& name);
  Series& series(const std::string& name);

  MetricsSnapshot snapshot() const;
  /// Zeroes every instrument in place; previously returned references stay
  /// valid (tests and benches isolate runs this way).
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<Series>> series_;
};

}  // namespace resex::obs
