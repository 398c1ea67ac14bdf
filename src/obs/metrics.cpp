#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/json_writer.hpp"

namespace resex::obs {
namespace {

std::uint64_t nowNanos() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Prometheus metric names allow [a-zA-Z0-9_:]; map everything else to '_'.
std::string promName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

void raiseMax(std::atomic<double>& max, double v) noexcept {
  double cur = max.load(std::memory_order_relaxed);
  while (v > cur && !max.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::string promNumber(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

Histogram::Histogram(double floor, int subBucketsPerOctave)
    : floor_(floor), subBuckets_(subBucketsPerOctave),
      counts_(subBucketsPerOctave > 0
                  ? static_cast<std::size_t>(kOctaves * subBucketsPerOctave) + 1
                  : 0) {
  if (!(floor > 0.0) || !std::isfinite(floor))
    throw std::invalid_argument("Histogram: floor must be finite and > 0");
  if (subBucketsPerOctave <= 0)
    throw std::invalid_argument("Histogram: subBuckets must be > 0");
}

Histogram::Histogram(const Histogram& other)
    : floor_(other.floor_), subBuckets_(other.subBuckets_),
      counts_(other.counts_.size()) {
  *this = other;
}

Histogram& Histogram::operator=(const Histogram& other) {
  if (this == &other) return *this;
  if (counts_.size() != other.counts_.size())
    counts_ = std::vector<std::atomic<std::uint64_t>>(other.counts_.size());
  floor_ = other.floor_;
  subBuckets_ = other.subBuckets_;
  // The total is recounted from the copied buckets, so a snapshot taken
  // while writers run is still self-consistent.
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const std::uint64_t n = other.countAt(b);
    counts_[b].store(n, std::memory_order_relaxed);
    total += n;
  }
  total_.store(total, std::memory_order_relaxed);
  sum_.store(other.sum(), std::memory_order_relaxed);
  max_.store(other.maxSeen(), std::memory_order_relaxed);
  return *this;
}

std::size_t Histogram::bucketFor(double x) const noexcept {
  if (!(x > floor_)) return 0;
  const double b = std::ceil(std::log2(x / floor_) * subBuckets_);
  const auto last = static_cast<double>(counts_.size() - 1);
  return static_cast<std::size_t>(std::min(b, last));
}

void Histogram::observe(double x) noexcept {
  if (std::isnan(x)) return;
  counts_[bucketFor(x)].fetch_add(1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(x, std::memory_order_relaxed);
  raiseMax(max_, x);
}

void Histogram::merge(const Histogram& other) {
  if (other.floor_ != floor_ || other.subBuckets_ != subBuckets_)
    throw std::invalid_argument("Histogram::merge: bucket geometry differs");
  for (std::size_t b = 0; b < counts_.size(); ++b)
    counts_[b].fetch_add(other.countAt(b), std::memory_order_relaxed);
  total_.fetch_add(other.totalCount(), std::memory_order_relaxed);
  sum_.fetch_add(other.sum(), std::memory_order_relaxed);
  raiseMax(max_, other.maxSeen());
}

void Histogram::reset() noexcept {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  total_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

double Histogram::meanValue() const noexcept {
  const std::uint64_t n = totalCount();
  return n ? sum() / static_cast<double>(n) : 0.0;
}

double Histogram::quantile(double q) const noexcept {
  const std::uint64_t n = totalCount();
  if (n == 0) return 0.0;
  const double max = maxSeen();
  q = std::clamp(q, 0.0, 1.0);
  if (q >= 1.0) return max;
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(n - 1));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    seen += countAt(b);
    if (seen <= target) continue;
    // Geometric midpoint of the bucket; for the top occupied bucket it can
    // exceed the largest sample, so never report beyond maxSeen.
    const double mid =
        b == 0 ? floor_
               : floor_ * std::exp2((static_cast<double>(b) - 0.5) / subBuckets_);
    return std::min(mid, max);
  }
  return max;
}

std::size_t Histogram::bucketCount() const noexcept {
  std::size_t b = counts_.size();
  while (b > 0 && countAt(b - 1) == 0) --b;
  return b;
}

double Histogram::bucketUpper(std::size_t bucket) const noexcept {
  if (bucket + 1 >= counts_.size()) return std::numeric_limits<double>::infinity();
  return floor_ * std::exp2(static_cast<double>(bucket) / subBuckets_);
}

void Series::append(double a, double b, double c, double d) {
  std::lock_guard lock(mutex_);
  points_.push_back({a, b, c, d});
}

void Series::appendAll(const Series& other) {
  const std::vector<Point> copied = other.points();
  std::lock_guard lock(mutex_);
  points_.insert(points_.end(), copied.begin(), copied.end());
}

std::vector<Series::Point> Series::points() const {
  std::lock_guard lock(mutex_);
  return points_;
}

std::size_t Series::size() const {
  std::lock_guard lock(mutex_);
  return points_.size();
}

void Series::reset() {
  std::lock_guard lock(mutex_);
  points_.clear();
}

ScopedLatencyUs::ScopedLatencyUs(Histogram& hist) noexcept
    : hist_(&hist), startNs_(nowNanos()) {}

ScopedLatencyUs::~ScopedLatencyUs() {
  hist_->observe(static_cast<double>(nowNanos() - startNs_) * 1e-3);
}

std::string MetricsSnapshot::toJson() const {
  JsonWriter json;
  json.beginObject();
  json.key("counters").beginObject();
  for (const auto& [name, value] : counters) json.field(name, value);
  json.endObject();
  json.key("gauges").beginObject();
  for (const auto& [name, value] : gauges) json.field(name, value);
  json.endObject();
  json.key("histograms").beginObject();
  for (const auto& [name, h] : histograms) {
    json.key(name).beginObject();
    json.field("count", h.totalCount());
    json.field("sum", h.sum());
    json.field("max", h.maxSeen());
    json.key("buckets").beginArray();
    for (std::size_t b = 0; b < h.bucketCount(); ++b) {
      json.beginObject();
      const double le = h.bucketUpper(b);
      if (std::isfinite(le))
        json.field("le", le);
      else
        json.field("le", "inf");
      json.field("count", h.countAt(b));
      json.endObject();
    }
    json.endArray();
    json.endObject();
  }
  json.endObject();
  json.key("series").beginObject();
  for (const SeriesData& s : series) {
    json.key(s.name).beginArray();
    for (const Series::Point& p : s.points) {
      json.beginArray();
      for (const double v : p) json.value(v);
      json.endArray();
    }
    json.endArray();
  }
  json.endObject();
  json.endObject();
  return json.str();
}

std::string MetricsSnapshot::toPrometheusText() const {
  std::string out;
  char line[256];
  for (const auto& [name, value] : counters) {
    // Scrape-shaped counter exposition: the conventional `_total` suffix,
    // applied once (names that already carry it are left alone).
    std::string n = promName(name);
    if (n.size() < 6 || n.compare(n.size() - 6, 6, "_total") != 0)
      n += "_total";
    out += "# TYPE " + n + " counter\n";
    std::snprintf(line, sizeof line, "%s %llu\n", n.c_str(),
                  static_cast<unsigned long long>(value));
    out += line;
  }
  for (const auto& [name, value] : gauges) {
    const std::string n = promName(name);
    out += "# TYPE " + n + " gauge\n";
    out += n + " " + promNumber(value) + "\n";
  }
  for (const auto& [name, h] : histograms) {
    const std::string n = promName(name);
    out += "# TYPE " + n + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < h.bucketCount(); ++b) {
      cumulative += h.countAt(b);
      const double le = h.bucketUpper(b);
      if (!std::isfinite(le)) break;  // the overflow bucket is the +Inf line
      std::snprintf(line, sizeof line, "%s_bucket{le=\"%s\"} %llu\n", n.c_str(),
                    promNumber(le).c_str(),
                    static_cast<unsigned long long>(cumulative));
      out += line;
    }
    const auto total = static_cast<unsigned long long>(h.totalCount());
    std::snprintf(line, sizeof line, "%s_bucket{le=\"+Inf\"} %llu\n", n.c_str(), total);
    out += line;
    out += n + "_sum " + promNumber(h.sum()) + "\n";
    std::snprintf(line, sizeof line, "%s_count %llu\n", n.c_str(), total);
    out += line;
  }
  return out;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

Series& MetricsRegistry::series(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = series_[name];
  if (!slot) slot = std::make_unique<Series>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters.emplace_back(name, c->get());
  for (const auto& [name, g] : gauges_) snap.gauges.emplace_back(name, g->get());
  for (const auto& [name, h] : histograms_) snap.histograms.emplace_back(name, *h);
  for (const auto& [name, s] : series_) {
    MetricsSnapshot::SeriesData data;
    data.name = name;
    data.points = s->points();
    snap.series.push_back(std::move(data));
  }
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
  for (auto& [name, s] : series_) s->reset();
}

}  // namespace resex::obs
