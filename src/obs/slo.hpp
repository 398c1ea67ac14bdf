// Windowed SLO tracking: sliding-window latency quantiles and error-budget
// burn rate, per query class.
//
// The metrics registry's histograms are cumulative-forever — right for
// scrapes, useless for "what is p99 *right now*". An SloWindow is a ring
// of time buckets, each holding a log-bucketed latency Histogram plus
// total/error counts; recording lands in the bucket covering `now`, and a
// read merges only the buckets inside the window, so quantiles cover
// exactly the last `windowSeconds` of traffic. Buckets older than the
// window are zeroed lazily as the clock advances over them — no
// maintenance thread.
//
// This is the primitive the "p99 during migration stays within budget of
// steady-state p99" gate is built on: sample the window before the
// migration starts, compare against it while moves are in flight.
//
// Burn rate follows the SRE convention: (observed error rate over the
// window) / (error budget rate), where the budget rate is 1 - SLO target.
// A burn rate of 1.0 consumes the budget exactly as fast as it accrues;
// sustained > 1.0 means the SLO will be violated.
//
// All methods take an explicit `nowSeconds` (any monotone clock) so tests
// and replayers control time; the zero-argument overloads use the tracing
// clock (obs::nowMicros).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace resex::obs {

struct SloConfig {
  /// Sliding window covered by quantile/burn-rate reads.
  double windowSeconds = 60.0;
  /// Ring granularity; window/bucket = number of live buckets.
  double bucketSeconds = 5.0;
  /// Availability target (fraction of queries that must succeed);
  /// 1 - objective is the error budget rate.
  double objective = 0.999;
  /// Latency threshold recorded alongside availability: a sample counts
  /// against `latencyBudgetBreaches` when it exceeds this. <= 0 disables.
  double p99TargetSeconds = 0.0;
};

/// Point-in-time view of one class's window.
struct SloSnapshot {
  std::string name;
  double windowSeconds = 0.0;
  std::uint64_t total = 0;
  std::uint64_t errors = 0;
  std::uint64_t latencyBreaches = 0;
  double p50 = 0.0, p90 = 0.0, p99 = 0.0;
  double meanLatency = 0.0;
  double errorRate = 0.0;
  /// errorRate / (1 - objective); 0 when the window is empty.
  double burnRate = 0.0;
  double objective = 0.0;
  double p99TargetSeconds = 0.0;
};

/// One query class's ring-of-buckets window. Thread-safe; records take a
/// mutex (queries are the producers — thousands/sec, far below contention).
class SloWindow {
 public:
  explicit SloWindow(SloConfig config);

  /// Records one query outcome at `nowSeconds`.
  void record(double latencySeconds, bool error, double nowSeconds);
  void record(double latencySeconds, bool error);

  /// Merged view of the buckets inside [now - window, now].
  SloSnapshot snapshotAt(double nowSeconds) const;
  SloSnapshot snapshot() const;

  /// Quantile over the live window, computed from the merged histogram of
  /// the in-window buckets — any q in [0, 1], not just the canned
  /// p50/p90/p99 snapshot points.
  double quantileAt(double q, double nowSeconds) const;
  double quantile(double q) const;

  const SloConfig& config() const noexcept { return config_; }

 private:
  struct Bucket {
    std::int64_t index = -1;  ///< absolute bucket number; -1 = empty
    Histogram latency{1e-6, 8};
    std::uint64_t total = 0;
    std::uint64_t errors = 0;
    std::uint64_t latencyBreaches = 0;
    void reset(std::int64_t newIndex);
  };

  /// The ring slot covering absolute bucket `index`, rotated in if stale.
  Bucket& bucketFor(std::int64_t index);
  /// Merged histogram of the buckets inside [now - window, now]; when
  /// `counts` is non-null the bucket totals/errors/breaches sum into it.
  Histogram mergedAt(double nowSeconds, SloSnapshot* counts) const;

  SloConfig config_;
  std::size_t bucketCount_;
  mutable std::mutex mutex_;
  mutable std::vector<Bucket> ring_;
};

/// Name -> SloWindow registry, one entry per query class ("interactive",
/// "batch", per-phase bench classes, ...). References stay valid forever,
/// mirroring MetricsRegistry.
class SloRegistry {
 public:
  static SloRegistry& global();

  /// Finds or creates. Config applies on first registration; a later call
  /// with a *different* config for the same name throws
  /// std::invalid_argument — two query classes silently sharing one
  /// window (first config wins) is exactly the bug multi-tenant SLO
  /// registration would trip over. Use find() for config-agnostic reads.
  SloWindow& window(const std::string& name, SloConfig config = {});

  /// Pure lookup: the registered window, or nullptr. Never creates and
  /// never compares configs — the read-path companion to window().
  SloWindow* find(const std::string& name) const;

  std::vector<SloSnapshot> snapshotAll() const;
  /// JSON for the /debug/slo endpoint: {"classes":[{...}, ...]}.
  std::string toJson() const;
  /// Drops every registered class (tests).
  void reset();

 private:
  mutable std::mutex mutex_;
  std::vector<std::pair<std::string, std::unique_ptr<SloWindow>>> windows_;
};

}  // namespace resex::obs
