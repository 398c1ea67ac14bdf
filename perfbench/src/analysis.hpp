// Pure analysis helpers of the benchmark: quantiles, the knee finder over a
// fixed geometric rate ladder, the backlog test, Little's-law queue wait,
// and oracle classification of serving responses. Nothing here touches a
// socket or a clock, so every rule is covered by perfbench_tests.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "net/client.hpp"
#include "net/frame.hpp"

namespace perfbench {

/// Nearest-rank quantile (q in [0, 1]) of `values`; the input is copied
/// and left untouched. Returns 0 for an empty input.
double quantile(std::vector<double> values, double q);

/// The median, over `windows` equal consecutive slices of `values`, of
/// each slice's quantile q: one stall of the host moves one slice only.
/// Fewer values than windows fall back to the plain quantile.
double windowedQuantile(const std::vector<double>& values, double q, std::size_t windows);

/// Arithmetic mean; 0 for an empty input.
double mean(const std::vector<double>& values);

// -- Response classification ---------------------------------------------

enum class Outcome : std::uint8_t {
  kOk = 0,    ///< RESULT frame, bit-identical to the oracle (cache flag masked)
  kDegraded,  ///< RESULT frame with complete = false (a partial answer)
  kRejected,  ///< typed ERROR frame, or a RESULT flagged rejected/cancelled
  kWrong,     ///< complete RESULT frame that differs from the oracle
  kLost,      ///< no reply before the phase's drain deadline
};
inline constexpr std::size_t kOutcomeCount = 5;

/// Canonical bytes of a response for oracle comparison: the RESULT frame
/// with requestId 0 and the cache-hit flag masked off.
std::string canonicalBytes(resex::net::QueryResponse response);

/// Classifies one reply against the oracle's canonical bytes.
Outcome classify(const resex::net::Reply& reply, std::string_view expectedCanonical);

struct OutcomeCounts {
  std::uint64_t count[kOutcomeCount] = {};

  void add(Outcome o) { ++count[static_cast<std::size_t>(o)]; }
  std::uint64_t of(Outcome o) const { return count[static_cast<std::size_t>(o)]; }
  std::uint64_t total() const;
  /// Degraded + rejected + lost: the operations that failed. Wrong answers
  /// are not "failed" — any wrong answer fails the whole run.
  std::uint64_t failed() const;
  OutcomeCounts& operator+=(const OutcomeCounts& other);
};

// -- Knee finder -----------------------------------------------------------

/// Slices a rung's arrivals are judged in (see RungResult::p99Us).
inline constexpr std::size_t kRungWindows = 5;

/// The fixed rate ladder: rung k offers baseQps * 2^(k / stepsPerDoubling).
struct Ladder {
  double baseQps = 100.0;
  int stepsPerDoubling = 16;
  int maxRung = 160;
  double rungSeconds = 0.5;

  double rate(int rung) const;
};

struct KneeLimits {
  /// p99 (failed requests count as infinitely late) must stay within this.
  double p99LimitUs = 25000.0;
  /// Failed share (degraded + rejected + lost) must stay within this.
  double maxFailedShare = 0.01;
  /// Backlog test: the median latency of the last quarter of arrivals may
  /// exceed backlogRatio x the first quarter's median by at most
  /// backlogSlackUs.
  double backlogRatio = 2.0;
  double backlogSlackUs = 1000.0;
  /// The generator's median send lateness above which it did not offer the
  /// rung's load: a generator that cannot keep up falls behind on most
  /// sends, while a host stall delays only the sends due during it.
  double maxSendLateP50Us = 1000.0;
};

/// What one rung of the ladder measured.
struct RungResult {
  int rung = 0;
  double offeredQps = 0.0;
  double achievedQps = 0.0;  ///< ok responses / (first arrival -> last reply)
  double p50Us = 0.0;
  /// Median over kRungWindows slices of the rung's arrivals of each
  /// slice's p99, failed requests counted as infinitely late.
  double p99Us = 0.0;
  double firstQuarterP50Us = 0.0;  ///< first quarter of arrivals
  double lastQuarterP50Us = 0.0;   ///< last quarter of arrivals
  double sendLateP50Us = 0.0;  ///< the generator's median send lateness
  OutcomeCounts outcomes;
  bool pass = false;
  std::string why;  ///< first limit the rung broke ("" when it passed)
};

/// The backlog test on per-arrival latencies in arrival order (failed
/// arrivals as +infinity). Returns {first-quarter p50, last-quarter p50}.
std::pair<double, double> quarterMedians(const std::vector<double>& latencyUs);

/// Applies every limit to `r` (reads the measured fields, sets pass/why).
void judgeRung(RungResult& r, const KneeLimits& limits);

struct KneeResult {
  int bestRung = -1;  ///< -1: even rung 0 failed
  std::vector<RungResult> rungs;  ///< in the order they ran

  const RungResult* best() const;
};

/// Climbs the ladder in three passes — steps of stepsPerDoubling, then a
/// quarter of that, then single rungs — each starting one step above the
/// best passing rung so far and stopping at the first failure. A rung that
/// fails is run once more and fails only if the retry fails too (a single
/// stall of the host must not end the climb); a rung that failed is never
/// run again in a later pass. The result is the highest rung that passed.
KneeResult findKnee(const Ladder& ladder,
                    const std::function<RungResult(int rung)>& probe);

// -- Queueing ----------------------------------------------------------------

/// Little's law: mean wait of an item in a queue holding `meanDepth` items
/// on average while items arrive at `arrivalsPerSecond`, in microseconds.
double littleWaitUs(double meanDepth, double arrivalsPerSecond);

}  // namespace perfbench
