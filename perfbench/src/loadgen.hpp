// Open-loop load generation: one generator thread, a Poisson schedule, and
// two arms that replay the same schedule — over sockets (net::Client, at
// most a handful of pipelined connections multiplexed by one poll set) and
// in process (QueryBroker::submit with a completion callback). Latency is
// measured from each request's *scheduled* arrival, so a stall charges
// every request due during it. Pacing sleeps to the exact due time
// (ppoll / clock_nanosleep with 1 ns timer slack) instead of on
// millisecond ticks, and the generator records how late it ran.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis.hpp"
#include "index/scoring.hpp"
#include "net/client.hpp"
#include "serve/broker.hpp"
#include "util/rng.hpp"

namespace perfbench {

using Query = std::vector<resex::TermId>;

/// One open-loop schedule: arrival i is due offsets[i] seconds after the
/// phase starts and asks query[i] (an index into the phase's query list).
struct Arrivals {
  std::vector<double> offsets;
  std::vector<std::uint32_t> query;
};

/// Poisson arrivals at `qps` over `seconds`; `pick(rng)` chooses each
/// arrival's query index.
Arrivals poissonArrivals(double qps, double seconds, resex::Rng& rng,
                         const std::function<std::uint32_t(resex::Rng&)>& pick);

/// What one phase measured, per arrival.
struct PhaseResult {
  std::vector<double> latencyUs;  ///< scheduled arrival -> reply; +inf unless ok
  std::vector<Outcome> outcome;
  std::vector<double> lateUs;     ///< send time - scheduled time
  std::vector<std::int64_t> scheduledNs, sendNs, replyNs;  ///< 0 = never
  OutcomeCounts counts;
  /// First scheduled arrival -> last reply (or the drain deadline).
  double spanSeconds = 0.0;

  /// Quantile over the ok responses only.
  double okQuantileUs(double q) const;
  /// The median, over consecutive windows of `window` arrivals, of each
  /// window's ok-response quantile q: a tail estimate that one stall of the
  /// host (a vCPU descheduled for milliseconds) moves by one window only.
  double windowedQuantileUs(double q, std::size_t window) const;
  /// Each window's ok-response quantile q, in arrival order.
  std::vector<double> windowQuantilesUs(double q, std::size_t window) const;
  /// Summary as one ladder rung (offered rate given; limits not applied).
  RungResult asRung(double offeredQps) const;
};

/// Prints one line: each window's p50/p99 (ok responses), for the record.
void printWindowQuantiles(const PhaseResult& phase, std::size_t window);

/// Sets this thread's timer slack to 1 ns so timed sleeps wake on time.
void tightenTimerSlack();

class SocketLoadGen {
 public:
  SocketLoadGen(std::uint16_t port, std::size_t connections);

  /// Replays `arrivals` against the server: sends each request at its due
  /// time on connection (arrival % connections), classifies every reply
  /// against `expected[query]` (canonical bytes), and waits up to
  /// `drainSeconds` after the last arrival for outstanding replies
  /// (the rest are lost).
  PhaseResult run(const Arrivals& arrivals, const std::vector<Query>& queries,
                  const std::vector<std::string>& expected, double drainSeconds);

 private:
  void account(std::size_t c, const resex::net::Reply& reply, PhaseResult& out,
               const std::vector<std::uint32_t>& query,
               const std::vector<std::string>& expected, std::size_t& outstanding);

  std::vector<std::unique_ptr<resex::net::Client>> clients_;
  /// Per connection: the next requestId the client will assign (ids are
  /// sequential from 1), the first id of the current phase, and the
  /// arrival each id of the current phase carried. Replies with an id
  /// below the phase's first are stragglers of an earlier phase.
  std::vector<std::uint64_t> nextId_, phaseFirstId_;
  std::vector<std::vector<std::uint32_t>> arrivalOf_;
};

/// The in-process arm: the same schedule through QueryBroker::submit
/// (transport contract: never wait for queue space), completion callback
/// on whichever thread finishes the query. `brokerUs`, when non-null,
/// receives submit() -> completion per ok arrival.
PhaseResult runInProcess(resex::serve::QueryBroker& broker, const Arrivals& arrivals,
                         const std::vector<Query>& queries,
                         const std::vector<std::string>& expected, double drainSeconds,
                         std::vector<double>* brokerUs);

/// Oracle answers: canonical bytes of an uncached twin broker's execute()
/// for every query, computed on `threads` client threads.
std::vector<std::string> oracleAnswers(resex::serve::QueryBroker& uncachedTwin,
                                       const std::vector<Query>& queries,
                                       std::size_t threads);

}  // namespace perfbench
