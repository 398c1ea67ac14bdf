// Query-serving simulation of a document-partitioned search cluster.
//
// Every query fans out to all index shards; a machine serves the combined
// work of its resident shards through a FIFO queue; the query completes
// when its slowest machine finishes (scatter-gather). Per-machine FIFO
// with Poisson arrivals is simulated exactly without an event queue: in
// arrival order, finish_m(q) = max(arrival_q, lastFinish_m) + service.
#pragma once

#include "cluster/instance.hpp"
#include "search/query.hpp"
#include "obs/metrics.hpp"

namespace resex {

struct SimulationConfig {
  std::uint64_t seed = 1;
  /// Poisson query arrival rate (queries per second).
  double arrivalRate = 200.0;
  /// Number of queries to simulate.
  std::size_t queryCount = 20000;
  /// Work units one unit of CPU capacity processes per second. A machine
  /// with capacity[0] == c serves at rate c * workUnitsPerCapacity.
  double workUnitsPerCapacity = 0.01;
  /// Fraction of a shard's exhaustive scan cost a query actually incurs,
  /// in (0, 1]. The analytic cost model assumes full-scan work per query;
  /// the materialized kernel prunes some of it (MaxScore — see
  /// bench/query_bench for the measured scanned/df ratio), which this
  /// factor folds back into the simulator. 1.0 keeps the exhaustive model.
  double pruningFactor = 1.0;
};

struct SimulationResult {
  obs::Histogram latency{1e-5, 12};
  std::size_t queries = 0;
  double durationSeconds = 0.0;
  /// Fraction of the simulated horizon each machine spent busy.
  std::vector<double> machineBusyFraction;

  double p50() const noexcept { return latency.quantile(0.50); }
  double p95() const noexcept { return latency.quantile(0.95); }
  double p99() const noexcept { return latency.quantile(0.99); }
  double meanLatency() const noexcept { return latency.meanValue(); }
};

/// Simulates `config.queryCount` queries against a cluster where shard
/// `s` holds `docFraction[s]` of the corpus and resides on machine
/// `mapping[s]` of `instance`. Machine service rate comes from
/// capacity[0] (the CPU dimension).
///
/// With replication (instance.hasReplication()), each query routes to ONE
/// replica per group, chosen by power-of-two-choices on the replicas'
/// machine backlogs; replicas of a group must share their docFraction.
SimulationResult simulateQueries(const Instance& instance,
                                 const std::vector<MachineId>& mapping,
                                 const std::vector<double>& docFraction,
                                 const QueryGenerator& queries,
                                 const SimulationConfig& config);

}  // namespace resex
