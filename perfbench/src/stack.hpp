// The serving stack under test, assembled the way resex_serve assembles it
// (PartitionedIndex -> Instance -> QueryBroker -> SearchService ->
// net::Server on a loopback ephemeral port), plus the pieces every serving
// workload shares: distinct-query generation and the handler wrapper the
// traced run uses to time net::Server -> SearchService::handle.
#pragma once

#include <atomic>
#include <functional>
#include <thread>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "cluster/instance.hpp"
#include "index/partition.hpp"
#include "loadgen.hpp"
#include "net/server.hpp"
#include "serve/broker.hpp"
#include "serve/search_service.hpp"
#include "util/rng.hpp"
#include "workload/zipf.hpp"

namespace perfbench {

/// FNV-1a over the term ids, in order.
std::uint64_t hashTerms(const std::vector<resex::TermId>& terms);

/// Draws queries of 1..maxTerms distinct terms, each Zipf-popular below
/// the head stopwords; next() never returns a term set it returned before.
class QueryStream {
 public:
  QueryStream(std::uint64_t seed, std::uint32_t termCount, std::uint32_t stopwords,
              double exponent, std::size_t maxTerms);
  Query next();

 private:
  resex::Rng rng_;
  resex::ZipfSampler zipf_;
  std::uint32_t stopwords_;
  std::size_t maxTerms_;
  std::unordered_set<std::uint64_t> seen_;
};

/// The traced run's wrapper around SearchService::handle: when on, it
/// records (terms hash, entry, exit) of every request the server hands it.
struct HandlerTap {
  struct Event {
    std::uint64_t hash = 0;
    std::int64_t entryNs = 0;
    std::int64_t exitNs = 0;
  };
  std::atomic<bool> on{false};
  std::mutex mutex;
  std::vector<Event> events;

  std::vector<Event> take();
};

class SpanRecorder;

/// Builds spans for a traced socket phase (request ids requestBase + i)
/// and appends ingress / handle durations (us) matched per request.
/// Handler events are matched to arrivals by terms hash in send order
/// (exact for distinct queries; for a repeated pool query two in-flight
/// copies may swap, which blurs ingress by at most their send gap).
void socketSpans(const PhaseResult& p, const Arrivals& a, const std::vector<Query>& queries,
                 std::vector<HandlerTap::Event> events, SpanRecorder& spans,
                 std::uint64_t requestBase, std::vector<double>& ingressUs,
                 std::vector<double>& handleUs);

/// resex_serve's cluster shape: partition s on machine s % machines, CPU
/// demand = document share, bytes = index bytes, loose capacities.
resex::Instance servingInstance(const resex::PartitionedIndex& index, std::size_t machines,
                                std::vector<resex::MachineId>& mapping);

resex::serve::ServeConfig servingConfig(std::uint64_t seed, std::size_t cacheEntries);

/// Broker + service + server over an index the caller owns. Members are
/// declared so the server (which calls into the service) dies first.
struct ServingStack {
  ServingStack(const resex::Instance& instance, const std::vector<resex::MachineId>& mapping,
               const resex::PartitionedIndex& index, resex::serve::ServeConfig config,
               std::vector<std::shared_ptr<const resex::InvertedIndex>> liveShards = {});
  ~ServingStack();
  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;

  std::uint16_t port() const { return server->port(); }

  HandlerTap tap;
  std::unique_ptr<resex::serve::QueryBroker> broker;
  std::unique_ptr<resex::serve::SearchService> service;
  std::unique_ptr<resex::net::Server> server;
};

/// Runs `fn` every millisecond on its own thread until stop(); the traced
/// run samples broker queue depths with it.
class Sampler {
 public:
  explicit Sampler(std::function<void()> fn);
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;
  void stop();

 private:
  std::function<void()> fn_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace perfbench
