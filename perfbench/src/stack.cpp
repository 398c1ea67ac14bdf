#include "stack.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <unordered_map>

#include "config.hpp"
#include "spans.hpp"

namespace perfbench {

std::uint64_t hashTerms(const std::vector<resex::TermId>& terms) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const resex::TermId t : terms) {
    for (int b = 0; b < 4; ++b) {
      h ^= (t >> (8 * b)) & 0xffu;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

QueryStream::QueryStream(std::uint64_t seed, std::uint32_t termCount,
                         std::uint32_t stopwords, double exponent, std::size_t maxTerms)
    : rng_(seed), zipf_(termCount - stopwords, exponent), stopwords_(stopwords),
      maxTerms_(maxTerms) {}

Query QueryStream::next() {
  for (;;) {
    const std::size_t n = 1 + rng_.below(maxTerms_);
    Query q;
    while (q.size() < n) {
      const auto t = static_cast<resex::TermId>(stopwords_ + zipf_.sample(rng_) - 1);
      if (std::find(q.begin(), q.end(), t) == q.end()) q.push_back(t);
    }
    Query sorted = q;
    std::sort(sorted.begin(), sorted.end());
    if (seen_.insert(hashTerms(sorted)).second) return q;
  }
}

std::vector<HandlerTap::Event> HandlerTap::take() {
  std::lock_guard lock(mutex);
  std::vector<Event> out;
  out.swap(events);
  return out;
}

void socketSpans(const PhaseResult& p, const Arrivals& a, const std::vector<Query>& queries,
                 std::vector<HandlerTap::Event> events, SpanRecorder& spans,
                 std::uint64_t requestBase, std::vector<double>& ingressUs,
                 std::vector<double>& handleUs) {
  std::vector<std::size_t> order(p.sendNs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) { return p.sendNs[x] < p.sendNs[y]; });
  std::unordered_map<std::uint64_t, std::deque<std::size_t>> byHash;
  for (const std::size_t i : order)
    if (p.sendNs[i] != 0) byHash[hashTerms(queries[a.query[i]])].push_back(i);
  std::vector<const HandlerTap::Event*> matched(p.sendNs.size(), nullptr);
  for (const auto& e : events) {
    auto it = byHash.find(e.hash);
    if (it == byHash.end() || it->second.empty()) continue;
    matched[it->second.front()] = &e;
    it->second.pop_front();
  }
  for (std::size_t i = 0; i < p.sendNs.size(); ++i) {
    if (p.replyNs[i] == 0) continue;
    const std::uint64_t request = requestBase + i;
    const std::int64_t root =
        spans.add("e2e.request", p.scheduledNs[i], p.replyNs[i], -1, request);
    spans.add("loadgen.send", p.scheduledNs[i], p.sendNs[i], root, request);
    if (const auto* e = matched[i]) {
      spans.add("net.ingress", p.sendNs[i], e->entryNs, root, request);
      spans.add("serve.handle", e->entryNs, e->exitNs, root, request);
      ingressUs.push_back(static_cast<double>(e->entryNs - p.sendNs[i]) * 1e-3);
      handleUs.push_back(static_cast<double>(e->exitNs - e->entryNs) * 1e-3);
    }
  }
}

resex::Instance servingInstance(const resex::PartitionedIndex& index, std::size_t machines,
                                std::vector<resex::MachineId>& mapping) {
  using namespace resex;
  const std::size_t partitions = index.shardCount();
  std::vector<Shard> shards(partitions);
  mapping.assign(partitions, 0);
  double totalBytes = 0.0;
  for (ShardId s = 0; s < partitions; ++s) {
    shards[s].id = s;
    const double bytes = static_cast<double>(index.shard(s).indexBytes());
    shards[s].demand = ResourceVector{index.docFraction(s), bytes};
    shards[s].moveBytes = bytes;
    totalBytes += bytes;
    mapping[s] = static_cast<MachineId>(s % machines);
  }
  std::vector<Machine> ms(machines);
  for (std::size_t m = 0; m < machines; ++m) {
    ms[m].id = static_cast<MachineId>(m);
    ms[m].capacity = ResourceVector{1.0, totalBytes};
  }
  return Instance(2, ms, shards, mapping, 0, ResourceVector{0.5, 1.0});
}

resex::serve::ServeConfig servingConfig(std::uint64_t seed, std::size_t cacheEntries) {
  resex::serve::ServeConfig c;
  c.topK = config::kTopK;
  c.deadlineSeconds = 0.0;
  c.queueCapacity = config::kQueueCapacity;
  c.workersPerMachine = config::kWorkersPerMachine;
  c.cacheCapacity = cacheEntries;
  c.seed = seed;
  return c;
}

ServingStack::ServingStack(const resex::Instance& instance,
                           const std::vector<resex::MachineId>& mapping,
                           const resex::PartitionedIndex& index,
                           resex::serve::ServeConfig config,
                           std::vector<std::shared_ptr<const resex::InvertedIndex>> liveShards) {
  broker = std::make_unique<resex::serve::QueryBroker>(instance, mapping, index, config,
                                                       std::move(liveShards));
  service = std::make_unique<resex::serve::SearchService>(*broker);
  resex::net::ServerConfig netConfig;
  netConfig.port = 0;
  netConfig.shards = config::kNetShards;
  // The handler wrapper: a relaxed flag check when tracing is off.
  server = std::make_unique<resex::net::Server>(
      netConfig, [this](resex::net::QueryRequest&& request,
                        const std::shared_ptr<resex::net::ResponseTicket>& ticket) {
        if (!tap.on.load(std::memory_order_relaxed))
          return service->handle(std::move(request), ticket);
        HandlerTap::Event e;
        e.entryNs = nowNs();
        e.hash = hashTerms(request.terms);
        const bool more = service->handle(std::move(request), ticket);
        e.exitNs = nowNs();
        std::lock_guard lock(tap.mutex);
        tap.events.push_back(e);
        return more;
      });
  server->start();
}

ServingStack::~ServingStack() {
  server->stop();
  broker->shutdown();
}

Sampler::Sampler(std::function<void()> fn) : fn_(std::move(fn)) {
  thread_ = std::thread([this] {
    auto next = Clock::now();
    while (!stop_.load(std::memory_order_relaxed)) {
      fn_();
      next += std::chrono::milliseconds(1);
      std::this_thread::sleep_until(next);
    }
  });
}

Sampler::~Sampler() { stop(); }

void Sampler::stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

}  // namespace perfbench
