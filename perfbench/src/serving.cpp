// serve_cold and serve_cached: the serving stack socket to socket.
//
// serve_cold  every query of the run is distinct (the result cache is on,
//             so every lookup misses and pays the insert): the kernel,
//             broker queues and merge do the work.
// serve_cached a pool of popular queries, warmed before timing, so nearly
//             every request is a cache hit: only the transport,
//             SearchService and the cache-hit path work.
//
// Timed run: set-up (median of kSetupReps full stack builds), then one
// nominal-rate phase of --seconds; cpu_us_per_op is the CPU the serving
// stack spent in it per query. Traced run: the knee search over the fixed
// ladder and the nominal phase untraced (e2e.*, and the base of
// trace.overhead_frac), then both again with the handler wrapper
// recording, the in-process submit() arm on the same schedule, and replays
// of the nominal queries through the kernel (topKDisjunctiveInto per
// partition, mergeTopK) and the codec.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "config.hpp"
#include "index/query_exec.hpp"
#include "net/frame.hpp"
#include "spans.hpp"
#include "stack.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace resex;

double secondsSince(std::int64_t startNs) {
  return static_cast<double>(nowNs() - startNs) * 1e-9;
}

/// The queries a run sends and their oracle answers, grown on demand.
class QueryBook {
 public:
  QueryBook(serve::QueryBroker& oracle, std::uint64_t seed)
      : oracle_(oracle),
        stream_(seed, config::kTerms, config::kStopwords, config::kTermZipf,
                config::kMaxQueryTerms) {}

  /// Appends `n` fresh distinct queries (with oracle answers); returns the
  /// index of the first.
  std::uint32_t fresh(std::size_t n) {
    const auto first = static_cast<std::uint32_t>(queries.size());
    std::vector<Query> batch(n);
    for (auto& q : batch) q = stream_.next();
    auto answers = oracleAnswers(oracle_, batch, config::kOracleThreads);
    for (std::size_t i = 0; i < n; ++i) {
      queries.push_back(std::move(batch[i]));
      expected.push_back(std::move(answers[i]));
    }
    return first;
  }

  std::vector<Query> queries;
  std::vector<std::string> expected;

 private:
  serve::QueryBroker& oracle_;
  QueryStream stream_;
};

/// Chooses each arrival's query: cold takes the next fresh query, cached a
/// Zipf-popular pool entry.
class Picker {
 public:
  Picker(QueryBook& book, bool cached, std::uint32_t poolFirst)
      : book_(book), cached_(cached), poolFirst_(poolFirst),
        zipf_(config::kCachedPool, config::kPoolZipf) {}

  Arrivals arrivals(double qps, double seconds, Rng& rng) {
    if (cached_)
      return poissonArrivals(qps, seconds, rng, [this](Rng& r) {
        return poolFirst_ + static_cast<std::uint32_t>(zipf_.sample(r) - 1);
      });
    Arrivals a = poissonArrivals(qps, seconds, rng, [](Rng&) { return 0u; });
    const std::uint32_t first = book_.fresh(a.offsets.size());
    for (std::size_t i = 0; i < a.query.size(); ++i)
      a.query[i] = first + static_cast<std::uint32_t>(i);
    return a;
  }

  /// Same arrival times, fresh queries (cold) or the same picks (cached).
  Arrivals sameSchedule(const Arrivals& schedule) {
    if (cached_) return schedule;
    Arrivals a = schedule;
    const std::uint32_t first = book_.fresh(a.offsets.size());
    for (std::size_t i = 0; i < a.query.size(); ++i)
      a.query[i] = first + static_cast<std::uint32_t>(i);
    return a;
  }

 private:
  QueryBook& book_;
  bool cached_;
  std::uint32_t poolFirst_;
  ZipfSampler zipf_;
};

void printRung(const char* label, const RungResult& r) {
  std::printf("%s rung %3d offered %9.1f qps achieved %9.1f p50 %8.0fus p99 %10.0fus "
              "send-late p50 %6.0fus | ok %llu degraded %llu rejected %llu wrong %llu "
              "lost %llu | %s\n",
              label, r.rung, r.offeredQps, r.achievedQps, r.p50Us,
              std::isfinite(r.p99Us) ? r.p99Us : -1.0, r.sendLateP50Us,
              static_cast<unsigned long long>(r.outcomes.of(Outcome::kOk)),
              static_cast<unsigned long long>(r.outcomes.of(Outcome::kDegraded)),
              static_cast<unsigned long long>(r.outcomes.of(Outcome::kRejected)),
              static_cast<unsigned long long>(r.outcomes.of(Outcome::kWrong)),
              static_cast<unsigned long long>(r.outcomes.of(Outcome::kLost)),
              r.pass ? "pass" : r.why.c_str());
}

struct KneeRun {
  KneeResult knee;
  OutcomeCounts counts;  ///< every rung, for the wrong-answer check
};

KneeRun runKnee(const char* label, const Ladder& ladder, SocketLoadGen& gen,
                QueryBook& book, Picker& picker, Rng& rng) {
  KneeRun run;
  run.knee = findKnee(ladder, [&](int rung) {
    const double rate = ladder.rate(rung);
    const Arrivals a = picker.arrivals(rate, ladder.rungSeconds, rng);
    const PhaseResult p = gen.run(a, book.queries, book.expected, config::kDrainSeconds);
    RungResult r = p.asRung(rate);
    r.rung = rung;
    judgeRung(r, config::kKneeLimits);
    run.counts += r.outcomes;
    printRung(label, r);
    return r;
  });
  return run;
}

struct Nominal {
  PhaseResult phase;
  double serverCpuUs = 0.0;  ///< CPU of every thread but the generator's
  serve::ObservedLoad load;
  serve::CacheStats cacheBefore, cacheAfter;
  net::ServerStats netBefore, netAfter;
  std::vector<double> depthSum, depthMax;  ///< sampled (traced run only)
};

Nominal runNominal(ServingStack& stack, SocketLoadGen& gen, QueryBook& book,
                   const Arrivals& arrivals, bool sampleQueues) {
  Nominal n;
  n.cacheBefore = stack.broker->cacheStats();
  n.netBefore = stack.server->stats();
  stack.broker->takeObservedLoad();
  std::unique_ptr<Sampler> sampler;
  if (sampleQueues)
    sampler = std::make_unique<Sampler>([&] {
      double sum = 0.0, mx = 0.0;
      for (std::size_t m = 0; m < stack.broker->machineCount(); ++m) {
        const auto d = static_cast<double>(stack.broker->queueDepth(m));
        sum += d;
        mx = std::max(mx, d);
      }
      n.depthSum.push_back(sum);
      n.depthMax.push_back(mx);
    });
  const OthersCpu cpu;
  n.phase = gen.run(arrivals, book.queries, book.expected, config::kDrainSeconds);
  n.serverCpuUs = cpu.elapsedUs();
  if (sampler) sampler->stop();
  n.load = stack.broker->takeObservedLoad();
  n.cacheAfter = stack.broker->cacheStats();
  n.netAfter = stack.server->stats();
  return n;
}

double cacheHitFrac(const Nominal& n) {
  const double hits = static_cast<double>(n.cacheAfter.hits - n.cacheBefore.hits);
  const double misses = static_cast<double>(n.cacheAfter.misses - n.cacheBefore.misses);
  return hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
}

/// Kernel replay of the nominal queries: one topKDisjunctiveInto per
/// (query, partition) with the broker's global statistics, then mergeTopK
/// on the partials — each call timed, spans recorded per query.
struct KernelReplay {
  std::vector<double> taskUs, queryCpuUs, criticalUs, mergeUs;
  double postings = 0.0, exhaustive = 0.0, blocksDecoded = 0.0, blocksSkipped = 0.0;
  std::size_t queries = 0;
};

KernelReplay replayKernel(const PartitionedIndex& index, const std::vector<Query>& queries,
                          SpanRecorder& spans, std::uint64_t requestBase) {
  KernelReplay r;
  QueryScratch scratch;
  std::vector<std::vector<ScoredDoc>> partials(index.shardCount());
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const Query& q = queries[qi];
    const std::int64_t qStart = nowNs();
    double cpu = 0.0, critical = 0.0;
    std::vector<std::pair<std::int64_t, std::int64_t>> taskTimes;
    for (std::size_t p = 0; p < index.shardCount(); ++p) {
      ExecStats stats;
      const std::int64_t t0 = nowNs();
      const auto top = topKDisjunctiveInto(index.shard(p), q, config::kTopK, Bm25Params{},
                                           scratch, &stats, &index.globalStats());
      partials[p].assign(top.begin(), top.end());
      const std::int64_t t1 = nowNs();
      const double us = static_cast<double>(t1 - t0) * 1e-3;
      taskTimes.emplace_back(t0, t1);
      r.taskUs.push_back(us);
      cpu += us;
      critical = std::max(critical, us);
      r.postings += static_cast<double>(stats.postingsScanned);
      r.blocksDecoded += static_cast<double>(stats.blocksDecoded);
      r.blocksSkipped += static_cast<double>(stats.blocksSkipped);
      for (const TermId t : q)
        r.exhaustive += static_cast<double>(index.shard(p).documentFrequency(t));
    }
    const std::int64_t m0 = nowNs();
    const auto merged = mergeTopK(partials, config::kTopK);
    const std::int64_t m1 = nowNs();
    if (merged.size() > config::kTopK) throw std::logic_error("mergeTopK overflow");
    r.mergeUs.push_back(static_cast<double>(m1 - m0) * 1e-3);
    r.queryCpuUs.push_back(cpu);
    r.criticalUs.push_back(critical);
    const std::uint64_t request = requestBase + qi;
    const std::int64_t root = spans.add("index.query", qStart, m1, -1, request);
    for (const auto& [a, b] : taskTimes) spans.add("index.task", a, b, root, request);
    spans.add("serve.merge", m0, m1, root, request);
  }
  r.queries = queries.size();
  return r;
}

/// Encode + decode of the workload's real frames (query out, result back),
/// nanoseconds per request.
double codecNs(const std::vector<Query>& queries, const std::vector<std::string>& expected,
               const std::vector<std::uint32_t>& picks) {
  // Decode the oracle answers once to get response objects to encode.
  std::vector<net::QueryResponse> responses;
  responses.reserve(picks.size());
  for (const auto i : picks) {
    net::FrameReader reader;
    reader.feed(expected[i].data(), expected[i].size());
    const auto frame = reader.next();
    responses.push_back(*net::decodeResultBody(frame->body));
  }
  std::string buf;
  net::QueryRequest request;
  std::size_t checksum = 0;
  const std::int64_t t0 = nowNs();
  for (std::size_t k = 0; k < picks.size(); ++k) {
    request.terms = queries[picks[k]];
    buf.clear();
    net::encodeQueryFrame(k + 1, request, buf);
    net::encodeResultFrame(k + 1, responses[k], buf);
    net::FrameReader reader;
    reader.feed(buf.data(), buf.size());
    const auto qf = reader.next();
    checksum += net::decodeQueryBody(qf->body)->terms.size();
    const auto rf = reader.next();
    checksum += net::decodeResultBody(rf->body)->docs.size();
  }
  const std::int64_t t1 = nowNs();
  if (checksum == 0 && !picks.empty()) throw std::logic_error("codec replay decoded nothing");
  return picks.empty() ? 0.0 : static_cast<double>(t1 - t0) / static_cast<double>(picks.size());
}

}  // namespace

Report runServing(const RunOptions& options, bool cached) {
  Report report;
  const Ladder ladder = cached ? config::kCachedLadder : config::kColdLadder;
  const double nominalQps = cached ? config::kCachedNominalQps : config::kColdNominalQps;
  const double nominalSeconds = std::max(1.0, options.seconds);
  const char* name = cached ? "serve_cached" : "serve_cold";

  // -- Inputs (not timed): the corpus.
  SyntheticDocConfig docConfig;
  docConfig.seed = options.seed;
  docConfig.docCount = config::kDocs;
  docConfig.termCount = config::kTerms;
  const auto documents = generateDocuments(docConfig);

  // -- Set-up, timed: index build, instance, broker, service, server.
  std::unique_ptr<PartitionedIndex> index;
  std::unique_ptr<Instance> instance;
  std::unique_ptr<ServingStack> stack;
  std::vector<MachineId> mapping;
  std::vector<double> setupS;
  const std::size_t cacheEntries = cached ? config::kCachedPool * 4 : config::kCacheEntries;
  for (int rep = 0; rep < config::kSetupReps; ++rep) {
    stack.reset();
    instance.reset();
    index.reset();
    const std::int64_t t0 = nowNs();
    index = std::make_unique<PartitionedIndex>(config::kTerms, documents, config::kPartitions);
    instance = std::make_unique<Instance>(servingInstance(*index, config::kMachines, mapping));
    stack = std::make_unique<ServingStack>(*instance, mapping, *index,
                                           servingConfig(options.seed, cacheEntries));
    setupS.push_back(secondsSince(t0));
  }
  std::size_t indexBytes = 0;
  for (std::size_t s = 0; s < index->shardCount(); ++s) indexBytes += index->shard(s).indexBytes();
  std::printf("%s: %u docs, %u terms, %zu partitions (%.1f MB index) on %zu machines x %zu "
              "worker, port %u\n",
              name, config::kDocs, config::kTerms, config::kPartitions, indexBytes / 1e6,
              config::kMachines, config::kWorkersPerMachine, stack->port());

  // -- Oracle (not timed): an uncached twin broker over the same index.
  serve::QueryBroker oracle(*instance, mapping, *index, servingConfig(options.seed, 0));
  QueryBook book(oracle, options.seed * 7919 + 17);
  std::uint32_t poolFirst = 0;
  if (cached) poolFirst = book.fresh(config::kCachedPool);
  Picker picker(book, cached, poolFirst);
  Rng rng(options.seed * 104729 + 3);

  tightenTimerSlack();
  SocketLoadGen gen(stack->port(), config::kConnections);
  OutcomeCounts everything;

  // -- Warm-up (not timed): cached fills the cache with every pool query;
  // cold runs distinct queries through the kernels and threads.
  {
    Arrivals warm;
    if (cached) {
      for (std::uint32_t i = 0; i < config::kCachedPool; ++i) {
        warm.offsets.push_back(static_cast<double>(i) / config::kWarmQps);
        warm.query.push_back(poolFirst + i);
      }
    } else {
      warm = picker.arrivals(nominalQps, 0.5, rng);
    }
    const OutcomeCounts warmed =
        gen.run(warm, book.queries, book.expected, config::kDrainSeconds).counts;
    std::printf("warm-up: %llu queries, %llu failed\n",
                static_cast<unsigned long long>(warmed.total()),
                static_cast<unsigned long long>(warmed.failed()));
    everything += warmed;
  }

  // -- Timed phases, untraced: the knee search (traced run only), then the
  // nominal phase.
  KneeRun knee;
  if (options.trace) {
    knee = runKnee("knee", ladder, gen, book, picker, rng);
    everything += knee.counts;
  }
  const Arrivals nominalArrivals = picker.arrivals(nominalQps, nominalSeconds, rng);
  const Nominal nominal = runNominal(*stack, gen, book, nominalArrivals, false);
  everything += nominal.phase.counts;

  const double p50 = nominal.phase.okQuantileUs(0.5);
  const double p99 = nominal.phase.windowedQuantileUs(0.99, config::kTailWindow);
  const double lateP99 = quantile(nominal.phase.lateUs, 0.99);
  const double hitFrac = cacheHitFrac(nominal);
  const std::uint64_t okNominal = nominal.phase.counts.of(Outcome::kOk);
  const double cpuPerQueryUs =
      nominal.serverCpuUs /
      static_cast<double>(std::max<std::uint64_t>(1, nominal.phase.counts.total()));
  std::printf("nominal %.0f qps for %.1fs: p50 %.0fus p99 %.0fus late p50/p90/p99/max "
              "%.0f/%.0f/%.0f/%.0fus | ok %llu failed %llu | cache hit %.4f | server cpu "
              "%.2fus/query\n",
              nominalQps, nominalSeconds, p50, p99, quantile(nominal.phase.lateUs, 0.5),
              quantile(nominal.phase.lateUs, 0.9), lateP99, quantile(nominal.phase.lateUs, 1.0),
              static_cast<unsigned long long>(okNominal),
              static_cast<unsigned long long>(nominal.phase.counts.failed()), hitFrac,
              cpuPerQueryUs);

  printWindowQuantiles(nominal.phase, config::kTailWindow);
  report.attempted = nominal.phase.counts.total();
  report.failed = nominal.phase.counts.failed();
  if (lateP99 > config::kMaxNominalLateP99Us)
    report.invalidate("generator fell behind in the nominal phase (late p99 " +
                      std::to_string(lateP99) + " us)");
  if (cached ? hitFrac < 0.99 : hitFrac > 0.01)
    report.fail("cache hit share " + std::to_string(hitFrac) + " is off the workload's design");

  if (!options.trace) {
    // Latency and the knee are traced-run figures (e2e.*): on the shared
    // reference VM a host busy elsewhere moved serve_cold's p50 from 1.2 to
    // 7.4 ms and serve_cached's from 0.09 to 4 ms within one set of ten
    // runs. The stack's CPU per query does not count time the host took.
    report.add("setup_s", quantile(setupS, 0.5), "s", setupS.size());
    report.add("cpu_us_per_op", cpuPerQueryUs, "us", nominal.phase.counts.total());
  } else {
    // No passing rung: e2e.qps_max is what the ladder's floor achieved (an
    // upper bound on the knee) and the run is marked invalid.
    const RungResult* best = knee.knee.best();
    if (!best) {
      report.invalidate("even the lowest ladder rung missed the limits");
      best = &knee.knee.rungs.front();
    }
    const double qpsMax = best->achievedQps;

    // -- Traced phases: handler wrapper on, same ladder and nominal load.
    SpanRecorder spans;
    stack->tap.on.store(true);
    const KneeRun tracedKnee = runKnee("traced-knee", ladder, gen, book, picker, rng);
    everything += tracedKnee.counts;
    stack->tap.take();
    const Arrivals tracedArrivals = picker.sameSchedule(nominalArrivals);
    const Nominal traced = runNominal(*stack, gen, book, tracedArrivals, true);
    everything += traced.phase.counts;
    stack->tap.on.store(false);
    std::vector<double> ingressUs, handleUs;
    socketSpans(traced.phase, tracedArrivals, book.queries, stack->tap.take(), spans, 0,
                ingressUs, handleUs);

    // -- In-process arm: same schedule and concurrency through submit().
    const Arrivals inprocArrivals = picker.sameSchedule(nominalArrivals);
    std::vector<double> brokerUs;
    const PhaseResult inproc = runInProcess(*stack->broker, inprocArrivals, book.queries,
                                            book.expected, config::kDrainSeconds, &brokerUs);
    everything += inproc.counts;
    for (std::size_t i = 0; i < inproc.replyNs.size(); ++i)
      if (inproc.replyNs[i] != 0)
        spans.add("serve.broker", inproc.sendNs[i], inproc.replyNs[i], -1, (1ULL << 32) + i);

    // -- Replays: kernel + merge on the nominal queries, codec on their frames.
    std::vector<Query> nominalQueries;
    for (const auto q : tracedArrivals.query) {
      if (nominalQueries.size() == config::kReplayQueries) break;
      nominalQueries.push_back(book.queries[q]);
    }
    const KernelReplay kernel = replayKernel(*index, nominalQueries, spans, 2ULL << 32);
    const double codec = codecNs(book.queries, book.expected, tracedArrivals.query);

    const double tracedP50 = traced.phase.okQuantileUs(0.5);
    const double tracedP99 = traced.phase.windowedQuantileUs(0.99, config::kTailWindow);
    const double inprocP50 = inproc.okQuantileUs(0.5);
    const double inprocP99 = inproc.windowedQuantileUs(0.99, config::kTailWindow);
    const RungResult* tracedBest = tracedKnee.knee.best();
    const double tracedQpsMax =
        (tracedBest ? tracedBest : &tracedKnee.knee.rungs.front())->achievedQps;
    const double nominalOk = static_cast<double>(traced.phase.counts.of(Outcome::kOk));
    const double queries = static_cast<double>(traced.phase.counts.total());
    const double frames =
        static_cast<double>(traced.netAfter.framesReceived - traced.netBefore.framesReceived);
    const double meanDepth = mean(traced.depthSum);
    const double taskRate = nominalOk / std::max(1e-9, traced.phase.spanSeconds) *
                            static_cast<double>(config::kPartitions);
    const double queueWaitUs = littleWaitUs(meanDepth, taskRate);
    double busy = 0.0;
    for (std::size_t m = 0; m < traced.load.machineBusySeconds.size(); ++m)
      busy += traced.load.machineBusyFraction(m, stack->broker->workerCount(m));
    busy /= static_cast<double>(std::max<std::size_t>(1, traced.load.machineBusySeconds.size()));
    const double brokerP50 = quantile(brokerUs, 0.5);
    const double criticalP50 = quantile(kernel.criticalUs, 0.5);
    const double mergeP50 = quantile(kernel.mergeUs, 0.5);
    const auto per1k = [&](double count) { return queries > 0 ? 1000.0 * count / queries : 0.0; };

    const auto n = [](const std::vector<double>& v) {
      return static_cast<std::uint64_t>(v.size());
    };
    report.add("e2e.qps_max", qpsMax, "1/s", best->outcomes.of(Outcome::kOk));
    report.add("e2e.p50_us", p50, "us", okNominal);
    report.add("e2e.p99_us", p99, "us", okNominal);
    report.add("net.ingress_us.p50", quantile(ingressUs, 0.5), "us", n(ingressUs));
    report.add("net.ingress_us.p99", quantile(ingressUs, 0.99), "us", n(ingressUs));
    report.add("net.overhead_us", tracedP50 - inprocP50, "us", inproc.counts.of(Outcome::kOk));
    report.add("net.p99_ratio", inprocP99 > 0 ? tracedP99 / inprocP99 : 0.0, "ratio",
               inproc.counts.of(Outcome::kOk));
    report.add("net.codec_ns", codec, "ns", tracedArrivals.query.size());
    report.add("net.read_pauses_per_1k",
               frames > 0 ? 1000.0 *
                                static_cast<double>(traced.netAfter.readPauses -
                                                    traced.netBefore.readPauses) /
                                frames
                          : 0.0,
               "per_1k", static_cast<std::uint64_t>(frames));
    report.add("serve.handle_us.p50", quantile(handleUs, 0.5), "us", n(handleUs));
    report.add("serve.handle_us.p99", quantile(handleUs, 0.99), "us", n(handleUs));
    report.add("serve.broker_us.p50", brokerP50, "us", n(brokerUs));
    report.add("serve.broker_us.p99", quantile(brokerUs, 0.99), "us", n(brokerUs));
    report.add("serve.queue_depth.mean", meanDepth, "tasks", n(traced.depthSum));
    report.add("serve.queue_depth.max",
               traced.depthMax.empty()
                   ? 0.0
                   : *std::max_element(traced.depthMax.begin(), traced.depthMax.end()),
               "tasks", n(traced.depthMax));
    report.add("serve.queue_wait_us", queueWaitUs, "us", n(traced.depthSum));
    report.add("serve.busy_frac", busy, "frac", traced.load.machineBusySeconds.size());
    report.add("serve.cache_hit_frac", cacheHitFrac(traced), "frac",
               traced.cacheAfter.hits + traced.cacheAfter.misses - traced.cacheBefore.hits -
                   traced.cacheBefore.misses);
    const auto countOf = [&](Outcome o) {
      return static_cast<double>(traced.phase.counts.of(o));
    };
    report.add("serve.degraded_per_1k", per1k(countOf(Outcome::kDegraded)), "per_1k",
               static_cast<std::uint64_t>(queries));
    report.add("serve.rejected_per_1k", per1k(countOf(Outcome::kRejected)), "per_1k",
               static_cast<std::uint64_t>(queries));
    report.add("serve.shed_per_1k", per1k(static_cast<double>(traced.load.shedTasks)), "per_1k",
               static_cast<std::uint64_t>(queries));
    report.add("serve.merge_us", mergeP50, "us", n(kernel.mergeUs));
    report.add("index.task_us.p50", quantile(kernel.taskUs, 0.5), "us", n(kernel.taskUs));
    report.add("index.task_us.p99", quantile(kernel.taskUs, 0.99), "us", n(kernel.taskUs));
    report.add("index.query_cpu_us", quantile(kernel.queryCpuUs, 0.5), "us", n(kernel.queryCpuUs));
    report.add("index.critical_us", criticalP50, "us", n(kernel.criticalUs));
    report.add("index.postings_per_query",
               kernel.queries ? kernel.postings / static_cast<double>(kernel.queries) : 0.0,
               "postings", kernel.queries);
    report.add("index.block_skip_frac",
               kernel.blocksDecoded + kernel.blocksSkipped > 0
                   ? kernel.blocksSkipped / (kernel.blocksDecoded + kernel.blocksSkipped)
                   : 0.0,
               "frac", kernel.queries);
    report.add("index.scanned_frac",
               kernel.exhaustive > 0 ? kernel.postings / kernel.exhaustive : 0.0, "frac",
               kernel.queries);
    report.add("loadgen.late_us.p99", quantile(traced.phase.lateUs, 0.99), "us",
               traced.phase.lateUs.size());
    if (!cached)  // on cache hits the broker never reaches the queues or the kernel
      report.add("attr.residual_frac",
                 brokerP50 > 0 ? (brokerP50 - (queueWaitUs + criticalP50 + mergeP50)) / brokerP50
                               : 0.0,
                 "frac", n(brokerUs));
    report.add("trace.overhead_frac.p50", p50 > 0 ? tracedP50 / p50 - 1.0 : 0.0, "frac",
               static_cast<std::uint64_t>(nominalOk));
    report.add("trace.overhead_frac.qps_max", qpsMax > 0 ? 1.0 - tracedQpsMax / qpsMax : 0.0,
               "frac", tracedKnee.knee.rungs.size());

    std::printf("in-process arm: p50 %.0fus p99 %.0fus | traced socket: p50 %.0fus p99 %.0fus "
                "qps_max %.0f\n",
                inprocP50, inprocP99, tracedP50, tracedP99, tracedQpsMax);
    for (const auto& [layer, us] : spans.selfTimeUsByLayer())
      std::printf("self time %-8s %12.0f us\n", layer.c_str(), us);
    const std::string path = options.outDir + "/spans-" + name + "-" +
                             std::to_string(options.seed) + ".jsonl";
    if (spans.writeJsonLines(path))
      std::printf("spans: %zu written to %s (%llu dropped)\n", spans.size(), path.c_str(),
                  static_cast<unsigned long long>(spans.dropped()));
  }

  if (everything.of(Outcome::kWrong) > 0)
    report.fail(std::to_string(everything.of(Outcome::kWrong)) +
                " responses differed from the oracle");
  stack.reset();
  oracle.shutdown();
  return report;
}

}  // namespace perfbench
