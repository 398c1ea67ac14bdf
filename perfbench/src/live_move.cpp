// live_move: shard moves beside reads. A LiveCluster lays every
// partition's segment file out in per-machine directories (inside the
// benchmark's work directory); a live-mode broker behind the usual
// SearchService + net::Server serves a repeating query pool from those
// files with the result cache on, at a fixed moderate rate. Meanwhile
// MigrationExecutor runs a fixed cyclic schedule — one move per interval,
// shard k % P to the next machine — through the LiveCluster data plane at
// throttled bandwidth, with no injected faults: segment copy, validate +
// warm, cutover, cache invalidation and drain all contend with queries.
//
// cpu_us_per_op is the CPU every thread but the load generator's spends
// per read during the moving phase: the serving stack, and the mover
// thread that copies, validates, cuts over and drains. The data plane is
// wrapped in a timing decorator, so control.move_s (admit -> commit
// return per committed move) is measured from outside; the traced run
// adds the per-step times and the cache entries each cutover drops.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <mutex>

#include "config.hpp"
#include "control/data_plane.hpp"
#include "control/executor.hpp"
#include "index/segment.hpp"
#include "serve/live_migration.hpp"
#include "spans.hpp"
#include "stack.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace resex;

/// Times every MigrationDataPlane call it forwards to the LiveCluster. The
/// move loop executes one single-move schedule at a time, so exactly one
/// move's record is open between admitCopy and commitMove.
class TimedPlane final : public MigrationDataPlane {
 public:
  struct MoveTimes {
    ShardId shard = 0;
    std::int64_t admit0 = 0, admit1 = 0, copy0 = 0, copy1 = 0, commit0 = 0, commit1 = 0;
  };

  explicit TimedPlane(serve::LiveCluster& inner) : inner_(inner) {}

  bool admitCopy(ShardId shard, MachineId from, MachineId to) override {
    MoveTimes t;
    t.shard = shard;
    t.admit0 = nowNs();
    const bool ok = inner_.admitCopy(shard, from, to);
    t.admit1 = nowNs();
    std::lock_guard lock(mutex_);
    open_ = t;
    return ok;
  }
  bool copyShard(ShardId shard, MachineId from, MachineId to, const CopyFault& fault) override {
    const std::int64_t t0 = nowNs();
    const bool ok = inner_.copyShard(shard, from, to, fault);
    const std::int64_t t1 = nowNs();
    std::lock_guard lock(mutex_);
    if (open_.copy0 == 0) open_.copy0 = t0;  // retries extend the copy window
    open_.copy1 = t1;
    return ok;
  }
  void discardCopy(ShardId shard, MachineId to, bool destinationCrashed) override {
    inner_.discardCopy(shard, to, destinationCrashed);
  }
  void commitMove(ShardId shard, MachineId from, MachineId to) override {
    const std::int64_t t0 = nowNs();
    inner_.commitMove(shard, from, to);
    const std::int64_t t1 = nowNs();
    std::lock_guard lock(mutex_);
    open_.commit0 = t0;
    open_.commit1 = t1;
    done_.push_back(open_);
    open_ = MoveTimes{};
  }
  void machineCrashed(MachineId machine) override { inner_.machineCrashed(machine); }
  void recoverMachine(MachineId machine) override { inner_.recoverMachine(machine); }

  std::vector<MoveTimes> committed() const {
    std::lock_guard lock(mutex_);
    return done_;
  }

 private:
  serve::LiveCluster& inner_;
  mutable std::mutex mutex_;
  MoveTimes open_;
  std::vector<MoveTimes> done_;
};

/// The live cluster plus the serving stack over its segment files.
struct LiveSetup {
  std::string dir;
  std::unique_ptr<PartitionedIndex> index;
  std::unique_ptr<Instance> instance;
  std::vector<MachineId> mapping;
  std::unique_ptr<serve::LiveCluster> cluster;
  std::unique_ptr<ServingStack> stack;

  ~LiveSetup() {
    stack.reset();
    cluster.reset();
    std::error_code ec;
    if (!dir.empty()) std::filesystem::remove_all(dir, ec);
  }
};

std::unique_ptr<LiveSetup> buildLive(const std::vector<Document>& documents,
                                     const std::string& dir, std::uint64_t seed) {
  auto live = std::make_unique<LiveSetup>();
  live->dir = dir;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  live->index =
      std::make_unique<PartitionedIndex>(config::kLiveTerms, documents, config::kPartitions);
  live->instance =
      std::make_unique<Instance>(servingInstance(*live->index, config::kMachines, live->mapping));
  double bytes = 0.0;
  for (std::size_t s = 0; s < live->index->shardCount(); ++s)
    bytes += static_cast<double>(live->index->shard(s).indexBytes());
  serve::LiveClusterConfig lc;
  lc.rootDir = dir;
  lc.migrationBandwidth =
      bytes / static_cast<double>(config::kPartitions) / config::kCopySeconds;
  live->cluster = std::make_unique<serve::LiveCluster>(*live->instance, *live->index,
                                                       live->mapping, lc);
  live->stack = std::make_unique<ServingStack>(
      *live->instance, live->mapping, *live->index,
      servingConfig(seed, config::kLiveCacheEntries), live->cluster->shardIndexes());
  live->cluster->attachBroker(live->stack->broker.get());
  return live;
}

/// Runs the cyclic move schedule at a fixed pace until `stop`.
struct MoveLoop {
  std::size_t moves = 0, committed = 0, retries = 0, aborted = 0;
  std::atomic<bool> stop{false};

  void run(const LiveSetup& live, MigrationDataPlane& plane) {
    ExecutorConfig ec;
    ec.maxRetries = 3;
    ec.maxReplans = 0;
    const MigrationExecutor executor(ec);
    const auto start = Clock::now();
    for (std::size_t k = 0; !stop.load(); ++k) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
                      config::kMoveIntervalSeconds * static_cast<double>(k))));
      if (stop.load()) break;
      const std::vector<MachineId> now = live.cluster->mapping();
      const auto shard = static_cast<ShardId>(k % config::kPartitions);
      const MachineId from = now[shard];
      const auto to = static_cast<MachineId>((from + 1) % config::kMachines);
      const Instance inst(2, live.instance->machines(), live.instance->shards(), now, 0,
                          ResourceVector{0.5, 1.0});
      Schedule schedule;
      schedule.phases.push_back(Phase{{Move{shard, from, to}}, 0.0});
      schedule.totalBytes = inst.shard(shard).moveBytes;
      const ExecutionReport r = executor.execute(inst, schedule, FaultPlan{}, &plane);
      ++moves;
      committed += r.movesCommitted;
      retries += r.retries;
      aborted += r.abortedMoves;
    }
  }
};

}  // namespace

Report runLiveMove(const RunOptions& options) {
  Report report;
  SyntheticDocConfig docConfig;
  docConfig.seed = options.seed;
  docConfig.docCount = config::kLiveDocs;
  docConfig.termCount = config::kLiveTerms;
  const auto documents = generateDocuments(docConfig);

  // -- Set-up, timed: index build, segment layout, live broker, server.
  const std::string base = options.workDir + "/live-" + std::to_string(::getpid());
  std::unique_ptr<LiveSetup> live;
  std::vector<double> setupS;
  for (int rep = 0; rep < config::kSetupReps; ++rep) {
    live.reset();
    const std::int64_t t0 = nowNs();
    live = buildLive(documents, base + "-" + std::to_string(rep), options.seed);
    setupS.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
  }
  std::printf("live_move: %u docs, %zu partitions on %zu machines, one move per %.2fs, "
              "%.0f qps, data at %s\n",
              config::kLiveDocs, config::kPartitions, config::kMachines,
              config::kMoveIntervalSeconds, config::kLiveNominalQps, live->dir.c_str());

  // -- Queries and oracle (not timed): uncached twin over the in-memory index.
  serve::QueryBroker oracle(*live->instance, live->mapping, *live->index,
                            servingConfig(options.seed, 0));
  QueryStream stream(options.seed * 7919 + 29, config::kLiveTerms, config::kStopwords,
                     config::kTermZipf, config::kMaxQueryTerms);
  std::vector<Query> pool(config::kLivePool);
  for (auto& q : pool) q = stream.next();
  const std::vector<std::string> expected = oracleAnswers(oracle, pool, config::kOracleThreads);
  const ZipfSampler pick(config::kLivePool, config::kPoolZipf);
  Rng rng(options.seed * 104729 + 5);

  tightenTimerSlack();
  SocketLoadGen gen(live->stack->port(), config::kConnections);
  OutcomeCounts everything;
  {  // warm-up: every pool query once (fills the cache, warms the segments)
    Arrivals warm;
    for (std::uint32_t i = 0; i < config::kLivePool; ++i) {
      warm.offsets.push_back(static_cast<double>(i) / config::kWarmQps);
      warm.query.push_back(i);
    }
    everything += gen.run(warm, pool, expected, config::kDrainSeconds).counts;
  }

  const double phaseSeconds = std::max(2.0, options.seconds);
  const Arrivals arrivals = poissonArrivals(
      config::kLiveNominalQps, phaseSeconds, rng,
      [&pick](Rng& r) { return static_cast<std::uint32_t>(pick.sample(r) - 1); });

  TimedPlane plane(*live->cluster);
  // One serving phase with the move loop running beside it.
  const auto movingPhase = [&](MoveLoop& loop) {
    std::thread mover([&] { loop.run(*live, plane); });
    PhaseResult result = gen.run(arrivals, pool, expected, config::kDrainSeconds);
    loop.stop.store(true);
    mover.join();
    return result;
  };

  MoveLoop loop;
  const OthersCpu cpu;
  const PhaseResult phase = movingPhase(loop);
  const double cpuPerReadUs =
      cpu.elapsedUs() / static_cast<double>(std::max<std::uint64_t>(1, phase.counts.total()));
  everything += phase.counts;
  const auto times = plane.committed();
  std::vector<double> moveS;
  for (const auto& t : times) moveS.push_back(static_cast<double>(t.commit1 - t.admit0) * 1e-9);

  const double p50 = phase.okQuantileUs(0.5);
  const double p99 = phase.windowedQuantileUs(0.99, config::kTailWindow);
  const double lateP99 = quantile(phase.lateUs, 0.99);
  const std::uint64_t ok = phase.counts.of(Outcome::kOk);
  std::printf("moving phase %.1fs: %zu moves, %zu committed, %zu retries, %zu aborted, move "
              "%.4fs | p50 %.0fus p99 %.0fus late-p99 %.0fus | ok %llu failed %llu | cpu "
              "%.2fus/read\n",
              phaseSeconds, loop.moves, loop.committed, loop.retries, loop.aborted,
              quantile(moveS, 0.5), p50, p99, lateP99, static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(phase.counts.failed()), cpuPerReadUs);
  printWindowQuantiles(phase, config::kTailWindow);
  report.attempted = phase.counts.total();
  report.failed = phase.counts.failed();
  if (loop.committed == 0) report.fail("no move committed");
  if (loop.aborted > 0) report.fail("moves aborted without injected faults");
  if (lateP99 > config::kMaxNominalLateP99Us)
    report.invalidate("generator fell behind (late p99 " + std::to_string(lateP99) + " us)");

  if (!options.trace) {
    // Read latency during moves is a traced-run figure (e2e.p50_us,
    // e2e.p99_us): over ten runs on the shared reference VM the spread of
    // its p50 reached 0.34 and of its p99 0.85 of their medians. A move's
    // wall time (control.move_s) is mostly the bandwidth throttle.
    report.add("setup_s", quantile(setupS, 0.5), "s", setupS.size());
    report.add("cpu_us_per_op", cpuPerReadUs, "us", phase.counts.total());
  } else {
    // Traced: the same phase again with the handler wrapper on.
    SpanRecorder spans;
    live->stack->tap.on.store(true);
    MoveLoop tracedLoop;
    const std::size_t before = plane.committed().size();
    const serve::CacheStats c0 = live->stack->broker->cacheStats();
    const PhaseResult traced = movingPhase(tracedLoop);
    const serve::CacheStats c1 = live->stack->broker->cacheStats();
    live->stack->tap.on.store(false);
    std::vector<double> ingressUs, handleUs;
    socketSpans(traced, arrivals, pool, live->stack->tap.take(), spans, 1ULL << 32, ingressUs,
                handleUs);
    everything += traced.counts;
    const auto all = plane.committed();
    std::vector<double> admitUs, copyMs, commitMs;
    for (std::size_t i = before; i < all.size(); ++i) {
      const auto& t = all[i];
      admitUs.push_back(static_cast<double>(t.admit1 - t.admit0) * 1e-3);
      copyMs.push_back(static_cast<double>(t.copy1 - t.copy0) * 1e-6);
      commitMs.push_back(static_cast<double>(t.commit1 - t.commit0) * 1e-6);
      const std::int64_t root = spans.add("control.move", t.admit0, t.commit1, -1, i);
      spans.add("control.admit", t.admit0, t.admit1, root, i);
      spans.add("control.copy", t.copy0, t.copy1, root, i);
      spans.add("control.commit", t.commit0, t.commit1, root, i);
    }

    // Segment open: map + validate + wrap each current segment file.
    std::vector<double> openMs;
    const auto mapping = live->cluster->mapping();
    for (ShardId s = 0; s < mapping.size(); ++s) {
      const std::int64_t t0 = nowNs();
      auto segment = std::make_shared<const MappedSegment>(
          live->cluster->segmentPath(s, mapping[s]));
      const InvertedIndex opened(segment);
      const std::int64_t t1 = nowNs();
      if (opened.termCount() != config::kLiveTerms) report.fail("segment reopen mismatch");
      openMs.push_back(static_cast<double>(t1 - t0) * 1e-6);
    }

    const double movesDone = static_cast<double>(std::max<std::size_t>(1, tracedLoop.committed));
    const auto n = [](const std::vector<double>& v) {
      return static_cast<std::uint64_t>(v.size());
    };
    report.add("e2e.p50_us", p50, "us", ok);
    report.add("e2e.p99_us", p99, "us", ok);
    report.add("net.ingress_us.p50", quantile(ingressUs, 0.5), "us", n(ingressUs));
    report.add("net.ingress_us.p99", quantile(ingressUs, 0.99), "us", n(ingressUs));
    report.add("serve.handle_us.p50", quantile(handleUs, 0.5), "us", n(handleUs));
    report.add("serve.handle_us.p99", quantile(handleUs, 0.99), "us", n(handleUs));
    report.add("control.move_s", quantile(moveS, 0.5), "s", moveS.size());
    report.add("control.admit_us", quantile(admitUs, 0.5), "us", n(admitUs));
    report.add("control.copy_ms", quantile(copyMs, 0.5), "ms", n(copyMs));
    report.add("control.commit_ms", quantile(commitMs, 0.5), "ms", n(commitMs));
    report.add("control.retries", static_cast<double>(tracedLoop.retries), "count",
               tracedLoop.moves);
    report.add("control.aborted", static_cast<double>(tracedLoop.aborted), "count",
               tracedLoop.moves);
    report.add("serve.invalidated_per_move",
               static_cast<double>(c1.entriesInvalidated - c0.entriesInvalidated) / movesDone,
               "entries", tracedLoop.committed);
    const double hits = static_cast<double>(c1.hits - c0.hits);
    const double misses = static_cast<double>(c1.misses - c0.misses);
    report.add("serve.cache_hit_frac", hits + misses > 0 ? hits / (hits + misses) : 0.0, "frac",
               static_cast<std::uint64_t>(hits + misses));
    report.add("index.segment_open_ms", quantile(openMs, 0.5), "ms", n(openMs));
    report.add("loadgen.late_us.p99", quantile(traced.lateUs, 0.99), "us", traced.lateUs.size());
    const double tracedP50 = traced.okQuantileUs(0.5);
    report.add("trace.overhead_frac.p50", p50 > 0 ? tracedP50 / p50 - 1.0 : 0.0, "frac",
               traced.counts.of(Outcome::kOk));
    for (const auto& [layer, us] : spans.selfTimeUsByLayer())
      std::printf("self time %-8s %12.0f us\n", layer.c_str(), us);
    const std::string path =
        options.outDir + "/spans-live_move-" + std::to_string(options.seed) + ".jsonl";
    if (spans.writeJsonLines(path)) std::printf("spans: written to %s\n", path.c_str());
  }

  if (everything.of(Outcome::kWrong) > 0)
    report.fail(std::to_string(everything.of(Outcome::kWrong)) +
                " responses differed from the oracle");
  const auto audit = live->cluster->audit();
  if (!audit.clean()) report.fail("data-plane audit found torn, orphan or stray segments");
  oracle.shutdown();
  live.reset();
  return report;
}

}  // namespace perfbench
