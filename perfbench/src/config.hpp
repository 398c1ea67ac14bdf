// Every fixed parameter of the benchmark: corpus and instance sizes, the
// rate ladder, the knee limits, and each workload's nominal rate. Later
// changes to the program run exactly this load; changing a value here is
// a change to the benchmark, not to the program.
#pragma once

#include <cstddef>
#include <cstdint>

#include "analysis.hpp"

namespace perfbench::config {

// -- Serving stack (as resex_serve configures it) ---------------------------
inline constexpr std::size_t kMachines = 4;          // simulated machines
inline constexpr std::size_t kWorkersPerMachine = 1;
inline constexpr std::size_t kNetShards = 1;
inline constexpr std::size_t kQueueCapacity = 1024;  // resex_serve default
inline constexpr std::uint32_t kTopK = 10;
inline constexpr std::size_t kConnections = 4;       // <= nproc of the reference box
inline constexpr std::size_t kOracleThreads = 4;
inline constexpr int kSetupReps = 3;                 // setup_s = median of these

// -- serve_cold / serve_cached corpus ----------------------------------------
inline constexpr std::uint32_t kDocs = 200'000;
inline constexpr std::uint32_t kTerms = 20'000;
inline constexpr std::size_t kPartitions = 8;
inline constexpr std::uint32_t kStopwords = 20;      // head terms never queried
inline constexpr double kTermZipf = 0.9;
inline constexpr std::size_t kMaxQueryTerms = 4;     // 1..4 terms, uniform
inline constexpr std::size_t kCacheEntries = 65'536;

// serve_cached: pool of popular queries, drawn Zipf by popularity.
inline constexpr std::size_t kCachedPool = 1000;
inline constexpr double kPoolZipf = 0.9;

// -- Knee finder -------------------------------------------------------------
inline constexpr KneeLimits kKneeLimits{
    /*p99LimitUs=*/25'000.0, /*maxFailedShare=*/0.01, /*backlogRatio=*/2.0,
    /*backlogSlackUs=*/1000.0, /*maxSendLateP50Us=*/1000.0};
// Rung k offers base * 2^(k/16); the search climbs x2, then x2^(1/4), then
// x2^(1/16) (about 4.4%) per rung.
inline constexpr Ladder kColdLadder{/*baseQps=*/250.0, /*stepsPerDoubling=*/16,
                                    /*maxRung=*/128, /*rungSeconds=*/0.5};
inline constexpr Ladder kCachedLadder{/*baseQps=*/2000.0, /*stepsPerDoubling=*/16,
                                      /*maxRung=*/192, /*rungSeconds=*/0.4};
inline constexpr double kDrainSeconds = 5.0;

// -- Nominal rates, fixed so cpu_us_per_op and e2e.p50_us / e2e.p99_us
// always describe the same offered load. serve_cold's is about half its
// knee on the reference box (4 vCPUs). serve_cached's is far below its
// knee, where requests arrive further apart than the host ever delays
// them, so every request costs its own wakeups. At 20k QPS the loop
// batched more requests per wakeup the slower the host ran, and CPU per
// query read 11.9 us at a p50 of 436 us and 18.5 us at 52 us (spread 0.40
// over ten runs); at 2k QPS twenty runs through the same noise read
// 35.5-52.0 us, with spreads of 0.10 and 0.13.
inline constexpr double kColdNominalQps = 1200.0;
inline constexpr double kCachedNominalQps = 2'000.0;
inline constexpr double kLiveNominalQps = 1000.0;
/// Warm-up sends every pool query once at this rate, below serve_cold's
/// knee: every one is a cache miss that fans out to the kernel, and a
/// faster warm-up overflows the broker queues, so the rejected queries stay
/// uncached and miss again in the timed phase.
inline constexpr double kWarmQps = 1000.0;
// The measured phase of every untraced run lasts --seconds: the nominal
// phase of a serving workload, the moving phase of live_move, the plan
// repetitions of rebalance (at least kPlanReps of them).

/// e2e.p99_us is the median over windows of this many consecutive arrivals of
/// each window's p99 (ten samples beyond the percentile per window).
inline constexpr std::size_t kTailWindow = 1000;
/// The traced run replays at most this many nominal-phase queries through
/// the kernel (index.* and serve.merge_us).
inline constexpr std::size_t kReplayQueries = 3000;
/// A run whose generator ran later than this at p99 in the nominal phase
/// is marked invalid (its latencies would describe the generator, not the
/// server; they still count from the scheduled arrival, so they err high).
inline constexpr double kMaxNominalLateP99Us = 25'000.0;

// -- rebalance (T4-sized) -----------------------------------------------------
inline constexpr std::size_t kRegularMachines = 800;
inline constexpr std::size_t kExchangeMachines = 32;
inline constexpr double kShardsPerMachine = 20.0;
inline constexpr double kLoadFactor = 0.8;
inline constexpr std::size_t kLnsIterations = 700;  // per search
inline constexpr std::size_t kPortfolioSearches = 4;  // nproc of the reference box
inline constexpr int kPlanReps = 3;               // at least this many plans per run
inline constexpr std::size_t kPolishSteps = 40;   // traced run only
inline constexpr int kInstanceSetupReps = 9;     // setup_s = median of these

// -- live_move ----------------------------------------------------------------
inline constexpr std::uint32_t kLiveDocs = 60'000;
inline constexpr std::uint32_t kLiveTerms = 10'000;
inline constexpr std::size_t kLivePool = 500;
inline constexpr std::size_t kLiveCacheEntries = 4096;
inline constexpr double kMoveIntervalSeconds = 0.25;  // one move per interval
inline constexpr double kCopySeconds = 0.05;          // sets the copy bandwidth

}  // namespace perfbench::config
