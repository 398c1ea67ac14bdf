// rebalance: the SRA planner on a T4-sized synthetic instance (832
// machines including 32 exchange machines, 16,000 shards, 2 dimensions,
// load 0.8). Serving is idle; only the solver layers work.
//
// The plan is bit-deterministic for a seed: SRA's parallel portfolio of
// kPortfolioSearches seeded searches (one per vCPU of the reference box,
// the winner picked in a fixed order), a fixed LNS iteration count, and no
// wall-clock-bounded phase (SRA's polish is switched off because Sra
// hard-codes a 10,000-step cap and bounds it by wall clock; at this size
// polish alone takes over a minute). The timed run calls Sra::rebalance
// as a whole, again and again for --seconds (at least kPlanReps times),
// checks every rep yields the same mapping, and reports the median CPU
// time of one plan: the sum over the searches' threads, so a vCPU the host
// slows for a while moves it by a quarter of its slowdown. The traced run
// composes the same steps itself (solvePortfolio -> finalizeResult),
// checks it reproduces the mapping, and then times polishAssignment (a
// fixed step count) and pruneRedundantMoves on the search result.

#include <cstdio>

#include "config.hpp"
#include "core/polish.hpp"
#include "core/rebalancer.hpp"
#include "core/sra.hpp"
#include "lns/portfolio.hpp"
#include "spans.hpp"
#include "workload/synthetic.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace resex;

double since(std::int64_t t0) { return static_cast<double>(nowNs() - t0) * 1e-9; }

SyntheticConfig instanceConfig(std::uint64_t seed) {
  SyntheticConfig g;
  g.seed = seed;
  g.machines = config::kRegularMachines;
  g.exchangeMachines = config::kExchangeMachines;
  g.shardsPerMachine = config::kShardsPerMachine;
  g.dims = 2;
  g.loadFactor = config::kLoadFactor;
  return g;
}

SraConfig sraConfig(std::uint64_t seed) {
  SraConfig c;
  c.lns.seed = seed;
  c.lns.maxIterations = config::kLnsIterations;
  c.lns.timeBudgetSeconds = 1e9;  // bounded by iterations only
  c.portfolioSearches = config::kPortfolioSearches;
  c.polish = false;
  return c;
}

double movedFrac(const Instance& instance, const RebalanceResult& r) {
  double total = 0.0;
  for (const Shard& s : instance.shards()) total += s.moveBytes;
  return total > 0.0 ? r.schedule.totalBytes / total : 0.0;
}

}  // namespace

Report runRebalance(const RunOptions& options) {
  Report report;
  const SyntheticConfig gen = instanceConfig(options.seed);

  // -- Set-up, timed: instance generation (median of several).
  std::vector<double> setupS;
  Instance instance;
  for (int rep = 0; rep < config::kInstanceSetupReps; ++rep) {
    const std::int64_t t0 = nowNs();
    instance = generateSynthetic(gen);
    setupS.push_back(since(t0));
  }
  double totalBytes = 0.0;
  for (const Shard& s : instance.shards()) totalBytes += s.moveBytes;
  std::printf("rebalance: %zu machines (%zu exchange), %zu shards, load %.3f, %zu LNS "
              "iterations\n",
              instance.machineCount(), instance.exchangeCount(), instance.shardCount(),
              instance.loadFactor(), config::kLnsIterations);

  // -- Timed: Sra::rebalance as a whole, for --seconds.
  std::vector<double> planS, planCpuUs;
  RebalanceResult plan;
  const std::int64_t start = nowNs();
  for (int rep = 0; rep < config::kPlanReps || since(start) < options.seconds; ++rep) {
    Sra sra(sraConfig(options.seed));
    const std::int64_t t0 = nowNs();
    const std::int64_t c0 = processCpuNs();
    RebalanceResult r = sra.rebalance(instance);
    planCpuUs.push_back(static_cast<double>(processCpuNs() - c0) * 1e-3);
    planS.push_back(since(t0));
    std::printf("plan rep %d: %.3fs wall, %.3fs cpu, %zu LNS iterations\n", rep, planS.back(),
                planCpuUs.back() * 1e-6, sra.lastSearch().stats.iterations);
    if (rep > 0 && r.finalMapping != plan.finalMapping)
      report.fail("Sra::rebalance is not deterministic for a seed");
    plan = std::move(r);
  }
  const double bottleneck = plan.after.bottleneckUtil;
  const double moved = movedFrac(instance, plan);
  std::printf("plan: %.3fs wall, %.3fs cpu, medians of %zu | bottleneck %.6f (from %.6f) | "
              "moved %.6f of bytes | %zu phases, %zu staged hops, complete %d\n",
              quantile(planS, 0.5), quantile(planCpuUs, 0.5) * 1e-6, planS.size(), bottleneck,
              plan.before.bottleneckUtil, moved, plan.schedule.phaseCount(),
              plan.schedule.stagedHops, plan.scheduleComplete());
  if (!plan.scheduleComplete()) report.fail("the plan's schedule is incomplete");
  report.attempted = planS.size();

  if (!options.trace) {
    // Plan wall time is a traced-run figure (core.plan_s): it waits for
    // the slowest search, so one vCPU the host slows sets it.
    report.add("setup_s", quantile(setupS, 0.5), "s", setupS.size());
    report.add("cpu_us_per_op", quantile(planCpuUs, 0.5), "us", planCpuUs.size());
    return report;
  }

  // -- Traced: the same pipeline composed step by step.
  SpanRecorder spans;
  const SraConfig c = sraConfig(options.seed);
  const Objective objective =
      Objective::forInstance(instance, c.spreadWeight, c.bytesWeight);
  const std::int64_t root0 = nowNs();
  PortfolioConfig portfolio;
  portfolio.searches = c.portfolioSearches;
  portfolio.baseSeed = c.lns.seed;
  portfolio.lns = c.lns;
  const std::int64_t s0 = nowNs();
  const LnsResult search = solvePortfolio(instance, objective, portfolio).best;
  const std::int64_t s1 = nowNs();
  std::vector<MachineId> target = search.bestScore.vacancyDeficit == 0
                                      ? search.bestMapping
                                      : instance.initialAssignment();
  const std::int64_t f0 = nowNs();
  const RebalanceResult composed = finalizeResult(instance, "SRA", target, c.scheduler,
                                                  static_cast<double>(s1 - s0) * 1e-9);
  const std::int64_t f1 = nowNs();
  const std::int64_t root = spans.add("sra.composed", root0, f1, -1, 0);
  spans.add("lns.solve", s0, s1, root, 0);
  spans.add("cluster.finalize", f0, f1, root, 0);
  if (composed.finalMapping != plan.finalMapping)
    report.fail("the composed pipeline does not reproduce Sra::rebalance's mapping");

  // Polish and return-home pruning on the search result, step-bounded.
  Assignment polished(instance, search.bestMapping);
  const std::int64_t p0 = nowNs();
  const PolishStats polish =
      polishAssignment(polished, objective, config::kPolishSteps, /*timeBudgetSeconds=*/1e9);
  const std::int64_t p1 = nowNs();
  const std::size_t pruned =
      pruneRedundantMoves(polished, objective, polished.bottleneckUtilization());
  const std::int64_t p2 = nowNs();
  const std::int64_t root2 = spans.add("sra.polish_extension", p0, p2, -1, 1);
  spans.add("core.polish", p0, p1, root2, 1);
  spans.add("core.prune", p1, p2, root2, 1);

  const LnsStats& st = search.stats;
  const double solveS = static_cast<double>(s1 - s0) * 1e-9;
  const double iters = static_cast<double>(st.iterations);
  report.add("core.plan_s", quantile(planS, 0.5), "s", planS.size());
  report.add("core.bottleneck", bottleneck, "util", 1);
  report.add("cluster.moved_frac", moved, "frac", 1);
  report.add("lns.solve_s", solveS, "s", 1);
  report.add("lns.iters_per_s", solveS > 0 ? iters / solveS : 0.0, "1/s", st.iterations);
  report.add("lns.accept_frac", iters > 0 ? static_cast<double>(st.accepted) / iters : 0.0,
             "frac", st.iterations);
  report.add("lns.repair_fail_frac",
             iters > 0 ? static_cast<double>(st.repairFailures) / iters : 0.0, "frac",
             st.iterations);
  report.add("core.polish_s", static_cast<double>(p1 - p0) * 1e-9, "s", 1);
  report.add("core.polish_steps", static_cast<double>(polish.moves + polish.swaps), "steps",
             1);
  report.add("core.prune_s", static_cast<double>(p2 - p1) * 1e-9, "s", 1);
  report.add("core.pruned_moves", static_cast<double>(pruned), "moves", 1);
  report.add("cluster.schedule_s", static_cast<double>(f1 - f0) * 1e-9, "s", 1);
  report.add("cluster.phases", static_cast<double>(composed.schedule.phaseCount()), "phases", 1);
  report.add("cluster.staged_moves", static_cast<double>(composed.schedule.stagedHops), "moves",
             1);
  report.add("trace.overhead_frac.plan_s",
             quantile(planS, 0.5) > 0
                 ? static_cast<double>(f1 - root0) * 1e-9 / quantile(planS, 0.5) - 1.0
                 : 0.0,
             "frac", 1);
  for (const auto& [layer, us] : spans.selfTimeUsByLayer())
    std::printf("self time %-8s %12.0f us\n", layer.c_str(), us);
  const std::string path =
      options.outDir + "/spans-rebalance-" + std::to_string(options.seed) + ".jsonl";
  if (spans.writeJsonLines(path)) std::printf("spans: written to %s\n", path.c_str());
  return report;
}

}  // namespace perfbench
