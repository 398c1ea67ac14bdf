// The metrics a run reports, as BENCHMARK.json lists them: every
// end-to-end metric on every untraced run, every per-layer metric on every
// traced run, each in its one unit, whatever the workload. The two lists
// here and the manifest's must match name for name and unit for unit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (--trace 0). Every workload measures each of them.
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"cpu_us_per_op", "us"},
};

/// Per-layer metrics (--trace 1), grouped by the module they time. A
/// workload that does not exercise a layer reports that layer's metrics
/// as 0 with 0 samples.
inline constexpr MetricSpec kPerLayer[] = {
    {"e2e.qps_max", "1/s"},
    {"e2e.p50_us", "us"},
    {"e2e.p99_us", "us"},
    {"net.ingress_us.p50", "us"},
    {"net.ingress_us.p99", "us"},
    {"net.overhead_us", "us"},
    {"net.p99_ratio", "ratio"},
    {"net.codec_ns", "ns"},
    {"net.read_pauses_per_1k", "per_1k"},
    {"serve.handle_us.p50", "us"},
    {"serve.handle_us.p99", "us"},
    {"serve.broker_us.p50", "us"},
    {"serve.broker_us.p99", "us"},
    {"serve.queue_depth.mean", "tasks"},
    {"serve.queue_depth.max", "tasks"},
    {"serve.queue_wait_us", "us"},
    {"serve.busy_frac", "frac"},
    {"serve.cache_hit_frac", "frac"},
    {"serve.degraded_per_1k", "per_1k"},
    {"serve.rejected_per_1k", "per_1k"},
    {"serve.shed_per_1k", "per_1k"},
    {"serve.merge_us", "us"},
    {"serve.invalidated_per_move", "entries"},
    {"index.task_us.p50", "us"},
    {"index.task_us.p99", "us"},
    {"index.query_cpu_us", "us"},
    {"index.critical_us", "us"},
    {"index.postings_per_query", "postings"},
    {"index.block_skip_frac", "frac"},
    {"index.scanned_frac", "frac"},
    {"index.segment_open_ms", "ms"},
    {"lns.solve_s", "s"},
    {"lns.iters_per_s", "1/s"},
    {"lns.accept_frac", "frac"},
    {"lns.repair_fail_frac", "frac"},
    {"core.plan_s", "s"},
    {"core.bottleneck", "util"},
    {"core.polish_s", "s"},
    {"core.polish_steps", "steps"},
    {"core.prune_s", "s"},
    {"core.pruned_moves", "moves"},
    {"cluster.schedule_s", "s"},
    {"cluster.phases", "phases"},
    {"cluster.staged_moves", "moves"},
    {"cluster.moved_frac", "frac"},
    {"control.move_s", "s"},
    {"control.admit_us", "us"},
    {"control.copy_ms", "ms"},
    {"control.commit_ms", "ms"},
    {"control.retries", "count"},
    {"control.aborted", "count"},
    {"loadgen.late_us.p99", "us"},
    {"attr.residual_frac", "frac"},
    {"trace.overhead_frac.p50", "frac"},
    {"trace.overhead_frac.qps_max", "frac"},
    {"trace.overhead_frac.plan_s", "frac"},
};

/// The run's result metrics in manifest order: the end-to-end list for an
/// untraced run, the per-layer list for a traced one. Every end-to-end
/// metric must have been measured; a per-layer metric that was not is
/// reported as 0 with 0 samples. Throws std::logic_error on a missing
/// end-to-end metric, a name outside the run's list, a name measured
/// twice, or a unit other than the manifest's.
std::vector<Metric> manifestOrder(const std::vector<Metric>& measured, bool trace);

}  // namespace perfbench
