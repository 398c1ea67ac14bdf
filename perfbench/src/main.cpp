// perfbench — the repository's benchmark. One workload per invocation:
//
//   perfbench --workload serve_cold|serve_cached|rebalance|live_move
//             --seed N --seconds S --trace 0|1 [--out-dir D] [--work-dir D]
//
// Human-readable lines (metric, unit, sample count, layer self times) go
// to stdout first; the last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
// With --trace 0 the metrics are every end-to-end metric; with --trace 1
// every per-layer metric, in the manifest's order and units (metrics.hpp;
// perfbench/README.md says what each one means on each workload).

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>

#include "util/flags.hpp"
#include "util/json_writer.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  resex::Flags flags;
  flags.define("workload", "", "serve_cold | serve_cached | rebalance | live_move")
      .define("seed", "1", "input seed (corpus, queries, schedules, instance)")
      .define("seconds", "10", "measured seconds of the run")
      .define("trace", "0", "1 = traced run (per-layer metrics)")
      .define("out-dir", ".bench_build/out", "where the traced run writes spans")
      .define("work-dir", ".bench_build/work", "scratch directory for segment files");
  perfbench::RunOptions options;
  try {
    flags.parse(argc, argv);
    if (flags.helpRequested()) {
      std::cout << flags.helpText("perfbench");
      return 0;
    }
    options.workload = flags.str("workload");
    options.seed = static_cast<std::uint64_t>(flags.integer("seed"));
    options.seconds = flags.real("seconds");
    options.trace = flags.integer("trace") != 0;
    options.outDir = flags.str("out-dir");
    options.workDir = flags.str("work-dir");
    if (options.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  perfbench::Report report;
  try {
    std::filesystem::create_directories(options.outDir);
    std::filesystem::create_directories(options.workDir);
    if (options.workload == "serve_cold") {
      report = perfbench::runServing(options, /*cached=*/false);
    } else if (options.workload == "serve_cached") {
      report = perfbench::runServing(options, /*cached=*/true);
    } else if (options.workload == "rebalance") {
      report = perfbench::runRebalance(options);
    } else if (options.workload == "live_move") {
      report = perfbench::runLiveMove(options);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n", options.workload.c_str());
      return 2;
    }
    report.metrics = perfbench::manifestOrder(report.metrics, options.trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(), e.what());
    return 1;
  }

  for (auto& m : report.metrics)
    if (!std::isfinite(m.value)) {
      report.fail("metric " + m.name + " is not a finite number");
      m.value = 0.0;
    }
  for (const auto& problem : report.problems)
    std::printf("CHECK FAILED: %s\n", problem.c_str());
  for (const auto& warning : report.warnings)
    std::printf("RUN INVALID: %s\n", warning.c_str());
  std::printf("%-28s %16s  %-7s %s\n", "metric", "value", "unit", "samples");
  for (const auto& m : report.metrics)
    std::printf("%-28s %16.6g  %-7s %llu%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples),
                m.samples == 0 ? "  (not measured on this workload)" : "");

  resex::JsonWriter json;
  json.beginObject();
  json.field("correct", report.correct);
  json.field("attempted", std::max<std::uint64_t>(1, report.attempted));
  json.field("failed", report.failed);
  json.key("metrics").beginObject();
  for (const auto& m : report.metrics) {
    json.key(m.name).beginObject();
    json.field("value", m.value);
    json.field("unit", m.unit);
    json.endObject();
  }
  json.endObject();
  json.endObject();
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return 0;
}
