// The four workloads and the record each one returns.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metrics.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (inside the checkout).
  std::string outDir;
  /// Scratch space for segment files (inside the checkout).
  std::string workDir;
};

/// One run's outcome: what the final JSON line reports.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< why `correct` is false
  std::vector<std::string> warnings;  ///< why the timings are not to be trusted

  void add(std::string name, double value, std::string unit, std::uint64_t samples) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit), samples});
  }
  /// Records a correctness failure: a wrong answer, a nondeterministic
  /// plan, a dirty data plane. The run's result is not correct.
  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
  /// Records that the run's timings do not describe the program (the
  /// generator fell behind, the host stalled below the ladder's floor).
  /// Outputs were still checked, so `correct` is unchanged; the line is
  /// printed so the record shows which runs to distrust.
  void invalidate(std::string why) { warnings.push_back(std::move(why)); }
};

Report runServing(const RunOptions& options, bool cached);
Report runRebalance(const RunOptions& options);
Report runLiveMove(const RunOptions& options);

}  // namespace perfbench
