#include "control/recovery.hpp"

#include <algorithm>
#include <stdexcept>

#include "control/faults.hpp"

namespace resex {

void validateRecoveryConfig(const RecoveryConfig& config) {
  if (config.epsilonCapacity <= 0.0)
    detail::throwConfigError("RecoveryConfig.epsilonCapacity", "> 0",
                             config.epsilonCapacity);
  if (config.migrationBandwidth <= 0.0)
    detail::throwConfigError("RecoveryConfig.migrationBandwidth", "> 0",
                             config.migrationBandwidth);
}

Instance withFailedMachine(const Instance& instance, MachineId failed,
                           double epsilonCapacity) {
  if (failed >= instance.machineCount())
    throw std::invalid_argument("withFailedMachine: machine out of range");
  if (epsilonCapacity <= 0.0)
    throw std::invalid_argument("withFailedMachine: epsilon must be > 0");

  std::vector<Machine> machines = instance.machines();
  machines[failed].capacity = ResourceVector(instance.dims(), epsilonCapacity);

  return Instance(instance.dims(), std::move(machines), instance.shards(),
                  instance.initialAssignment(), instance.exchangeCount(),
                  instance.transientGamma(), instance.replicaGroups());
}

RecoveryResult recoverFromFailure(const Instance& instance, MachineId failed,
                                  const RecoveryConfig& config) {
  const MachineId failedList[] = {failed};
  return recoverFromFailure(instance, std::span<const MachineId>(failedList), config);
}

RecoveryResult recoverFromFailure(const Instance& instance,
                                  std::span<const MachineId> failed,
                                  const RecoveryConfig& config) {
  validateRecoveryConfig(config);
  if (failed.empty())
    throw std::invalid_argument("recoverFromFailure: no failed machines given");

  Instance crippled = withFailedMachine(instance, failed[0], config.epsilonCapacity);
  for (std::size_t i = 1; i < failed.size(); ++i)
    crippled = withFailedMachine(crippled, failed[i], config.epsilonCapacity);

  const auto isFailed = [failed](MachineId m) {
    return std::find(failed.begin(), failed.end(), m) != failed.end();
  };

  RecoveryResult result;
  for (ShardId s = 0; s < instance.shardCount(); ++s)
    if (isFailed(instance.initialMachineOf(s))) ++result.shardsToEvacuate;

  SraConfig sraConfig = config.sra;
  // The evacuated machines must not count toward the compensation.
  sraConfig.vacancyTargetOverride = instance.exchangeCount() + failed.size();
  Sra sra(sraConfig);
  result.rebalance = sra.rebalance(crippled);

  result.evacuated = true;
  for (ShardId s = 0; s < instance.shardCount(); ++s)
    if (isFailed(result.rebalance.finalMapping[s])) result.evacuated = false;

  Assignment after(crippled, result.rebalance.finalMapping);
  double worst = 0.0;
  for (MachineId m = 0; m < crippled.machineCount(); ++m) {
    if (isFailed(m)) continue;
    worst = std::max(worst, after.utilizationOf(m));
  }
  result.survivorBottleneck = worst;
  result.estimatedSeconds = estimateScheduleSeconds(
      crippled, result.rebalance.schedule, config.migrationBandwidth);
  return result;
}

}  // namespace resex
