#include "sim/experiments.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace meda::sim {

double probability_of_success(const std::vector<core::ExecutionStats>& runs,
                              std::uint64_t kmax) {
  MEDA_REQUIRE(!runs.empty(), "no executions");
  const auto ok = std::count_if(
      runs.begin(), runs.end(), [kmax](const core::ExecutionStats& r) {
        return r.success && r.cycles <= kmax;
      });
  return static_cast<double>(ok) / static_cast<double>(runs.size());
}

TrialResult run_trial(const assay::MoList& assay, const TrialConfig& config) {
  MEDA_REQUIRE(config.successes_target >= 1, "need a positive target");
  Rng rng(config.seed);
  SimulatedChip chip(config.chip, rng.fork(0xF417));
  core::StrategyLibrary library;

  TrialResult result;
  while (result.successes < config.successes_target) {
    if (result.total_cycles >= config.kmax_total) {
      result.aborted = true;
      break;
    }
    // Cap each execution by the remaining trial budget.
    core::SchedulerConfig sched = config.scheduler;
    sched.max_cycles =
        std::min(sched.max_cycles, config.kmax_total - result.total_cycles);
    core::Scheduler scheduler(sched, &library);

    chip.clear_droplets();
    const core::ExecutionStats stats = scheduler.run(chip, assay);
    ++result.executions;
    result.total_cycles += stats.cycles;
    if (stats.success) {
      ++result.successes;
    } else if (result.first_failure_execution == 0) {
      result.first_failure_execution = result.executions;
    }
    if (!stats.success && result.total_cycles >= config.kmax_total) {
      result.aborted = true;
      break;
    }
    // A failed execution that did not exhaust the budget is retried (the
    // chip keeps degrading, so the trial will terminate).
    if (!stats.success && stats.cycles == 0) {
      // No progress is possible at all (e.g. dead dispense port): abort.
      result.aborted = true;
      break;
    }
  }
  return result;
}

std::size_t precompute_offline_library(
    core::StrategyLibrary& library, const assay::MoList& assay,
    const BiochipConfig& chip_config,
    const core::SchedulerConfig& scheduler) {
  SimulatedChipConfig twin;
  twin.chip = chip_config;  // pristine: no faults, no pre-wear
  // The twin's per-MC constants are irrelevant at zero actuations; any seed
  // yields a fully healthy chip.
  SimulatedChip chip(twin, Rng(0));
  core::Scheduler offline(scheduler, &library);
  const core::ExecutionStats stats = offline.run(chip, assay);
  MEDA_REQUIRE(stats.success,
               "offline precomputation failed: " + stats.failure_reason);
  return library.size();
}

}  // namespace meda::sim
