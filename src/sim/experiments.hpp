#pragma once

#include <cstdint>
#include <vector>

#include "assay/mo.hpp"
#include "core/library.hpp"
#include "core/scheduler.hpp"
#include "sim/simulated_chip.hpp"

/// @file experiments.hpp
/// Experiment harnesses for the paper's evaluation (Section VII), next to
/// the chip-population runner of sim/campaign.hpp:
///  - the PoS(k_max) metric of Fig. 15 over a campaign cell's executions;
///  - fault-injection trials (five successes or abort) of Fig. 16;
///  - the offline phase of the hybrid scheduling scheme.

namespace meda::sim {

/// PoS(k_max): the fraction of executions that completed successfully
/// within @p kmax cycles (Fig. 15's y-axis).
double probability_of_success(const std::vector<core::ExecutionStats>& runs,
                              std::uint64_t kmax);

/// Fig. 16 trial configuration: repeat the bioassay on one chip until
/// `successes_target` successful executions, aborting when the cumulative
/// cycle count exceeds `kmax_total`.
struct TrialConfig {
  SimulatedChipConfig chip{};
  core::SchedulerConfig scheduler{};
  int successes_target = 5;
  std::uint64_t kmax_total = 1000;
  std::uint64_t seed = 1;
};

/// Fig. 16 trial outcome.
struct TrialResult {
  std::uint64_t total_cycles = 0;     ///< cumulative cycles over the trial
  int successes = 0;
  int executions = 0;
  int first_failure_execution = 0;    ///< 1-based; 0 = never failed
  bool aborted = false;               ///< ran out of the cycle budget

  /// The field list (see core::RecoveryCounters::for_each_field):
  /// bench/fig16_fault_injection's checkpoint codec and digest walk it.
  template <typename F, typename... T>
  static void for_each_field(F&& f, T&&... t) {
    f("total_cycles", t.total_cycles...);
    f("successes", t.successes...);
    f("executions", t.executions...);
    f("first_failure_execution", t.first_failure_execution...);
    f("aborted", t.aborted...);
  }
};

/// Runs one Fig. 16 trial.
TrialResult run_trial(const assay::MoList& assay, const TrialConfig& config);

/// The offline phase of the hybrid scheduling scheme (Section VI-D):
/// executes @p assay once on a pristine simulated twin of the chip, filling
/// @p library with pre-synthesized full-health strategies for every routing
/// job the scheduler will encounter. On an undegraded chip all moves are
/// deterministic, so a subsequent real execution is served entirely from
/// the library (zero runtime synthesis calls until health changes).
///
/// Returns the number of strategies in the library afterwards.
std::size_t precompute_offline_library(core::StrategyLibrary& library,
                                       const assay::MoList& assay,
                                       const BiochipConfig& chip_config,
                                       const core::SchedulerConfig& scheduler);

}  // namespace meda::sim
