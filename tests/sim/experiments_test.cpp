#include "sim/experiments.hpp"

#include <gtest/gtest.h>

#include "assay/benchmarks.hpp"
#include "sim/campaign.hpp"
#include "util/check.hpp"

namespace meda::sim {
namespace {

core::ExecutionStats execution(bool success, std::uint64_t cycles) {
  core::ExecutionStats stats;
  stats.success = success;
  stats.cycles = cycles;
  return stats;
}

TEST(ProbabilityOfSuccess, CountsOnlyRunsWithinBudget) {
  const std::vector<core::ExecutionStats> runs = {
      execution(true, 100), execution(true, 200),
      execution(false, 150),  // failed runs never count
      execution(true, 300)};
  EXPECT_DOUBLE_EQ(probability_of_success(runs, 99), 0.0);
  EXPECT_DOUBLE_EQ(probability_of_success(runs, 100), 0.25);
  EXPECT_DOUBLE_EQ(probability_of_success(runs, 250), 0.5);
  EXPECT_DOUBLE_EQ(probability_of_success(runs, 1000), 0.75);
}

TEST(ProbabilityOfSuccess, MonotoneInBudget) {
  CampaignConfig config;
  config.chip.chip.width = assay::kChipWidth;
  config.chip.chip.height = assay::kChipHeight;
  config.chip.chip.degradation = DegradationRange{0.5, 0.9, 80.0, 200.0};
  config.chips = 1;
  config.runs_per_chip = 6;
  config.seed0 = 7;
  const std::vector<CampaignCell> cells = run_campaign(
      {assay::master_mix()}, {RouterConfig{"adaptive", {}}}, config);
  const std::vector<core::ExecutionStats>& runs = cells.front().runs.front();
  ASSERT_EQ(runs.size(), 6u);
  double prev = 0.0;
  for (std::uint64_t k = 50; k <= 1000; k += 50) {
    const double pos = probability_of_success(runs, k);
    EXPECT_GE(pos, prev);
    prev = pos;
  }
}

TEST(ProbabilityOfSuccess, EmptyRecordsThrow) {
  EXPECT_THROW(probability_of_success({}, 100), PreconditionError);
}

TEST(RunTrial, HealthyChipReachesTheTarget) {
  TrialConfig config;
  config.chip.chip.width = assay::kChipWidth;
  config.chip.chip.height = assay::kChipHeight;
  config.kmax_total = 2000;
  config.seed = 11;
  const TrialResult r = run_trial(assay::covid_rat(), config);
  EXPECT_EQ(r.successes, kTrialSuccesses);
  EXPECT_EQ(r.executions, kTrialSuccesses);
  EXPECT_FALSE(r.aborted);
  EXPECT_EQ(r.first_failure_execution, 0);
  EXPECT_GT(r.total_cycles, 0u);
  EXPECT_LE(r.total_cycles, 2000u);
}

TEST(RunTrial, TinyBudgetAborts) {
  TrialConfig config;
  config.chip.chip.width = assay::kChipWidth;
  config.chip.chip.height = assay::kChipHeight;
  config.kmax_total = 30;  // far below one execution's cycle count
  config.seed = 11;
  const TrialResult r = run_trial(assay::covid_rat(), config);
  EXPECT_TRUE(r.aborted);
  EXPECT_EQ(r.successes, 0);
  EXPECT_GE(r.first_failure_execution, 1);
}

TEST(RunTrial, BudgetCapsTheCumulativeCycles) {
  TrialConfig config;
  config.chip.chip.width = assay::kChipWidth;
  config.chip.chip.height = assay::kChipHeight;
  config.chip.chip.degradation = DegradationRange{0.5, 0.7, 40.0, 80.0};
  config.kmax_total = 800;  // short of five executions on this dying chip
  config.seed = 13;
  const TrialResult r = run_trial(assay::serial_dilution(), config);
  EXPECT_TRUE(r.aborted);
  EXPECT_LE(r.total_cycles, 800u + 100u);  // slack: the last run overshoots
}

TEST(OfflineLibrary, PrecomputeEliminatesRuntimeSynthesis) {
  // Section VI-D offline phase: after precomputing on the pristine twin, a
  // real execution on an equally fresh chip is served entirely from the
  // library.
  core::StrategyLibrary library;
  BiochipConfig chip_config;
  chip_config.width = assay::kChipWidth;
  chip_config.height = assay::kChipHeight;
  core::SchedulerConfig sched;
  const std::size_t entries = precompute_offline_library(
      library, assay::covid_pcr(), chip_config, sched);
  EXPECT_GT(entries, 0u);

  SimulatedChipConfig sim_config;
  sim_config.chip = chip_config;
  SimulatedChip chip(sim_config, Rng(123));
  core::Scheduler scheduler(sched, &library);
  const core::ExecutionStats stats = scheduler.run(chip, assay::covid_pcr());
  ASSERT_TRUE(stats.success) << stats.failure_reason;
  EXPECT_EQ(stats.synthesis_calls, 0);
  EXPECT_GT(stats.library_hits, 0);
}

TEST(OfflineLibrary, DegradedChipFallsBackToRuntimeSynthesis) {
  core::StrategyLibrary library;
  BiochipConfig chip_config;
  chip_config.width = assay::kChipWidth;
  chip_config.height = assay::kChipHeight;
  core::SchedulerConfig sched;
  precompute_offline_library(library, assay::covid_rat(), chip_config, sched);

  SimulatedChipConfig sim_config;
  sim_config.chip = chip_config;
  sim_config.chip.degradation = DegradationRange{0.5, 0.6, 60.0, 100.0};
  sim_config.pre_wear_max = 200;  // worn chip → different health digests
  SimulatedChip chip(sim_config, Rng(124));
  core::Scheduler scheduler(sched, &library);
  const core::ExecutionStats stats = scheduler.run(chip, assay::covid_rat());
  ASSERT_TRUE(stats.success) << stats.failure_reason;
  EXPECT_GT(stats.synthesis_calls, 0);
}

TEST(RunTrial, DeterministicPerSeed) {
  TrialConfig config;
  config.chip.chip.width = assay::kChipWidth;
  config.chip.chip.height = assay::kChipHeight;
  config.seed = 17;
  const TrialResult a = run_trial(assay::master_mix(), config);
  const TrialResult b = run_trial(assay::master_mix(), config);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.executions, b.executions);
}

}  // namespace
}  // namespace meda::sim
