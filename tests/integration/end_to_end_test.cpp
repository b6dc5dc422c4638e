// End-to-end system tests: full bioassays through the adaptive-routing
// framework on the simulated MEDA biochip.

#include <gtest/gtest.h>

#include "assay/benchmarks.hpp"
#include "core/scheduler.hpp"
#include "sim/campaign.hpp"
#include "sim/simulated_chip.hpp"

namespace meda {
namespace {

sim::SimulatedChipConfig reference_chip() {
  sim::SimulatedChipConfig config;
  config.chip.width = assay::kChipWidth;
  config.chip.height = assay::kChipHeight;
  return config;
}

TEST(EndToEnd, AllNineBenchmarksCompleteOnHealthyChips) {
  std::vector<assay::MoList> all = assay::evaluation_suite();
  for (assay::MoList& list : assay::correlation_suite())
    all.push_back(std::move(list));
  for (const assay::MoList& list : all) {
    sim::SimulatedChip chip(reference_chip(), Rng(101));
    core::SchedulerConfig config;
    config.max_cycles = 3000;
    core::Scheduler scheduler(config);
    const core::ExecutionStats stats = scheduler.run(chip, list);
    EXPECT_TRUE(stats.success) << list.name << ": " << stats.failure_reason;
    EXPECT_TRUE(chip.droplets().empty()) << list.name;
    EXPECT_EQ(stats.resyntheses, 0) << list.name;  // nothing degraded yet
  }
}

TEST(EndToEnd, ActuationAccountingIsConsistent) {
  sim::SimulatedChip chip(reference_chip(), Rng(102));
  core::Scheduler scheduler(core::SchedulerConfig{});
  const core::ExecutionStats stats =
      scheduler.run(chip, assay::master_mix());
  ASSERT_TRUE(stats.success);
  EXPECT_EQ(chip.substrate().cycles(), stats.cycles);
  // Each cycle actuates at least one droplet pattern while any MO is
  // active, so the total actuations exceed the cycle count.
  EXPECT_GT(chip.substrate().total_actuations(), stats.cycles);
}

TEST(EndToEnd, FaultInjectionDegradesBaselineMoreThanAdaptive) {
  // Aggregate over a few pre-worn faulty chips: the adaptive router must
  // complete more executions than the baseline on the same chips.
  sim::CampaignConfig config;
  config.chip = reference_chip();
  config.chip.chip.degradation = DegradationRange{0.5, 0.9, 60.0, 150.0};
  config.chip.pre_wear_max = 150;
  config.chip.faults.mode = FaultMode::kClustered;
  config.chip.faults.faulty_fraction = 0.08;
  config.chip.faults.fail_at_lo = 15;
  config.chip.faults.fail_at_hi = 120;
  config.chips = 4;
  config.runs_per_chip = 4;
  config.seed0 = 9000;
  std::vector<sim::RouterConfig> routers(2);
  routers[0].name = "adaptive";
  routers[1].name = "baseline";
  routers[1].scheduler.adaptive = false;
  for (sim::RouterConfig& router : routers) router.scheduler.max_cycles = 1000;
  const auto cells =
      sim::run_campaign({assay::serial_dilution()}, routers, config);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_GT(cells[0].rollup.successes, cells[1].rollup.successes);
}

TEST(EndToEnd, AdaptiveReroutesAroundMidRunFailures) {
  // Faults tripping mid-run force health changes; the adaptive scheduler
  // must observe them (re-syntheses > 0) and still finish.
  sim::SimulatedChipConfig config = reference_chip();
  config.chip.degradation = DegradationRange{0.5, 0.9, 60.0, 150.0};
  config.pre_wear_max = 150;
  config.faults.mode = FaultMode::kClustered;
  config.faults.faulty_fraction = 0.10;
  config.faults.fail_at_lo = 5;
  config.faults.fail_at_hi = 60;
  sim::SimulatedChip chip(config, Rng(4242));
  core::SchedulerConfig sched;
  sched.adaptive = true;
  sched.max_cycles = 3000;
  core::Scheduler scheduler(sched);
  const core::ExecutionStats stats = scheduler.run(chip, assay::cep());
  EXPECT_TRUE(stats.success) << stats.failure_reason;
  EXPECT_GT(stats.resyntheses, 0);
}

TEST(EndToEnd, HybridLibraryAmortizesSynthesisAcrossExecutions) {
  sim::CampaignConfig config;
  config.chip = reference_chip();
  config.chips = 1;
  config.runs_per_chip = 4;
  config.seed0 = 71;
  const auto cells = sim::run_campaign(
      {assay::covid_pcr()}, {sim::RouterConfig{"adaptive", {}}}, config);
  const std::vector<core::ExecutionStats>& runs = cells.at(0).runs.at(0);
  ASSERT_EQ(runs.size(), 4u);
  for (const core::ExecutionStats& r : runs) ASSERT_TRUE(r.success);
  // On an undamaged chip the health digest stays constant, so later
  // executions are served from the library.
  EXPECT_GT(runs[1].library_hits, 0);
  EXPECT_LT(runs[3].synthesis_calls, runs[0].synthesis_calls);
}

TEST(EndToEnd, TwoAssayPanelRunsConcurrently) {
  // A diagnostic panel: two independent assay chains merged into one MO
  // list, executing simultaneously in disjoint chip bands.
  const auto make_chain = [](const char* name, double band_y) {
    assay::AssayBuilder b(name);
    const int sample = b.dispense(4.5, band_y, 16);
    const int reagent = b.dispense(16.5, band_y, 16);
    const int mixed = b.mix({sample}, {reagent}, 28.0, band_y, 6);
    const int read = b.mag({mixed}, 40.0, band_y, 8);
    b.output({read}, 54.0, band_y);
    return std::move(b).build();
  };
  const assay::MoList panel =
      assay::merge_assays(make_chain("A", 6.5), make_chain("B", 23.5));
  sim::SimulatedChip chip(reference_chip(), Rng(105));
  core::Scheduler scheduler(core::SchedulerConfig{});
  const core::ExecutionStats stats = scheduler.run(chip, panel);
  ASSERT_TRUE(stats.success) << stats.failure_reason;
  EXPECT_TRUE(chip.droplets().empty());
  // The chains genuinely overlap in time: chain B's mix (MO 7) starts
  // before chain A's output (MO 4) completes.
  EXPECT_LT(stats.mo_timings[7].activated, stats.mo_timings[4].completed);
  // And the panel is barely slower than a single chain.
  sim::SimulatedChip solo_chip(reference_chip(), Rng(105));
  const core::ExecutionStats solo =
      core::Scheduler(core::SchedulerConfig{})
          .run(solo_chip, make_chain("A", 6.5));
  EXPECT_LT(stats.cycles, 2 * solo.cycles);
}

TEST(EndToEnd, SynthesisWallTimeStaysInteractive) {
  // Section VII-D argues on-demand synthesis latency matters; our explicit
  // engine synthesizes a whole bioassay's strategies well under a second.
  sim::SimulatedChip chip(reference_chip(), Rng(103));
  core::Scheduler scheduler(core::SchedulerConfig{});
  const core::ExecutionStats stats = scheduler.run(chip, assay::nuip());
  ASSERT_TRUE(stats.success);
  EXPECT_LT(stats.synthesis_seconds, 1.0);
}

TEST(EndToEnd, DropletCountBookkeepingThroughSplitAndMerge) {
  // Serial dilution repeatedly merges and splits; every intermediate
  // droplet must be consumed by the end of the run.
  sim::SimulatedChip chip(reference_chip(), Rng(104));
  core::Scheduler scheduler(core::SchedulerConfig{});
  const core::ExecutionStats stats =
      scheduler.run(chip, assay::serial_dilution());
  ASSERT_TRUE(stats.success);
  EXPECT_TRUE(chip.droplets().empty());
}

}  // namespace
}  // namespace meda
