#include "sim/adversary.hpp"

#include <gtest/gtest.h>

#include "assay/benchmarks.hpp"
#include "core/scheduler.hpp"
#include "sim/simulated_chip.hpp"

namespace meda::sim {
namespace {

SimulatedChipConfig small_config() {
  SimulatedChipConfig config;
  config.chip.width = 20;
  config.chip.height = 12;
  // Low c so adversarial wear is visible in the health matrix quickly.
  config.chip.degradation = DegradationRange{0.5, 0.5, 100.0, 100.0};
  return config;
}

std::uint64_t total_wear(const Biochip& chip) {
  std::uint64_t total = 0;
  for (int y = 0; y < chip.height(); ++y)
    for (int x = 0; x < chip.width(); ++x)
      total += chip.mc(x, y).actuations();
  return total;
}

TEST(RandomAdversaryTest, AddsExactlyTheBudgetedWear) {
  SimulatedChip chip(small_config(), Rng(1));
  chip.set_adversary(
      std::make_unique<RandomAdversary>(AdversaryBudget{3, 40}));
  const std::uint64_t before = total_wear(chip.substrate());
  chip.step({});
  chip.step({});
  // No droplets → only adversary wear: 2 cycles × 3 cells × 40.
  EXPECT_EQ(total_wear(chip.substrate()) - before, 2u * 3u * 40u);
}

TEST(RandomAdversaryTest, HealthMatrixTracksTheDamage) {
  // The adversary wears cells through Biochip::wear between reads, so every
  // read of the live per-cell codes must equal a fresh quantization: on a
  // fresh chip, and on one whose codes pre-wear and clustered faults set
  // before the first cycle.
  SimulatedChipConfig worn = small_config();
  worn.pre_wear_max = 60;
  worn.faults.mode = FaultMode::kClustered;
  worn.faults.faulty_fraction = 0.1;
  worn.faults.fail_at_lo = 0;
  worn.faults.fail_at_hi = 90;
  for (const SimulatedChipConfig& config : {small_config(), worn}) {
    SimulatedChip chip(config, Rng(4));
    chip.set_adversary(
        std::make_unique<RandomAdversary>(AdversaryBudget{6, 15}));
    const Biochip& substrate = chip.substrate();
    for (int cycle = 0; cycle < 40; ++cycle) {
      const IntMatrix& health = substrate.health_matrix();
      for (int y = 0; y < substrate.height(); ++y) {
        for (int x = 0; x < substrate.width(); ++x) {
          ASSERT_EQ(health(x, y),
                    quantize_health(substrate.mc(x, y).degradation(),
                                    substrate.health_bits()))
              << "cell (" << x << ", " << y << "), cycle " << cycle
              << ", pre-wear " << config.pre_wear_max;
        }
      }
      chip.step({});
    }
    EXPECT_NE(substrate.health_matrix(),
              IntMatrix(substrate.width(), substrate.height(), 3));
  }
}

TEST(FrontierAdversaryTest, IdleWithoutDroplets) {
  SimulatedChip chip(small_config(), Rng(2));
  chip.set_adversary(
      std::make_unique<FrontierAdversary>(AdversaryBudget{5, 100}));
  chip.step({});
  EXPECT_EQ(total_wear(chip.substrate()), 0u);
}

TEST(FrontierAdversaryTest, DamagesOnlyTheRingAroundDroplets) {
  SimulatedChip chip(small_config(), Rng(3));
  chip.set_adversary(
      std::make_unique<FrontierAdversary>(AdversaryBudget{4, 25}));
  const core::DropletId id = chip.dispense(Rect{5, 0, 8, 3});
  (void)id;
  chip.step({});
  const Rect droplet{5, 0, 8, 3};
  const Rect ring = droplet.inflated(1);
  for (int y = 0; y < 12; ++y) {
    for (int x = 0; x < 20; ++x) {
      const std::uint64_t n = chip.substrate().mc(x, y).actuations();
      if (droplet.contains(x, y)) {
        // Held droplet pattern: exactly one actuation (adversary never hits
        // cells under the droplet).
        EXPECT_EQ(n, 1u) << x << "," << y;
      } else if (ring.contains(x, y)) {
        EXPECT_EQ(n % 25, 0u) << x << "," << y;  // 0 or k×25 hits
      } else {
        EXPECT_EQ(n, 0u) << x << "," << y;
      }
    }
  }
  EXPECT_EQ(total_wear(chip.substrate()),
            static_cast<std::uint64_t>(droplet.area()) + 4u * 25u);
}

TEST(AdversaryTest, RemovingTheAdversaryStopsTheDamage) {
  SimulatedChip chip(small_config(), Rng(4));
  chip.set_adversary(
      std::make_unique<RandomAdversary>(AdversaryBudget{2, 10}));
  chip.step({});
  EXPECT_EQ(total_wear(chip.substrate()), 20u);
  chip.set_adversary(nullptr);
  chip.step({});
  EXPECT_EQ(total_wear(chip.substrate()), 20u);
}

TEST(AdversaryTest, AdaptiveRouterSurvivesAFrontierAdversary) {
  // End-to-end robustness: under a frontier-targeting degradation player,
  // the adaptive router still completes COVID-RAT (it observes the damage
  // through H and reroutes), where the baseline may stall.
  SimulatedChipConfig config;
  config.chip.width = assay::kChipWidth;
  config.chip.height = assay::kChipHeight;
  config.chip.degradation = DegradationRange{0.5, 0.7, 80.0, 150.0};
  SimulatedChip chip(config, Rng(5));
  chip.set_adversary(
      std::make_unique<FrontierAdversary>(AdversaryBudget{2, 60}));
  core::SchedulerConfig sched;
  sched.adaptive = true;
  sched.max_cycles = 2000;
  core::Scheduler scheduler(sched);
  const core::ExecutionStats stats = scheduler.run(chip, assay::covid_rat());
  EXPECT_TRUE(stats.success) << stats.failure_reason;
  EXPECT_GT(stats.resyntheses, 0);  // the damage was observed and reacted to
}

}  // namespace
}  // namespace meda::sim
