#include "chip/fault_injection.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>

#include "util/check.hpp"

namespace meda {
namespace {

Biochip make_chip(Rng& rng, int w = 20, int h = 10) {
  BiochipConfig config;
  config.width = w;
  config.height = h;
  return Biochip(config, rng);
}

TEST(FaultInjection, NoneModeInjectsNothing) {
  Rng rng(1);
  Biochip chip = make_chip(rng);
  FaultInjectionConfig config;
  config.mode = FaultMode::kNone;
  EXPECT_TRUE(inject_faults(chip, config, rng).empty());
}

TEST(FaultInjection, UniformHitsTargetCount) {
  Rng rng(2);
  Biochip chip = make_chip(rng);  // 200 cells
  FaultInjectionConfig config;
  config.mode = FaultMode::kUniform;
  config.faulty_fraction = 0.10;
  const auto injected = inject_faults(chip, config, rng);
  EXPECT_EQ(injected.size(), 20u);
  std::set<Vec2i> unique(injected.begin(), injected.end());
  EXPECT_EQ(unique.size(), injected.size());  // no duplicates
  for (const Vec2i& p : injected) {
    EXPECT_TRUE(chip.in_bounds(p.x, p.y));
    EXPECT_TRUE(chip.mc(p.x, p.y).fault_injected());
  }
}

TEST(FaultInjection, OnlyInjectedCellsAreFaulty) {
  Rng rng(3);
  Biochip chip = make_chip(rng);
  FaultInjectionConfig config;
  config.mode = FaultMode::kUniform;
  config.faulty_fraction = 0.05;
  const auto injected = inject_faults(chip, config, rng);
  const std::set<Vec2i> marked(injected.begin(), injected.end());
  int faulty = 0;
  for (int y = 0; y < chip.height(); ++y) {
    for (int x = 0; x < chip.width(); ++x) {
      if (chip.mc(x, y).fault_injected()) {
        ++faulty;
        EXPECT_TRUE(marked.contains(Vec2i{x, y}));
      }
    }
  }
  EXPECT_EQ(faulty, static_cast<int>(injected.size()));
}

TEST(FaultInjection, ClusteredFormsSquareClusters) {
  Rng rng(4);
  Biochip chip = make_chip(rng, 40, 30);
  FaultInjectionConfig config;
  config.mode = FaultMode::kClustered;
  config.faulty_fraction = 0.05;
  config.cluster_size = 2;
  const auto injected = inject_faults(chip, config, rng);
  EXPECT_GE(injected.size(), 60u);  // ≈ 5% of 1200 cells
  // Every injected cell has at least one injected neighbour within its 2×2
  // cluster (clusters may merge but never leave isolated cells).
  const std::set<Vec2i> marked(injected.begin(), injected.end());
  for (const Vec2i& p : injected) {
    bool has_neighbor = false;
    for (int dy = -1; dy <= 1 && !has_neighbor; ++dy)
      for (int dx = -1; dx <= 1 && !has_neighbor; ++dx)
        if ((dx != 0 || dy != 0) && marked.contains(Vec2i{p.x + dx, p.y + dy}))
          has_neighbor = true;
    EXPECT_TRUE(has_neighbor) << "isolated faulty cell at (" << p.x << ", "
                              << p.y << ")";
  }
}

TEST(FaultInjection, ThresholdsWithinConfiguredRange) {
  Rng rng(5);
  Biochip chip = make_chip(rng);
  FaultInjectionConfig config;
  config.mode = FaultMode::kUniform;
  config.faulty_fraction = 0.2;
  config.fail_at_lo = 10;
  config.fail_at_hi = 20;
  const auto injected = inject_faults(chip, config, rng);
  for (const Vec2i& p : injected) {
    const Microelectrode& mc = chip.mc(p.x, p.y);
    chip.wear(p.x, p.y, 9);
    EXPECT_FALSE(mc.failed());
    chip.wear(p.x, p.y, 11);  // now at 20 >= any threshold in [10, 20]
    EXPECT_TRUE(mc.failed());
  }
}

TEST(FaultInjection, InjectionIsDeterministicPerSeed) {
  Rng rng_a(77), rng_b(77);
  Biochip chip_a = make_chip(rng_a);
  Biochip chip_b = make_chip(rng_b);
  FaultInjectionConfig config;
  config.mode = FaultMode::kClustered;
  config.faulty_fraction = 0.08;
  EXPECT_EQ(inject_faults(chip_a, config, rng_a),
            inject_faults(chip_b, config, rng_b));
}

TEST(FaultInjection, ZeroFractionInjectsNothing) {
  Rng rng(6);
  Biochip chip = make_chip(rng);
  FaultInjectionConfig config;
  config.mode = FaultMode::kUniform;
  config.faulty_fraction = 0.0;
  EXPECT_TRUE(inject_faults(chip, config, rng).empty());
}

TEST(FaultInjection, ClusteredHitsTargetCountExactly) {
  // Regression: the clustered placer used to overshoot (a full cluster was
  // stamped even when fewer cells were needed) or undershoot (clusters
  // landing on already-chosen cells were simply wasted). It must now pin
  // the count to round(fraction · cells), like the uniform mode.
  Rng rng(7);
  for (const double fraction : {0.02, 0.05, 0.11}) {
    for (const int cluster_size : {2, 3}) {
      Biochip chip = make_chip(rng, 40, 30);  // 1200 cells
      FaultInjectionConfig config;
      config.mode = FaultMode::kClustered;
      config.faulty_fraction = fraction;
      config.cluster_size = cluster_size;
      const auto injected = inject_faults(chip, config, rng);
      const auto target =
          static_cast<std::size_t>(std::llround(fraction * 1200));
      EXPECT_EQ(injected.size(), target)
          << "fraction " << fraction << ", cluster " << cluster_size;
      std::set<Vec2i> unique(injected.begin(), injected.end());
      EXPECT_EQ(unique.size(), injected.size());
    }
  }
}

TEST(FaultInjection, ClusteredReachesHighFractionsOnSmallChips) {
  // Dense regime: on a small chip most cluster placements collide with
  // already-chosen cells, so the placer must grow existing clusters at
  // their frontier instead of spinning or giving up short.
  Rng rng(8);
  Biochip chip = make_chip(rng, 8, 6);  // 48 cells
  FaultInjectionConfig config;
  config.mode = FaultMode::kClustered;
  config.faulty_fraction = 0.75;
  const auto injected = inject_faults(chip, config, rng);
  EXPECT_EQ(injected.size(), 36u);
  for (const Vec2i& p : injected) EXPECT_TRUE(chip.in_bounds(p.x, p.y));
}

TEST(FaultInjection, ClusteredStaysInBoundsNearEdges) {
  // Clusters anchored near the east/south edges must clamp, not spill.
  Rng rng(9);
  Biochip chip = make_chip(rng, 5, 5);
  FaultInjectionConfig config;
  config.mode = FaultMode::kClustered;
  config.faulty_fraction = 0.5;
  config.cluster_size = 3;
  const auto injected = inject_faults(chip, config, rng);
  EXPECT_EQ(injected.size(), 13u);  // round(0.5 · 25), half rounds up
  for (const Vec2i& p : injected) EXPECT_TRUE(chip.in_bounds(p.x, p.y));
}

TEST(FaultInjection, RejectsBadFraction) {
  Rng rng(6);
  Biochip chip = make_chip(rng);
  FaultInjectionConfig config;
  config.faulty_fraction = 1.5;
  config.mode = FaultMode::kUniform;
  EXPECT_THROW(inject_faults(chip, config, rng), PreconditionError);
}

TEST(FaultInjection, RejectsThresholdsBeyondIntRangeBeforeAnyDraw) {
  // The threshold draw takes int bounds: 2^31 would invert them and
  // 2^32 + 100 would wrap to a draw from [50, 100].
  const std::uint64_t too_big[] = {std::uint64_t{1} << 31,
                                   (std::uint64_t{1} << 32) + 100};
  for (const bool high : {true, false}) {
    for (const std::uint64_t bound : too_big) {
      Rng rng(10);
      Biochip chip = make_chip(rng);
      FaultInjectionConfig config;
      config.mode = FaultMode::kClustered;
      config.faulty_fraction = 0.05;
      config.fail_at_hi = bound;
      if (!high) config.fail_at_lo = bound;
      Rng untouched = rng;
      try {
        inject_faults(chip, config, rng);
        ADD_FAILURE() << "bound " << bound << " was accepted";
      } catch (const PreconditionError& e) {
        const char* field = high ? "fail_at_hi" : "fail_at_lo";
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << e.what();
      }
      EXPECT_EQ(rng.next_u64(), untouched.next_u64()) << "a draw was spent";
    }
  }
  Rng rng(10);
  Biochip chip = make_chip(rng);
  FaultInjectionConfig config;
  config.mode = FaultMode::kUniform;
  config.faulty_fraction = 0.05;
  config.fail_at_lo = 1;
  config.fail_at_hi = std::numeric_limits<int>::max();
  EXPECT_NO_THROW(inject_faults(chip, config, rng));
}

}  // namespace
}  // namespace meda
