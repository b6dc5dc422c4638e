#include "chip/biochip.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "chip/microelectrode.hpp"
#include "util/check.hpp"

namespace meda {
namespace {

BiochipConfig small_config() {
  BiochipConfig config;
  config.width = 8;
  config.height = 6;
  config.health_bits = 2;
  return config;
}

TEST(Microelectrode, ActuationCountingAndDegradation) {
  Microelectrode mc(DegradationParams{0.5, 100.0});
  EXPECT_EQ(mc.actuations(), 0u);
  EXPECT_DOUBLE_EQ(mc.degradation(), 1.0);
  mc.actuate();
  mc.actuate_n(99);
  EXPECT_EQ(mc.actuations(), 100u);
  EXPECT_NEAR(mc.degradation(), 0.5, 1e-12);
  EXPECT_NEAR(mc.relative_force(), 0.25, 1e-12);
  EXPECT_EQ(mc.health(2), 2);
}

TEST(Microelectrode, DegradationCacheInvalidatesOnActuation) {
  Microelectrode mc(DegradationParams{0.5, 10.0});
  const double d0 = mc.degradation();
  mc.actuate_n(10);
  EXPECT_LT(mc.degradation(), d0);
  const double d1 = mc.degradation();
  EXPECT_DOUBLE_EQ(mc.degradation(), d1);  // cached value is stable
}

TEST(Microelectrode, InjectedFaultTripsAtThreshold) {
  Microelectrode mc(DegradationParams{0.9, 500.0});
  mc.inject_fault(5);
  EXPECT_TRUE(mc.fault_injected());
  EXPECT_FALSE(mc.failed());
  mc.actuate_n(4);
  EXPECT_FALSE(mc.failed());
  EXPECT_GT(mc.degradation(), 0.9);
  mc.actuate();
  EXPECT_TRUE(mc.failed());
  EXPECT_DOUBLE_EQ(mc.degradation(), 0.0);
  EXPECT_EQ(mc.health(2), 0);
}

TEST(Microelectrode, CachedHealthFollowsEveryMutation) {
  Microelectrode mc(DegradationParams{0.6, 40.0});
  const auto fresh = [&mc](int bits) {
    return quantize_health(mc.degradation(), bits);
  };
  EXPECT_EQ(mc.health(2), fresh(2));
  for (int i = 0; i < 60; ++i) {
    mc.actuate();
    ASSERT_EQ(mc.health(2), fresh(2)) << "after actuation " << i + 1;
  }
  mc.actuate_n(25);
  EXPECT_EQ(mc.health(2), fresh(2));
  // One cell read at alternating resolutions.
  for (int i = 0; i < 6; ++i) {
    const int bits = i % 2 == 0 ? 4 : 1;
    EXPECT_EQ(mc.health(bits), fresh(bits)) << "bits " << bits;
  }
  EXPECT_THROW(mc.health(0), PreconditionError);
  EXPECT_THROW(mc.health(17), PreconditionError);
  // An injected fault trips on actuation...
  mc.inject_fault(mc.actuations() + 2);
  mc.actuate();
  EXPECT_EQ(mc.health(3), fresh(3));
  EXPECT_GT(mc.health(3), 0);
  mc.actuate();
  EXPECT_TRUE(mc.failed());
  EXPECT_EQ(mc.health(3), 0);
  // ...and a fault injected below the count trips with no actuation at all.
  Microelectrode worn(DegradationParams{0.9, 500.0});
  worn.actuate_n(10);
  EXPECT_EQ(worn.health(2), 3);
  worn.inject_fault(5);
  EXPECT_EQ(worn.health(2), 0);
  EXPECT_EQ(worn.health(2), quantize_health(worn.degradation(), 2));
}

TEST(Microelectrode, HealthyMcNeverFails) {
  Microelectrode mc(DegradationParams{0.9, 500.0});
  EXPECT_FALSE(mc.fault_injected());
  mc.actuate_n(1000000);
  EXPECT_FALSE(mc.failed());
}

TEST(DegradationRangeTest, SamplesWithinBounds) {
  Rng rng(3);
  const DegradationRange range{0.5, 0.9, 200.0, 500.0};
  for (int i = 0; i < 200; ++i) {
    const DegradationParams p = range.sample(rng);
    EXPECT_GE(p.tau, 0.5);
    EXPECT_LT(p.tau, 0.9);
    EXPECT_GE(p.c, 200.0);
    EXPECT_LT(p.c, 500.0);
  }
}

TEST(DegradationRangeTest, RejectsInvalidRanges) {
  Rng rng(3);
  EXPECT_THROW((DegradationRange{0.9, 0.5, 1, 2}.sample(rng)),
               PreconditionError);
  EXPECT_THROW((DegradationRange{0.5, 0.9, 0.0, 2}.sample(rng)),
               PreconditionError);
}

TEST(Biochip, GeometryAndBounds) {
  Rng rng(1);
  Biochip chip(small_config(), rng);
  EXPECT_EQ(chip.width(), 8);
  EXPECT_EQ(chip.height(), 6);
  EXPECT_EQ(chip.bounds(), (Rect{0, 0, 7, 5}));
  EXPECT_TRUE(chip.in_bounds(7, 5));
  EXPECT_FALSE(chip.in_bounds(8, 0));
  EXPECT_TRUE(chip.in_bounds(Rect{0, 0, 7, 5}));
  EXPECT_FALSE(chip.in_bounds(Rect{0, 0, 8, 5}));
  EXPECT_THROW(chip.mc(8, 0), PreconditionError);
  EXPECT_THROW(chip.wear(8, 0, 1), PreconditionError);
  EXPECT_THROW(chip.inject_fault(0, -1, 5), PreconditionError);
}

TEST(Biochip, FreshChipSensesTopHealthEverywhere) {
  Rng rng(1);
  Biochip chip(small_config(), rng);
  const IntMatrix h = chip.health_matrix();
  for (int y = 0; y < 6; ++y)
    for (int x = 0; x < 8; ++x) EXPECT_EQ(h(x, y), 3);
  const DoubleMatrix d = chip.degradation_matrix();
  for (int y = 0; y < 6; ++y)
    for (int x = 0; x < 8; ++x) EXPECT_DOUBLE_EQ(d(x, y), 1.0);
}

TEST(Biochip, PatternActuationIncrementsOnlySetCells) {
  Rng rng(1);
  Biochip chip(small_config(), rng);
  BoolMatrix pattern(8, 6);
  pattern(2, 3) = 1;
  pattern(5, 1) = 1;
  chip.actuate(pattern);
  chip.actuate(pattern);
  EXPECT_EQ(chip.mc(2, 3).actuations(), 2u);
  EXPECT_EQ(chip.mc(5, 1).actuations(), 2u);
  EXPECT_EQ(chip.mc(0, 0).actuations(), 0u);
  EXPECT_EQ(chip.total_actuations(), 4u);
  EXPECT_EQ(chip.cycles(), 2u);
}

TEST(Biochip, RectActuationClipsToChip) {
  Rng rng(1);
  Biochip chip(small_config(), rng);
  chip.actuate(Rect{6, 4, 10, 9});  // extends past the chip
  EXPECT_EQ(chip.mc(6, 4).actuations(), 1u);
  EXPECT_EQ(chip.mc(7, 5).actuations(), 1u);
  EXPECT_EQ(chip.total_actuations(), 4u);  // 2×2 clipped area
}

TEST(Biochip, PatternDimensionMismatchThrows) {
  Rng rng(1);
  Biochip chip(small_config(), rng);
  EXPECT_THROW(chip.actuate(BoolMatrix(4, 4)), PreconditionError);
}

TEST(Biochip, AreaHealthMatrixIsClippedView) {
  Rng rng(1);
  Biochip chip(small_config(), rng);
  chip.wear(3, 2, 1000000);  // wear one cell to the floor
  const IntMatrix h = chip.health_matrix(Rect{2, 1, 4, 3});
  EXPECT_EQ(h.width(), 3);
  EXPECT_EQ(h.height(), 3);
  EXPECT_EQ(h(1, 1), chip.mc(3, 2).health(2));  // relative coordinates
  EXPECT_EQ(h(0, 0), 3);
}

TEST(Biochip, ActuationMatrixMatchesPerCellCounts) {
  Rng rng(1);
  Biochip chip(small_config(), rng);
  chip.actuate(Rect{0, 0, 1, 1});
  chip.actuate(Rect{0, 0, 0, 0});
  const Matrix<std::uint64_t> n = chip.actuation_matrix();
  EXPECT_EQ(n(0, 0), 2u);
  EXPECT_EQ(n(1, 0), 1u);
  EXPECT_EQ(n(1, 1), 1u);
  EXPECT_EQ(n(2, 2), 0u);
}

TEST(Biochip, HealthDropsWithWear) {
  Rng rng(7);
  BiochipConfig config = small_config();
  config.degradation = DegradationRange{0.5, 0.5, 100.0, 100.0};
  Biochip chip(config, rng);
  chip.wear(1, 1, 100);  // D = 0.5 → H = 2
  chip.wear(2, 2, 300);  // D = 0.125 → H = 0
  const IntMatrix h = chip.health_matrix();
  EXPECT_EQ(h(1, 1), 2);
  EXPECT_EQ(h(2, 2), 0);
  EXPECT_EQ(h(0, 0), 3);
}

/// Test-local sweep of the truth: the code of every cell of @p area,
/// quantized afresh from its degradation.
IntMatrix fresh_codes(const Biochip& chip, const Rect& area) {
  IntMatrix h(area.width(), area.height());
  for (int y = area.ya; y <= area.yb; ++y)
    for (int x = area.xa; x <= area.xb; ++x)
      h(x - area.xa, y - area.ya) =
          quantize_health(chip.mc(x, y).degradation(), chip.health_bits());
  return h;
}

/// A rect that may overhang the chip on any side (or miss it entirely).
Rect random_rect(Rng& rng, int width, int height) {
  const int xa = rng.uniform_int(-3, width + 1);
  const int ya = rng.uniform_int(-3, height + 1);
  return Rect{xa, ya, xa + rng.uniform_int(0, 4), ya + rng.uniform_int(0, 4)};
}

TEST(Biochip, HealthCodesEqualAFreshQuantizationAfterEveryMutation) {
  // Low c moves the codes within a few actuations; τ = 0 makes a cell drop
  // from the top code to 0 on its first actuation.
  const DegradationRange ranges[] = {{0.3, 0.9, 3.0, 30.0},
                                     {0.0, 0.0, 3.0, 30.0}};
  for (int bits = 1; bits <= 4; ++bits) {
    for (const DegradationRange& range : ranges) {
      BiochipConfig config;
      config.width = 9;
      config.height = 7;
      config.health_bits = bits;
      config.degradation = range;
      Rng rng(static_cast<std::uint64_t>(100 * bits) +
              (range.tau_hi == 0.0 ? 1u : 0u));
      Biochip chip(config, rng);
      ASSERT_EQ(chip.health_matrix(), fresh_codes(chip, chip.bounds()));
      for (int step = 0; step < 400; ++step) {
        const int kind = rng.uniform_int(0, 3);
        if (kind == 0) {
          // Overlapping rects, clipped to the chip, charged as one cycle.
          BoolMatrix pattern(config.width, config.height);
          for (int r = rng.uniform_int(1, 3); r > 0; --r) {
            const Rect c = random_rect(rng, config.width, config.height)
                               .intersection_with(chip.bounds());
            if (!c.valid()) continue;
            for (int y = c.ya; y <= c.yb; ++y)
              for (int x = c.xa; x <= c.xb; ++x) pattern(x, y) = 1;
          }
          chip.actuate(pattern);
        } else if (kind == 1) {
          chip.actuate(random_rect(rng, config.width, config.height));
        } else {
          const int x = rng.uniform_int(0, config.width - 1);
          const int y = rng.uniform_int(0, config.height - 1);
          const auto n = static_cast<std::uint64_t>(rng.uniform_int(0, 20));
          if (kind == 2) {
            chip.wear(x, y, n);
          } else {
            // Below, at or above the cell's count.
            const std::uint64_t count = chip.mc(x, y).actuations();
            const int side = rng.uniform_int(-1, 1);
            const std::uint64_t fail_at =
                side < 0 ? count - std::min(count, n)
                         : (side == 0 ? count : count + n);
            chip.inject_fault(x, y, fail_at);
          }
        }
        SCOPED_TRACE(::testing::Message()
                     << "bits " << bits << ", tau <= " << range.tau_hi
                     << ", step " << step << ", kind " << kind);
        ASSERT_EQ(chip.health_matrix(), fresh_codes(chip, chip.bounds()));
        const Rect area = random_rect(rng, config.width, config.height);
        const Rect clipped = area.intersection_with(chip.bounds());
        if (clipped.valid()) {
          ASSERT_EQ(chip.health_matrix(area), fresh_codes(chip, clipped));
        }
      }
      EXPECT_NE(chip.health_matrix(),
                IntMatrix(config.width, config.height, (1 << bits) - 1));
    }
  }
}

TEST(Biochip, RejectsInvalidConfig) {
  Rng rng(1);
  BiochipConfig config;
  config.width = 0;
  EXPECT_THROW(Biochip(config, rng), PreconditionError);
  config = small_config();
  config.health_bits = 0;
  EXPECT_THROW(Biochip(config, rng), PreconditionError);
}

}  // namespace
}  // namespace meda
