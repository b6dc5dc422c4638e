#include "core/routability.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace meda::core {
namespace {

constexpr int kJobs = 30;

TEST(Routability, PristineChipIsFullyRoutableWithUnitStretch) {
  const IntMatrix health(30, 20, 3);
  Rng rng(1);
  const RoutabilityReport report =
      assess_routability(health, 2, kJobs, rng);
  EXPECT_EQ(report.jobs, 30);
  EXPECT_EQ(report.feasible, 30);
  EXPECT_DOUBLE_EQ(report.feasible_fraction, 1.0);
  EXPECT_NEAR(report.mean_stretch, 1.0, 1e-9);
  EXPECT_GT(report.mean_expected_cycles, 0.0);
}

TEST(Routability, DeadBandCutsTheFeasibleFraction) {
  IntMatrix health(30, 20, 3);
  for (int y = 0; y < 20; ++y)
    for (int x = 14; x <= 16; ++x) health(x, y) = 0;  // full dead band
  Rng rng(2);
  const RoutabilityReport report =
      assess_routability(health, 2, kJobs, rng);
  // Every job crossing the band is infeasible.
  EXPECT_LT(report.feasible_fraction, 1.0);
  EXPECT_GT(report.feasible_fraction, 0.0);  // same-side jobs still work
}

TEST(Routability, UniformWearShowsUpAsStretch) {
  const IntMatrix health(30, 20, 2);  // everything one bucket down
  Rng rng(3);
  const RoutabilityReport report =
      assess_routability(health, 2, kJobs, rng);
  EXPECT_DOUBLE_EQ(report.feasible_fraction, 1.0);
  // Scaled estimator: D̂ = 2/3 → force 4/9 → stretch ≈ 9/4 per step.
  EXPECT_GT(report.mean_stretch, 1.5);
}

TEST(Routability, DeterministicPerRngState) {
  const IntMatrix health(30, 20, 3);
  Rng a(7), b(7);
  const RoutabilityReport ra =
      assess_routability(health, 2, kJobs, a);
  const RoutabilityReport rb =
      assess_routability(health, 2, kJobs, b);
  EXPECT_EQ(ra.feasible, rb.feasible);
  EXPECT_DOUBLE_EQ(ra.mean_expected_cycles, rb.mean_expected_cycles);
}

TEST(Routability, WorseHealthNeverImprovesTheReport) {
  IntMatrix healthy(30, 20, 3);
  IntMatrix worn(30, 20, 3);
  for (int y = 5; y < 15; ++y)
    for (int x = 10; x < 20; ++x) worn(x, y) = 1;
  Rng a(11), b(11);
  const RoutabilityReport rh =
      assess_routability(healthy, 2, kJobs, a);
  const RoutabilityReport rw =
      assess_routability(worn, 2, kJobs, b);
  EXPECT_GE(rh.feasible, rw.feasible);
  EXPECT_LE(rh.mean_stretch, rw.mean_stretch + 1e-9);
}

TEST(Routability, RejectsBadConfig) {
  const IntMatrix health(30, 20, 3);
  Rng rng(1);
  EXPECT_THROW(assess_routability(health, 2, 0, rng), PreconditionError);
  // Both sides must exceed the 4-cell droplet side.
  const IntMatrix narrow(4, 20, 3);
  EXPECT_THROW(assess_routability(narrow, 2, kJobs, rng), PreconditionError);
}

}  // namespace
}  // namespace meda::core
