#include "core/value_iteration.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "core/compiled_mdp.hpp"
#include "core/mdp.hpp"
#include "core/synthesizer.hpp"
#include "model/outcomes.hpp"
#include "util/deadline.hpp"
#include "util/rng.hpp"

/// Fuzzed equivalence oracle for the warm-started solver: over long random
/// health-delta sequences, solve_reach_avoid_warm on the patched model must
/// reproduce a cold solve_reach_avoid of the very same model — identical
/// policies (the shared tie-break rule) and values within solver tolerance —
/// while its telemetry reports the warm path truthfully.

namespace meda::core {
namespace {

constexpr int kGrid = 12;
constexpr int kBits = 3;
constexpr int kFull = (1 << kBits) - 1;

Rect chip() { return Rect{0, 0, kGrid - 1, kGrid - 1}; }

DoubleMatrix force_of(const IntMatrix& health) {
  return force_from_health(health, kBits, HealthEstimator::kScaled);
}

assay::RoutingJob fixture_job() {
  assay::RoutingJob rj;
  rj.start = Rect::from_size(0, 4, 4, 4);
  rj.goal = Rect::from_size(8, 4, 4, 4);
  rj.hazard = chip();
  return rj;
}

struct Fixture {
  IntMatrix health{kGrid, kGrid, 5};
  CompiledMdp compiled;
  CompiledGeometry geometry;
  ReachAvoidSolution prior;

  explicit Fixture(const SolveConfig& config = {}) {
    CompiledModel model = build_compiled_mdp(
        fixture_job(), force_of(health), chip(), ActionRules{});
    compiled = std::move(model.mdp);
    geometry = std::move(model.geometry);
    prior = solve_reach_avoid(compiled, config);
  }

  /// Perturbs @p count cells inside (0, full) — topology-stable — and
  /// patches the compiled model. Returns the dirty seed set.
  std::vector<std::uint32_t> mutate(Rng& rng, int count) {
    IntMatrix before = health;
    for (int i = 0; i < count; ++i)
      health(rng.uniform_int(0, kGrid - 1), rng.uniform_int(0, kGrid - 1)) =
          rng.uniform_int(1, kFull - 1);
    const MdpPatch patch = patch_compiled_mdp(
        compiled, geometry, force_of(health), chip(), chip(), ActionRules{},
        health_delta_cells(before, health));
    EXPECT_TRUE(patch.patched);
    return patch.dirty_states;
  }
};

void expect_equivalent(const ReachAvoidSolution& warm,
                       const ReachAvoidSolution& cold, const char* label) {
  ASSERT_EQ(warm.pmax.values.size(), cold.pmax.values.size()) << label;
  // Identical tie-breaks: the warm verification sweeps recompute every
  // argmax with the cold backup arithmetic, so the policies match exactly.
  EXPECT_EQ(warm.pmax.chosen, cold.pmax.chosen) << label;
  EXPECT_EQ(warm.rmin.chosen, cold.rmin.chosen) << label;
  for (std::size_t s = 0; s < cold.pmax.values.size(); ++s) {
    EXPECT_NEAR(warm.pmax.values[s], cold.pmax.values[s], 1e-7)
        << label << " pmax state " << s;
    if (std::isinf(cold.rmin.values[s])) {
      EXPECT_TRUE(std::isinf(warm.rmin.values[s]))
          << label << " rmin state " << s;
    } else {
      EXPECT_NEAR(warm.rmin.values[s], cold.rmin.values[s], 1e-6)
          << label << " rmin state " << s;
    }
  }
}

TEST(WarmSolve, FuzzedDeltaSequencesMatchColdSolves) {
  // ≥ 100 random warm solves across independent delta lineages, each chained
  // warm-on-warm (the prior of step k is the warm result of step k−1, as in
  // the scheduler).
  Rng rng(0xace50001u);
  int solves = 0;
  for (int seq = 0; seq < 25; ++seq) {
    Fixture f;
    for (int step = 0; step < 5; ++step) {
      const std::vector<std::uint32_t> dirty =
          f.mutate(rng, rng.uniform_int(1, 6));
      // On this 81-state toy grid a couple of cells dirty a large fraction
      // of the states; widen the frontier threshold so the fuzz actually
      // exercises the worklist instead of always falling back.
      SolveConfig config;
      config.warm_dirty_fraction = 1.0;
      const ReachAvoidSolution warm =
          solve_reach_avoid_warm(f.compiled, f.prior, dirty, config);
      const ReachAvoidSolution cold = solve_reach_avoid(f.compiled);
      expect_equivalent(warm, cold, "fuzz");
      EXPECT_TRUE(warm.pmax.warm_started);
      EXPECT_TRUE(warm.rmin.warm_started);
      EXPECT_FALSE(cold.pmax.warm_started);
      // Seeding at the prior fixed point can only shorten verification.
      EXPECT_LE(warm.pmax.iterations, cold.pmax.iterations);
      f.prior = warm;
      ++solves;
    }
  }
  EXPECT_GE(solves, 100);
}

TEST(WarmSolve, IsDeterministic) {
  Rng rng(0xace50002u);
  Fixture f;
  const std::vector<std::uint32_t> dirty = f.mutate(rng, 4);
  SolveConfig config;
  config.warm_dirty_fraction = 1.0;  // toy grid: keep the worklist engaged
  const ReachAvoidSolution a =
      solve_reach_avoid_warm(f.compiled, f.prior, dirty, config);
  const ReachAvoidSolution b =
      solve_reach_avoid_warm(f.compiled, f.prior, dirty, config);
  EXPECT_EQ(a.pmax.values, b.pmax.values);
  EXPECT_EQ(a.rmin.values, b.rmin.values);
  EXPECT_EQ(a.pmax.chosen, b.pmax.chosen);
  EXPECT_EQ(a.rmin.chosen, b.rmin.chosen);
  EXPECT_EQ(a.pmax.warm_pops, b.pmax.warm_pops);
  EXPECT_EQ(a.rmin.warm_pops, b.rmin.warm_pops);
}

TEST(WarmSolve, WideDirtyFrontierFallsBackToFullSweeps) {
  Rng rng(0xace50003u);
  Fixture f;
  const std::vector<std::uint32_t> dirty = f.mutate(rng, 4);
  SolveConfig config;
  config.warm_dirty_fraction = 0.0;  // every frontier counts as too wide
  const ReachAvoidSolution warm =
      solve_reach_avoid_warm(f.compiled, f.prior, dirty, config);
  EXPECT_TRUE(warm.pmax.warm_fell_back);
  EXPECT_EQ(warm.pmax.warm_pops, 0u);
  expect_equivalent(warm, solve_reach_avoid(f.compiled), "fallback");
}

TEST(WarmSolve, ZeroPopBudgetDisablesTheWorklist) {
  Rng rng(0xace50004u);
  Fixture f;
  const std::vector<std::uint32_t> dirty = f.mutate(rng, 3);
  SolveConfig config;
  config.warm_pop_budget_sweeps = 0;  // seeded-but-swept
  const ReachAvoidSolution warm =
      solve_reach_avoid_warm(f.compiled, f.prior, dirty, config);
  EXPECT_EQ(warm.pmax.warm_pops, 0u);
  EXPECT_EQ(warm.rmin.warm_pops, 0u);
  expect_equivalent(warm, solve_reach_avoid(f.compiled), "no worklist");
}

TEST(WarmSolve, ReportsWarmStartTruthfully) {
  Fixture f;
  // Deterministic delta far from the goal rect: on this fixture pmax is 1
  // everywhere, so the worklist is seeded purely from the dirty states —
  // cells near the start guarantee non-goal (hence poppable) seeds.
  IntMatrix before = f.health;
  f.health(2, 5) = 2;
  f.health(3, 6) = 3;
  const MdpPatch patch = patch_compiled_mdp(
      f.compiled, f.geometry, force_of(f.health), chip(), chip(),
      ActionRules{}, health_delta_cells(before, f.health));
  ASSERT_TRUE(patch.patched);
  const std::vector<std::uint32_t>& dirty = patch.dirty_states;
  SolveConfig config;
  config.warm_dirty_fraction = 1.0;  // toy grid: keep the worklist engaged
  const ReachAvoidSolution warm =
      solve_reach_avoid_warm(f.compiled, f.prior, dirty, config);
  EXPECT_TRUE(warm.pmax.warm_started);
  EXPECT_FALSE(warm.pmax.warm_fell_back);
  EXPECT_GT(warm.pmax.warm_seeds, 0u);
  EXPECT_GT(warm.pmax.warm_pops, 0u);
  // A cold solve of the same model carries no warm telemetry.
  const ReachAvoidSolution cold = solve_reach_avoid(f.compiled);
  EXPECT_FALSE(cold.pmax.warm_started);
  EXPECT_EQ(cold.pmax.warm_pops, 0u);
  EXPECT_EQ(cold.pmax.warm_seeds, 0u);
}

TEST(WarmSolve, DeadlineExpiryIsReportedAndUnusable) {
  Rng rng(0xace50006u);
  Fixture f;
  const std::vector<std::uint32_t> dirty = f.mutate(rng, 4);
  SolveConfig config;
  config.deadline = util::Deadline::after_checks(1);
  const ReachAvoidSolution warm =
      solve_reach_avoid_warm(f.compiled, f.prior, dirty, config);
  EXPECT_TRUE(warm.pmax.deadline_expired || warm.rmin.deadline_expired);
  EXPECT_EQ(warm.rmin.termination, SolveTermination::kDeadline);
}

}  // namespace
}  // namespace meda::core
