#include "core/synthesizer.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "model/outcomes.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"

namespace meda::core {
namespace {

SynthesisConfig no_morph_config() {
  SynthesisConfig config;
  config.rules.enable_morphing = false;
  return config;
}

assay::RoutingJob straight_east(int cells, int droplet = 4) {
  assay::RoutingJob rj;
  rj.start = Rect::from_size(0, 4, droplet, droplet);
  rj.goal = Rect::from_size(cells, 4, droplet, droplet);
  rj.hazard = Rect{0, 0, 29, 29};
  return rj;
}

TEST(Synthesizer, FullHealthShortestPathUsesDoubleSteps) {
  const Synthesizer synth(Rect{0, 0, 29, 29}, no_morph_config());
  const SynthesisResult r = synth.synthesize_with_force(
      straight_east(8), full_health_force(30, 30));
  EXPECT_TRUE(r.feasible);
  EXPECT_NEAR(r.expected_cycles, 4.0, 1e-9);  // 8 cells / 2 per cycle
  EXPECT_NEAR(r.reach_probability, 1.0, 1e-9);
  EXPECT_EQ(r.strategy.action(Rect::from_size(0, 4, 4, 4)), Action::kEE);
}

TEST(Synthesizer, SmallDropletCannotDoubleStep) {
  // A 3×3 droplet fails g_EE (w < 4): 8 single steps.
  const Synthesizer synth(Rect{0, 0, 29, 29}, no_morph_config());
  const SynthesisResult r = synth.synthesize_with_force(
      straight_east(8, 3), full_health_force(30, 30));
  EXPECT_NEAR(r.expected_cycles, 8.0, 1e-9);
}

TEST(Synthesizer, DiagonalRouteUsesOrdinals) {
  assay::RoutingJob rj;
  rj.start = Rect::from_size(0, 0, 3, 3);
  rj.goal = Rect::from_size(6, 6, 3, 3);
  rj.hazard = Rect{0, 0, 19, 19};
  const Synthesizer synth(Rect{0, 0, 19, 19}, no_morph_config());
  const SynthesisResult r =
      synth.synthesize_with_force(rj, full_health_force(20, 20));
  EXPECT_NEAR(r.expected_cycles, 6.0, 1e-9);  // 6 diagonal moves
  EXPECT_EQ(r.strategy.action(rj.start), Action::kNE);
}

TEST(Synthesizer, RoutesAroundADeadWall) {
  // A dead wall with a gap: the strategy must detour through the gap.
  const Rect chip{0, 0, 19, 19};
  DoubleMatrix force = full_health_force(20, 20);
  for (int y = 4; y < 20; ++y) force(10, y) = 0.0;  // wall above y=4
  assay::RoutingJob rj;
  rj.start = Rect::from_size(2, 8, 3, 3);
  rj.goal = Rect::from_size(15, 8, 3, 3);
  rj.hazard = chip;
  const Synthesizer synth(chip, no_morph_config());
  const SynthesisResult r = synth.synthesize_with_force(rj, force);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.reach_probability, 1.0, 1e-9);
  // Direct distance is 13 columns; the detour through the southern gap
  // costs strictly more cycles than the unobstructed route.
  const SynthesisResult open =
      synth.synthesize_with_force(rj, full_health_force(20, 20));
  EXPECT_GT(r.expected_cycles, open.expected_cycles);
  EXPECT_TRUE(std::isfinite(r.expected_cycles));
}

TEST(Synthesizer, FullyBlockedJobIsInfeasible) {
  const Rect chip{0, 0, 19, 19};
  DoubleMatrix force = full_health_force(20, 20);
  for (int y = 0; y < 20; ++y) force(10, y) = 0.0;  // full-height dead wall
  assay::RoutingJob rj;
  rj.start = Rect::from_size(2, 8, 3, 3);
  rj.goal = Rect::from_size(15, 8, 3, 3);
  rj.hazard = chip;
  const Synthesizer synth(chip, no_morph_config());
  const SynthesisResult r = synth.synthesize_with_force(rj, force);
  EXPECT_FALSE(r.feasible);
  EXPECT_TRUE(std::isinf(r.expected_cycles));
  EXPECT_NEAR(r.reach_probability, 0.0, 1e-9);
  EXPECT_TRUE(r.strategy.empty());
}

TEST(Synthesizer, PrefersHealthyDetourOverWeakShortcut) {
  // The direct corridor is weak (force 0.04 → ~25 cycles per step); a
  // healthy detour 4 rows south wins on expected cycles.
  const Rect chip{0, 0, 19, 19};
  DoubleMatrix force = full_health_force(20, 20);
  for (int x = 6; x <= 12; ++x)
    for (int y = 6; y <= 12; ++y) force(x, y) = 0.04;
  assay::RoutingJob rj;
  rj.start = Rect::from_size(2, 8, 3, 3);
  rj.goal = Rect::from_size(15, 8, 3, 3);
  rj.hazard = chip;
  const Synthesizer synth(chip, no_morph_config());
  const SynthesisResult r = synth.synthesize_with_force(rj, force);
  ASSERT_TRUE(r.feasible);
  // Weak-corridor crossing would cost >> 30 expected cycles; the detour
  // stays close to the unobstructed optimum.
  EXPECT_LT(r.expected_cycles, 30.0);
}

TEST(Synthesizer, SynthesizeFromHealthMatchesScaledForce) {
  const Rect chip{0, 0, 19, 19};
  IntMatrix health(20, 20, 3);
  for (int y = 0; y < 20; ++y) health(9, y) = 1;
  const Synthesizer synth(chip, no_morph_config());
  const SynthesisResult via_health =
      synth.synthesize(straight_east(10, 3), health, 2);
  const SynthesisResult via_force = synth.synthesize_with_force(
      straight_east(10, 3),
      force_from_health(health, 2, HealthEstimator::kScaled));
  EXPECT_NEAR(via_health.expected_cycles, via_force.expected_cycles, 1e-9);
  EXPECT_EQ(via_health.stats.states, via_force.stats.states);
}

TEST(Synthesizer, PmaxQueryExtractsLexicographically) {
  // φ_p alone ties everywhere on a healthy chip; the extracted strategy
  // breaks ties by expected cycles, so it still routes optimally.
  SynthesisConfig config = no_morph_config();
  config.query = Query::kPmaxReachability;
  const Synthesizer synth(Rect{0, 0, 29, 29}, config);
  const SynthesisResult r = synth.synthesize_with_force(
      straight_east(8), full_health_force(30, 30));
  EXPECT_TRUE(r.feasible);
  EXPECT_NEAR(r.reach_probability, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.expected_cycles, 4.0);
  EXPECT_EQ(r.strategy.action(Rect::from_size(0, 4, 4, 4)), Action::kEE);
}

TEST(Synthesizer, StartInsideGoalIsTriviallyFeasible) {
  assay::RoutingJob rj;
  rj.start = Rect::from_size(5, 5, 3, 3);
  rj.goal = Rect{4, 4, 8, 8};
  rj.hazard = Rect{0, 0, 19, 19};
  const Synthesizer synth(Rect{0, 0, 19, 19}, no_morph_config());
  const SynthesisResult r =
      synth.synthesize_with_force(rj, full_health_force(20, 20));
  EXPECT_TRUE(r.feasible);
  EXPECT_NEAR(r.expected_cycles, 0.0, 1e-12);
}

TEST(Synthesizer, StrategyCoversAllNonGoalReachableStates) {
  const Rect chip{0, 0, 19, 19};
  DoubleMatrix force(20, 20, 0.5);  // branching outcomes everywhere
  assay::RoutingJob rj;
  rj.start = Rect::from_size(0, 0, 4, 4);
  rj.goal = Rect::from_size(10, 10, 4, 4);
  rj.hazard = Rect{0, 0, 15, 15};
  const Synthesizer synth(chip, no_morph_config());
  const SynthesisResult r = synth.synthesize_with_force(rj, force);
  ASSERT_TRUE(r.feasible);
  const RoutingMdp mdp =
      build_routing_mdp(rj, force, chip, no_morph_config().rules);
  for (std::size_t s = 0; s < mdp.droplets.size(); ++s) {
    if (!mdp.is_goal[s]) {
      EXPECT_TRUE(r.strategy.action(mdp.droplets[s]).has_value())
          << mdp.droplets[s].to_string();
    }
  }
}

/// Follows a strategy's success outcomes deterministically from the start,
/// returning the visited droplet rectangles (cap at 100 steps).
std::vector<Rect> greedy_walk(const Strategy& strategy, const Rect& start,
                              const Rect& goal) {
  std::vector<Rect> path = {start};
  Rect pos = start;
  for (int i = 0; i < 100 && !goal.contains(pos); ++i) {
    const auto action = strategy.action(pos);
    if (!action) break;
    pos = apply(*action, pos);
    path.push_back(pos);
  }
  return path;
}

TEST(Synthesizer, WearPenaltyReroutesAroundWornCells) {
  // A worn (but fully usable) band crosses the straight corridor. The pure
  // cycle-count query pushes through it; the wear-aware query with a large
  // λ detours around it even though that costs extra cycles.
  const Rect chip{0, 0, 19, 19};
  IntMatrix health(20, 20, 3);
  for (int x = 9; x <= 11; ++x)
    for (int y = 4; y < 20; ++y) health(x, y) = 2;  // worn band, gap south
  assay::RoutingJob rj;
  rj.start = Rect::from_size(2, 8, 3, 3);
  rj.goal = Rect::from_size(15, 8, 3, 3);
  rj.hazard = chip;

  SynthesisConfig plain = no_morph_config();
  SynthesisConfig wear_aware = no_morph_config();
  wear_aware.wear_penalty_lambda = 25.0;
  const SynthesisResult r_plain =
      Synthesizer(chip, plain).synthesize(rj, health, 2);
  const SynthesisResult r_wear =
      Synthesizer(chip, wear_aware).synthesize(rj, health, 2);
  ASSERT_TRUE(r_plain.feasible);
  ASSERT_TRUE(r_wear.feasible);

  const auto touches_band = [](const std::vector<Rect>& path) {
    for (const Rect& r : path)
      for (int x = 9; x <= 11; ++x)
        for (int y = 4; y < 20; ++y)
          if (r.contains(x, y)) return true;
    return false;
  };
  EXPECT_TRUE(touches_band(greedy_walk(r_plain.strategy, rj.start, rj.goal)));
  EXPECT_FALSE(touches_band(greedy_walk(r_wear.strategy, rj.start, rj.goal)));
}

TEST(Synthesizer, ZeroWearPenaltyMatchesPlainQuery) {
  const Rect chip{0, 0, 19, 19};
  IntMatrix health(20, 20, 3);
  health(10, 9) = 1;
  SynthesisConfig explicit_zero = no_morph_config();
  explicit_zero.wear_penalty_lambda = 0.0;
  const SynthesisResult a =
      Synthesizer(chip, no_morph_config()).synthesize(straight_east(12, 3),
                                                      health, 2);
  const SynthesisResult b =
      Synthesizer(chip, explicit_zero).synthesize(straight_east(12, 3),
                                                  health, 2);
  EXPECT_DOUBLE_EQ(a.expected_cycles, b.expected_cycles);
}

TEST(Synthesizer, NegativeWearPenaltyRejected) {
  SynthesisConfig config = no_morph_config();
  config.wear_penalty_lambda = -1.0;
  const Synthesizer synth(Rect{0, 0, 19, 19}, config);
  EXPECT_THROW(
      synth.synthesize_with_force(straight_east(8), full_health_force(20, 20)),
      PreconditionError);
}

TEST(Synthesizer, TimingAndStatsArePopulated) {
  const Synthesizer synth(Rect{0, 0, 29, 29}, no_morph_config());
  const SynthesisResult r = synth.synthesize_with_force(
      straight_east(12), full_health_force(30, 30));
  EXPECT_GT(r.stats.states, 0u);
  EXPECT_GT(r.stats.choices, 0u);
  EXPECT_GT(r.stats.transitions, 0u);
  EXPECT_GE(r.construction_seconds, 0.0);
  EXPECT_GE(r.solve_seconds, 0.0);
}

TEST(Synthesizer, RejectsWrongSizedHealthMatrix) {
  const Synthesizer synth(Rect{0, 0, 29, 29});
  EXPECT_THROW(synth.synthesize(straight_east(8), IntMatrix(10, 10, 3), 2),
               PreconditionError);
}

TEST(Synthesizer, OneCompileOneWinningPassOneRminPerSynthesis) {
  // Regression pin for the solve order: one compile, one exact winning-region
  // pass, one rmin over it. Numeric pmax runs only when rmin leaves the start
  // at ∞, which a feasible job never does.
#ifdef MEDA_OBS_DISABLED
  GTEST_SKIP() << "instrumentation compiled out (MEDA_OBS=OFF)";
#endif
  obs::ctx().reset();
  obs::ctx().metrics().enable();
  const Synthesizer synth(Rect{0, 0, 29, 29}, no_morph_config());
  const SynthesisResult r = synth.synthesize_with_force(
      straight_east(8), full_health_force(30, 30));
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.reach_probability, 1.0);
  const obs::MetricsRegistry& m = obs::ctx().metrics();
  EXPECT_EQ(m.counter("vi.compile.calls"), 1u);
  EXPECT_EQ(m.counter("vi.winning.calls"), 1u);
  EXPECT_EQ(m.counter("vi.rmin.solves"), 1u);
  EXPECT_EQ(m.counter("vi.pmax.solves"), 0u);
  EXPECT_EQ(m.counter("synth.pmax_fallback.losing"), 0u);
  EXPECT_EQ(m.counter("synth.pmax_fallback.rmin_stalled"), 0u);
  obs::ctx().reset();
}

/// The rmin stall: a 60×30 chip at 2-bit code 2 whose goal block is dead
/// (code 0). Every state is almost-surely winning, but no goal-adjacent state
/// has a choice whose every branch is finite after rmin's first sweep, so
/// that sweep changes nothing and rmin stops with every state at ∞.
struct StallJob {
  Rect chip{0, 0, 59, 29};
  IntMatrix health{60, 30, 2};
  assay::RoutingJob job;

  StallJob() {
    for (int y = 2; y <= 5; ++y)
      for (int x = 46; x <= 49; ++x) health(x, y) = 0;
    job.start = Rect{46, 0, 49, 3};
    job.goal = Rect{46, 2, 49, 5};
    job.hazard = Rect{43, 0, 52, 8};
  }
};

TEST(Synthesizer, RminStallFallsBackToThePmaxStrategy) {
  // The solve counts need the instrumentation; the rest runs either way.
  const StallJob stall;
  const Synthesizer synth(stall.chip);
  obs::ctx().reset();
  obs::ctx().metrics().enable();
  const SynthesisResult r = synth.synthesize(stall.job, stall.health, 2);
  EXPECT_TRUE(r.feasible);
  EXPECT_TRUE(std::isinf(r.expected_cycles));
  EXPECT_GT(r.reach_probability, 1.0 - 1e-6);
  EXPECT_LT(r.reach_probability, 1.0);
#ifndef MEDA_OBS_DISABLED
  EXPECT_EQ(obs::ctx().metrics().counter("vi.pmax.solves"), 1u);
#endif

  // The strategy is the numeric-pmax argmax, state for state.
  const CompiledModel model = build_compiled_mdp(
      stall.job, force_from_health(stall.health, 2, HealthEstimator::kScaled),
      stall.chip, ActionRules{});
  const Solution pmax = solve_pmax(model.mdp);
  std::size_t chosen = 0;
  for (std::size_t s = 0; s < model.geometry.droplets.size(); ++s) {
    if (pmax.chosen[s] < 0) continue;
    ++chosen;
    const std::uint32_t c = model.mdp.choice_offset[s] +
                            static_cast<std::uint32_t>(pmax.chosen[s]);
    EXPECT_EQ(r.strategy.action(model.geometry.droplets[s]),
              model.geometry.choice_action[c])
        << "state " << s;
  }
  EXPECT_EQ(r.strategy.size(), chosen);

  // A probability-only delta is patched into the retained model, whose pmax
  // fallback is then solved as a fresh build's: one pmax solve, and the
  // strategy synthesize() gives on the same health.
  ResynthesisContext ctx;
  synth.resynthesize(stall.job, stall.health, 2, ctx);
  ASSERT_TRUE(ctx.valid);
  IntMatrix worn = stall.health;
  worn(45, 1) = 1;
  obs::ctx().reset();
  obs::ctx().metrics().enable();
  const SynthesisResult warm = synth.resynthesize(stall.job, worn, 2, ctx);
  EXPECT_TRUE(warm.warm);
  EXPECT_TRUE(warm.feasible);
  EXPECT_TRUE(std::isinf(warm.expected_cycles));
  EXPECT_GT(warm.reach_probability, 1.0 - 1e-6);
  EXPECT_LT(warm.reach_probability, 1.0);
#ifndef MEDA_OBS_DISABLED
  EXPECT_EQ(obs::ctx().metrics().counter("vi.pmax.solves"), 1u);
#endif
  obs::ctx().reset();
  const SynthesisResult fresh = synth.synthesize(stall.job, worn, 2);
  EXPECT_EQ(warm.reach_probability, fresh.reach_probability);
  ASSERT_EQ(warm.strategy.size(), fresh.strategy.size());
  for (const auto& [droplet, action] : fresh.strategy)
    EXPECT_EQ(warm.strategy.action(droplet), action);
}

TEST(Synthesizer, FiniteRminReportsReachProbabilityExactlyOne) {
  // A finite Rmin at the start puts it in the almost-sure winning region, so
  // its reach probability is exactly 1 on every path, also where numeric
  // pmax was solved and stopped a few ulps short of 1: the φ_p query, on a
  // fresh build and on a patched retained model.
  const Rect chip{0, 0, 29, 29};
  const IntMatrix health(30, 30, 1);  // 2-bit code 1 everywhere
  const CompiledModel model = build_compiled_mdp(
      straight_east(8), force_from_health(health, 2, HealthEstimator::kScaled),
      chip, ActionRules{});
  ASSERT_LT(solve_pmax(model.mdp).values[model.mdp.start], 1.0);

  EXPECT_EQ(Synthesizer(chip).synthesize(straight_east(8), health, 2)
                .reach_probability,
            1.0);
  SynthesisConfig config;
  config.query = Query::kPmaxReachability;
  const Synthesizer synth(chip, config);
  const SynthesisResult cold = synth.synthesize(straight_east(8), health, 2);
  EXPECT_TRUE(std::isfinite(cold.expected_cycles));
  EXPECT_EQ(cold.reach_probability, 1.0);

  ResynthesisContext ctx;
  synth.resynthesize(straight_east(8), health, 2, ctx);
  ASSERT_TRUE(ctx.valid);
  IntMatrix worn = health;
  worn(5, 5) = 2;
  const SynthesisResult warm =
      synth.resynthesize(straight_east(8), worn, 2, ctx);
  EXPECT_TRUE(warm.warm);
  EXPECT_TRUE(std::isfinite(warm.expected_cycles));
  EXPECT_EQ(warm.reach_probability, 1.0);
}

TEST(Synthesizer, PmaxFallbackCountersRecordWhyPmaxRan) {
#ifdef MEDA_OBS_DISABLED
  GTEST_SKIP() << "instrumentation compiled out (MEDA_OBS=OFF)";
#endif
  obs::ctx().reset();
  obs::ctx().metrics().enable();
  const obs::MetricsRegistry& m = obs::ctx().metrics();

  // A winning start that rmin left at ∞.
  const StallJob stall;
  Synthesizer(stall.chip).synthesize(stall.job, stall.health, 2);
  EXPECT_EQ(m.counter("synth.pmax_fallback.rmin_stalled"), 1u);
  EXPECT_EQ(m.counter("synth.pmax_fallback.losing"), 0u);
  EXPECT_EQ(m.counter("vi.winning.losing_states"), 0u);

  // A losing start: a dead column walls the goal off.
  DoubleMatrix force = full_health_force(30, 30);
  for (int y = 0; y < 30; ++y) force(6, y) = 0.0;
  const SynthesisResult walled =
      Synthesizer(Rect{0, 0, 29, 29}, no_morph_config())
          .synthesize_with_force(straight_east(8), force);
  EXPECT_FALSE(walled.feasible);
  EXPECT_EQ(m.counter("synth.pmax_fallback.losing"), 1u);
  EXPECT_EQ(m.counter("synth.pmax_fallback.rmin_stalled"), 1u);
  EXPECT_GT(m.counter("vi.winning.losing_states"), 0u);
  EXPECT_EQ(m.counter("vi.winning.calls"), 2u);
  EXPECT_EQ(m.counter("vi.pmax.solves"), 2u);
  obs::ctx().reset();
}

}  // namespace
}  // namespace meda::core
