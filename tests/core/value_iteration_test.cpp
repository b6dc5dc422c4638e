#include "core/value_iteration.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/compiled_mdp.hpp"
#include "model/outcomes.hpp"

namespace meda::core {
namespace {

/// Hand-built MDP helper: droplet rects are placeholders distinguishing
/// states; semantics live entirely in the transition structure.
RoutingMdp make_mdp(std::size_t droplet_states,
                    std::vector<std::size_t> goal_states) {
  RoutingMdp mdp;
  mdp.droplets.resize(droplet_states);
  for (std::size_t i = 0; i < droplet_states; ++i)
    mdp.droplets[i] = Rect::from_size(static_cast<int>(i), 0, 1, 1);
  mdp.choices.resize(droplet_states);
  mdp.is_goal.assign(droplet_states, false);
  for (std::size_t g : goal_states) mdp.is_goal[g] = true;
  mdp.start = 0;
  return mdp;
}

void add_choice(RoutingMdp& mdp, std::size_t state, Action a,
                std::vector<Transition> transitions) {
  mdp.choices[state].push_back(Choice{a, 1.0, std::move(transitions)});
}

Solution compiled_pmax(const RoutingMdp& mdp) {
  return solve_pmax(compile_mdp(mdp));
}

Solution compiled_rmin(const RoutingMdp& mdp) {
  return solve_reach_avoid(compile_mdp(mdp)).rmin;
}

TEST(Pmax, RetryLoopReachesAlmostSurely) {
  // s0 --(p=0.3 goal, 0.7 stay)--> goal: committed retries give Pmax = 1.
  RoutingMdp mdp = make_mdp(2, {1});
  add_choice(mdp, 0, Action::kE, {{1, 0.3}, {0, 0.7}});
  const Solution sol = compiled_pmax(mdp);
  EXPECT_EQ(sol.termination, SolveTermination::kConverged);
  EXPECT_NEAR(sol.values[0], 1.0, 1e-9);
  EXPECT_EQ(sol.chosen[0], 0);
}

TEST(Pmax, HazardRiskReducesProbability) {
  // Single choice: 0.8 goal, 0.2 hazard sink.
  RoutingMdp mdp = make_mdp(2, {1});
  add_choice(mdp, 0, Action::kE, {{1, 0.8}, {2 /*sink*/, 0.2}});
  const Solution sol = compiled_pmax(mdp);
  EXPECT_NEAR(sol.values[0], 0.8, 1e-9);
  EXPECT_DOUBLE_EQ(sol.values[mdp.hazard_sink()], 0.0);
}

TEST(Pmax, PicksTheSaferChoice) {
  // Choice A: 0.9 goal / 0.1 hazard. Choice B: 0.2 goal / 0.8 stay (retry
  // forever → certain). Pmax must pick B.
  RoutingMdp mdp = make_mdp(2, {1});
  add_choice(mdp, 0, Action::kE, {{1, 0.9}, {2, 0.1}});
  add_choice(mdp, 0, Action::kN, {{1, 0.2}, {0, 0.8}});
  const Solution sol = compiled_pmax(mdp);
  EXPECT_NEAR(sol.values[0], 1.0, 1e-9);
  EXPECT_EQ(sol.chosen[0], 1);
}

TEST(Pmax, UnreachableGoalIsZero) {
  // s0's only move self-loops forever.
  RoutingMdp mdp = make_mdp(2, {1});
  add_choice(mdp, 0, Action::kE, {{0, 1.0}});
  const Solution sol = compiled_pmax(mdp);
  EXPECT_DOUBLE_EQ(sol.values[0], 0.0);
}

TEST(Pmax, GoalStateHasValueOne) {
  RoutingMdp mdp = make_mdp(2, {1});
  add_choice(mdp, 0, Action::kE, {{1, 1.0}});
  const Solution sol = compiled_pmax(mdp);
  EXPECT_DOUBLE_EQ(sol.values[1], 1.0);
}

TEST(Rmin, GeometricRetryHasExpectedCyclesOneOverP) {
  // Success probability p per attempt → E[cycles] = 1/p.
  for (const double p : {1.0, 0.5, 0.25, 0.1}) {
    RoutingMdp mdp = make_mdp(2, {1});
    add_choice(mdp, 0, Action::kE, {{1, p}, {0, 1.0 - p}});
    const Solution sol = compiled_rmin(mdp);
    EXPECT_NEAR(sol.values[0], 1.0 / p, 1e-6) << "p = " << p;
  }
}

TEST(Rmin, ChainAddsExpectations) {
  // s0 → s1 → goal with success probabilities 0.5 and 0.25:
  // E = 2 + 4 = 6.
  RoutingMdp mdp = make_mdp(3, {2});
  add_choice(mdp, 0, Action::kE, {{1, 0.5}, {0, 0.5}});
  add_choice(mdp, 1, Action::kE, {{2, 0.25}, {1, 0.75}});
  const Solution sol = compiled_rmin(mdp);
  EXPECT_NEAR(sol.values[0], 6.0, 1e-6);
  EXPECT_NEAR(sol.values[1], 4.0, 1e-6);
  EXPECT_DOUBLE_EQ(sol.values[2], 0.0);
}

TEST(Rmin, PrefersFastPathOverSlowPath) {
  // Two routes to goal: direct with p = 0.2 (E = 5) or detour via s1 with
  // two certain steps (E = 2). Rmin must take the detour.
  RoutingMdp mdp = make_mdp(3, {2});
  add_choice(mdp, 0, Action::kE, {{2, 0.2}, {0, 0.8}});
  add_choice(mdp, 0, Action::kN, {{1, 1.0}});
  add_choice(mdp, 1, Action::kE, {{2, 1.0}});
  const Solution sol = compiled_rmin(mdp);
  EXPECT_NEAR(sol.values[0], 2.0, 1e-9);
  EXPECT_EQ(sol.chosen[0], 1);
}

TEST(Rmin, ExcludesChoicesThatRiskTheHazard) {
  // Fast but hazardous (0.9 goal / 0.1 sink) vs slow and safe (p = 0.1).
  // PRISM's Rmin over □¬hazard ∧ ◇goal requires almost-sure reachability,
  // so only the safe choice is admissible: E = 10.
  RoutingMdp mdp = make_mdp(2, {1});
  add_choice(mdp, 0, Action::kE, {{1, 0.9}, {2, 0.1}});
  add_choice(mdp, 0, Action::kN, {{1, 0.1}, {0, 0.9}});
  const Solution sol = compiled_rmin(mdp);
  EXPECT_NEAR(sol.values[0], 10.0, 1e-6);
  EXPECT_EQ(sol.chosen[0], 1);
}

TEST(Rmin, InfeasibleStatesGetInfinity) {
  // Goal unreachable: Rmin = ∞ (the paper's (π, k) = (∅, ∞) case).
  RoutingMdp mdp = make_mdp(2, {1});
  add_choice(mdp, 0, Action::kE, {{0, 1.0}});
  const Solution sol = compiled_rmin(mdp);
  EXPECT_TRUE(std::isinf(sol.values[0]));
  EXPECT_EQ(sol.chosen[0], -1);
}

TEST(Rmin, HazardOnlyPathIsInfeasible) {
  RoutingMdp mdp = make_mdp(2, {1});
  add_choice(mdp, 0, Action::kE, {{2, 1.0}});  // straight into the sink
  const Solution sol = compiled_rmin(mdp);
  EXPECT_TRUE(std::isinf(sol.values[0]));
}

TEST(Rmin, BranchingOutcomesWeightedCorrectly) {
  // Ordinal-style branching: from s0, action moves to goal w.p. 0.5,
  // to s1 w.p. 0.3, stays w.p. 0.2. From s1 a certain step reaches goal.
  // J(s0) = (1 + 0.3·J(s1)) / 0.8 with J(s1) = 1 → J(s0) = 1.625.
  RoutingMdp mdp = make_mdp(3, {2});
  add_choice(mdp, 0, Action::kNE, {{2, 0.5}, {1, 0.3}, {0, 0.2}});
  add_choice(mdp, 1, Action::kE, {{2, 1.0}});
  const Solution sol = compiled_rmin(mdp);
  EXPECT_NEAR(sol.values[0], 1.625, 1e-9);
}

TEST(Solvers, DeterministicShortestPathOnGrid) {
  // End-to-end sanity on a real routing MDP: with full health, Rmin equals
  // the optimal move count (Chebyshev-ish metric with double steps).
  assay::RoutingJob rj;
  rj.start = Rect::from_size(0, 0, 4, 4);
  rj.goal = Rect::from_size(8, 0, 4, 4);
  rj.hazard = Rect{0, 0, 11, 11};
  const Rect chip{0, 0, 11, 11};
  ActionRules rules;
  rules.enable_morphing = false;
  const RoutingMdp mdp =
      build_routing_mdp(rj, full_health_force(12, 12), chip, rules);
  const ReachAvoidSolution sol =
      solve_reach_avoid(compile_mdp(mdp), {}, /*need_pmax=*/true);
  // 8 cells east with double steps = 4 cycles.
  EXPECT_NEAR(sol.rmin.values[mdp.start], 4.0, 1e-9);
  EXPECT_NEAR(sol.pmax.values[mdp.start], 1.0, 1e-9);
}

TEST(SolveTermination, StableLabels) {
  EXPECT_STREQ(to_string(SolveTermination::kConverged), "converged");
  EXPECT_STREQ(to_string(SolveTermination::kSweepLimit), "sweep_limit");
}

/// Linear chain s0 → s1 → … → goal with one certain step each. The
/// goal-anchored sweep order backs it up from the goal in one sweep, and a
/// second confirms convergence.
RoutingMdp make_chain(std::size_t length) {
  RoutingMdp mdp = make_mdp(length, {length - 1});
  for (std::size_t s = 0; s + 1 < length; ++s)
    add_choice(mdp, s, Action::kE, {{static_cast<std::uint32_t>(s + 1), 1.0}});
  return mdp;
}

/// s0 → s1 with certainty; s1 reaches the goal with probability 0.1 and
/// falls back to s0 otherwise. Each pass round the cycle moves only a tenth
/// of the remaining mass into the goal, so whatever the sweep order pmax's
/// residual shrinks by 0.9 per sweep: about 176 sweeps to the default 1e-9
/// tolerance, a controllable sweep count.
RoutingMdp make_slow_cycle() {
  RoutingMdp mdp = make_mdp(3, {2});
  add_choice(mdp, 0, Action::kE, {{1, 1.0}});
  add_choice(mdp, 1, Action::kE, {{2, 0.1}, {0, 0.9}});
  return mdp;
}

TEST(Telemetry, ConvergedSolveReportsCauseWorkAndResiduals) {
  RoutingMdp mdp = make_mdp(2, {1});
  add_choice(mdp, 0, Action::kE, {{1, 0.3}, {0, 0.7}});
  for (const Solution& sol : {compiled_pmax(mdp), compiled_rmin(mdp)}) {
    EXPECT_EQ(sol.termination, SolveTermination::kConverged);
    EXPECT_GT(sol.states_touched, 0u);
    ASSERT_FALSE(sol.sweep_residuals.empty());
    EXPECT_EQ(sol.sweep_residuals.size(),
              std::min<std::size_t>(static_cast<std::size_t>(sol.iterations),
                                    kResidualRingCapacity));
    // The ring's newest entry is the residual that stopped the solve.
    EXPECT_DOUBLE_EQ(sol.sweep_residuals.back(), sol.final_residual);
    EXPECT_LT(sol.final_residual, 1e-9);
  }
}

TEST(Telemetry, SweepLimitStopIsTagged) {
  const CompiledMdp mdp = compile_mdp(make_slow_cycle());
  SolveConfig config;
  config.max_iterations = 2;  // the cycle cannot converge in two sweeps
  const Solution sol = solve_pmax(mdp, config);
  EXPECT_EQ(sol.termination, SolveTermination::kSweepLimit);
  EXPECT_EQ(sol.iterations, 2);
  EXPECT_EQ(sol.sweep_residuals.size(), 2u);
}

TEST(Telemetry, ResidualRingIsBoundedAndChronological) {
  // The slow cycle needs far more sweeps than the 64-entry ring holds: only
  // the newest kResidualRingCapacity residuals survive, oldest first,
  // ending in the converging residual.
  const Solution sol = compiled_pmax(make_slow_cycle());
  EXPECT_EQ(sol.termination, SolveTermination::kConverged);
  EXPECT_GT(sol.iterations, static_cast<int>(kResidualRingCapacity));
  ASSERT_EQ(sol.sweep_residuals.size(), kResidualRingCapacity);
  EXPECT_DOUBLE_EQ(sol.sweep_residuals.back(), sol.final_residual);
  EXPECT_LT(sol.sweep_residuals.back(), 1e-9);
  // Each sweep's residual is 0.9 times the one before it.
  for (std::size_t i = 1; i < kResidualRingCapacity; ++i)
    EXPECT_NEAR(sol.sweep_residuals[i] / sol.sweep_residuals[i - 1], 0.9,
                1e-4)
        << "ring entry " << i;
}

TEST(Telemetry, StatesTouchedCountsPerStateUpdates) {
  // pmax backs up every non-goal state with a choice in every sweep, so on
  // the chain the work metric is exactly sweeps × (length − 1).
  const std::size_t length = 10;
  const Solution sol = compiled_pmax(make_chain(length));
  EXPECT_EQ(sol.states_touched,
            static_cast<std::uint64_t>(sol.iterations) * (length - 1));
}

TEST(Solvers, RejectBadConfig) {
  RoutingMdp mdp = make_mdp(2, {1});
  add_choice(mdp, 0, Action::kE, {{1, 1.0}});
  SolveConfig config;
  config.tolerance = 0.0;
  const CompiledMdp compiled = compile_mdp(mdp);
  EXPECT_THROW(solve_pmax(compiled, config), PreconditionError);
  config = SolveConfig{};
  config.max_iterations = 0;
  EXPECT_THROW(solve_reach_avoid(compiled, config), PreconditionError);
}

}  // namespace
}  // namespace meda::core
