#include "core/compiled_mdp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/value_iteration.hpp"
#include "model/outcomes.hpp"

/// Structure tests for the CSR flattening plus the golden-equivalence suite:
/// on real routing MDPs built from uniform / degraded / clustered-fault
/// force fixtures, the compiled solvers must reproduce the legacy solvers'
/// values (within tolerance) and their exact policies.

namespace meda::core {
namespace {

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

TEST(CompileMdp, FactorsOutSelfLoops) {
  // s0: {goal 0.3, stay 0.7} → one off-state branch, scale 1/(1−0.7).
  RoutingMdp mdp = make_mdp(2, {1});
  add_choice(mdp, 0, Action::kE, {{1, 0.3}, {0, 0.7}});
  const CompiledMdp c = compile_mdp(mdp);
  ASSERT_EQ(c.num_droplet_states, 2u);
  ASSERT_EQ(c.choice_count(), 1u);
  EXPECT_EQ(c.choice_offset[0], 0u);
  EXPECT_EQ(c.choice_offset[1], 1u);
  EXPECT_EQ(c.choice_offset[2], 1u);  // goal state has no choices
  ASSERT_EQ(c.trans_offset[1] - c.trans_offset[0], 1u);
  EXPECT_EQ(c.target[0], 1u);
  EXPECT_DOUBLE_EQ(c.probability[0], 0.3);
  EXPECT_NEAR(c.inv_one_minus_q[0], 1.0 / 0.3, 1e-12);
  EXPECT_DOUBLE_EQ(c.cost[0], 1.0);
}

TEST(CompileMdp, PureSelfLoopGetsZeroScale) {
  RoutingMdp mdp = make_mdp(2, {1});
  add_choice(mdp, 0, Action::kE, {{0, 1.0}});
  const CompiledMdp c = compile_mdp(mdp);
  ASSERT_EQ(c.choice_count(), 1u);
  EXPECT_DOUBLE_EQ(c.inv_one_minus_q[0], 0.0);
  EXPECT_EQ(c.trans_offset[1], c.trans_offset[0]);  // no off-state branch
}

TEST(CompileMdp, SweepOrderAnchorsAtTheGoal) {
  // Chain 0 → 1 → 2(goal); state 3 cannot reach the goal.
  RoutingMdp mdp = make_mdp(4, {2});
  add_choice(mdp, 0, Action::kE, {{1, 1.0}});
  add_choice(mdp, 1, Action::kE, {{2, 1.0}});
  add_choice(mdp, 3, Action::kE, {{3, 1.0}});
  const CompiledMdp c = compile_mdp(mdp);
  ASSERT_EQ(c.sweep_order.size(), 4u);
  // A permutation of the droplet states…
  std::vector<std::uint32_t> sorted = c.sweep_order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::uint32_t>{0, 1, 2, 3}));
  // …with reverse-BFS layering: goal first, then its predecessors outward,
  // unanchored states last.
  EXPECT_EQ(c.sweep_order[0], 2u);
  EXPECT_EQ(c.sweep_order[1], 1u);
  EXPECT_EQ(c.sweep_order[2], 0u);
  EXPECT_EQ(c.sweep_order[3], 3u);
  EXPECT_EQ(c.goal_reachable, 3u);
}

TEST(CompileMdp, LocalChoiceIndicesMatchTheRoutingMdp) {
  // Two choices on s0: the compiled Solution must report the same local
  // index the legacy solver does, whichever representation solved it.
  RoutingMdp mdp = make_mdp(2, {1});
  add_choice(mdp, 0, Action::kE, {{1, 0.9}, {2, 0.1}});  // risky
  add_choice(mdp, 0, Action::kN, {{1, 0.2}, {0, 0.8}});  // safe retry
  const Solution fast = solve_pmax(compile_mdp(mdp));
  const Solution legacy = solve_pmax_legacy(mdp);
  EXPECT_EQ(fast.chosen[0], 1);
  EXPECT_EQ(fast.chosen, legacy.chosen);
}

// Golden equivalence on real routing MDPs ---------------------------------

constexpr int kGrid = 12;  // 12×12 chip fixture

DoubleMatrix uniform_force() { return full_health_force(kGrid, kGrid); }

/// A worn vertical band through the middle of the route.
DoubleMatrix degraded_force() {
  DoubleMatrix force = full_health_force(kGrid, kGrid);
  for (int y = 0; y < kGrid; ++y)
    for (int x = 4; x <= 6; ++x) force(x, y) = 0.45;
  return force;
}

/// Dead 2×2 clusters acting as roadblocks.
DoubleMatrix clustered_fault_force() {
  DoubleMatrix force = full_health_force(kGrid, kGrid);
  for (const auto& [cx, cy] :
       {std::pair{3, 3}, std::pair{6, 7}, std::pair{8, 2}}) {
    for (int dy = 0; dy < 2; ++dy)
      for (int dx = 0; dx < 2; ++dx) force(cx + dx, cy + dy) = 0.0;
  }
  return force;
}

RoutingMdp fixture_mdp(const DoubleMatrix& force) {
  assay::RoutingJob rj;
  rj.start = Rect::from_size(0, 4, 4, 4);
  rj.goal = Rect::from_size(8, 4, 4, 4);
  rj.hazard = Rect{0, 0, kGrid - 1, kGrid - 1};
  return build_routing_mdp(rj, force, Rect{0, 0, kGrid - 1, kGrid - 1},
                           ActionRules{});
}

void expect_equivalent(const RoutingMdp& mdp, const char* label) {
  const Solution legacy_pmax = solve_pmax_legacy(mdp);
  const Solution legacy_rmin = solve_rmin_legacy(mdp);
  const CompiledMdp compiled = compile_mdp(mdp);
  const Solution fast_pmax = solve_pmax(compiled);
  const ReachAvoidSolution fast = solve_reach_avoid(compiled);
  ASSERT_EQ(fast_pmax.values.size(), legacy_pmax.values.size()) << label;
  ASSERT_EQ(fast.winning.size(), legacy_pmax.values.size()) << label;
  for (std::size_t s = 0; s < legacy_pmax.values.size(); ++s) {
    EXPECT_NEAR(fast_pmax.values[s], legacy_pmax.values[s], 1e-7)
        << label << " pmax state " << s;
    // The exact winning region is the set the legacy rmin thresholds its
    // numeric pmax into.
    EXPECT_EQ(fast.winning[s] != 0, legacy_pmax.values[s] >= 1.0 - 1e-6)
        << label << " winning state " << s;
    if (std::isinf(legacy_rmin.values[s])) {
      EXPECT_TRUE(std::isinf(fast.rmin.values[s]))
          << label << " rmin state " << s;
    } else {
      EXPECT_NEAR(fast.rmin.values[s], legacy_rmin.values[s], 1e-6)
          << label << " rmin state " << s;
    }
  }
  // The shared tie-break rule (lowest action index within kTieEps) makes
  // the two paths' policies identical, not just equal in value.
  EXPECT_EQ(fast_pmax.chosen, legacy_pmax.chosen) << label;
  EXPECT_EQ(fast.rmin.chosen, legacy_rmin.chosen) << label;
}

TEST(SolverEquivalence, UniformForce) {
  expect_equivalent(fixture_mdp(uniform_force()), "uniform");
}

TEST(SolverEquivalence, DegradedForce) {
  expect_equivalent(fixture_mdp(degraded_force()), "degraded");
}

TEST(SolverEquivalence, ClusteredFaultForce) {
  expect_equivalent(fixture_mdp(clustered_fault_force()), "clustered");
}

TEST(SolverEquivalence, TieBreakPicksTheLowestActionIndex) {
  // Two byte-identical choices: an exact tie. Both solver paths must settle
  // on choice 0 (the lowest action index), pinning the shared rule.
  RoutingMdp mdp = make_mdp(2, {1});
  add_choice(mdp, 0, Action::kE, {{1, 0.5}, {0, 0.5}});
  add_choice(mdp, 0, Action::kN, {{1, 0.5}, {0, 0.5}});
  EXPECT_EQ(solve_pmax_legacy(mdp).chosen[0], 0);
  EXPECT_EQ(solve_rmin_legacy(mdp).chosen[0], 0);
  const CompiledMdp compiled = compile_mdp(mdp);
  EXPECT_EQ(solve_pmax(compiled).chosen[0], 0);
  EXPECT_EQ(solve_reach_avoid(compiled).rmin.chosen[0], 0);
}

}  // namespace
}  // namespace meda::core
