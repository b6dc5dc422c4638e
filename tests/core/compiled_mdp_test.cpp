#include "core/compiled_mdp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/value_iteration.hpp"

/// Structure tests for the CSR flattening, and the solvers' choice indices
/// and tie-break on hand-built models. The solvers' values are checked
/// against exact policy evaluation in solver_oracle_test.cpp.

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
  // Two choices on s0: the compiled Solution reports the index of the safe
  // retry in the RoutingMdp's own choice list.
  RoutingMdp mdp = make_mdp(2, {1});
  add_choice(mdp, 0, Action::kE, {{1, 0.9}, {2, 0.1}});  // risky
  add_choice(mdp, 0, Action::kN, {{1, 0.2}, {0, 0.8}});  // safe retry
  EXPECT_EQ(solve_pmax(compile_mdp(mdp)).chosen[0], 1);
}

TEST(SolverEquivalence, TieBreakPicksTheLowestActionIndex) {
  // Two byte-identical choices: an exact tie. pmax and rmin must both
  // settle on choice 0 (the lowest action index), pinning the shared rule.
  RoutingMdp mdp = make_mdp(2, {1});
  add_choice(mdp, 0, Action::kE, {{1, 0.5}, {0, 0.5}});
  add_choice(mdp, 0, Action::kN, {{1, 0.5}, {0, 0.5}});
  const CompiledMdp compiled = compile_mdp(mdp);
  EXPECT_EQ(solve_pmax(compiled).chosen[0], 0);
  EXPECT_EQ(solve_reach_avoid(compiled).rmin.chosen[0], 0);
}

}  // namespace
}  // namespace meda::core
