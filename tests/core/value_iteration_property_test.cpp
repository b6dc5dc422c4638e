// Property tests cross-validating the value-iteration engine on random
// routing-shaped MDPs:
//  - the extracted optimal policy's exact value (dense linear solve of the
//    induced Markov chain) equals the VI fixed point;
//  - no single-choice deviation improves on the reported values (Bellman
//    optimality);
//  - Pmax values are consistent with Rmin feasibility.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/compiled_mdp.hpp"
#include "core/value_iteration.hpp"
#include "policy_evaluation.hpp"
#include "util/rng.hpp"

namespace meda::core {
namespace {

/// Random MDP with one goal state and a hazard sink; choices have 2-3
/// successors including (sometimes) a self-loop and (rarely) the sink.
RoutingMdp random_mdp(Rng& rng, std::size_t states) {
  RoutingMdp mdp;
  mdp.droplets.resize(states);
  for (std::size_t i = 0; i < states; ++i)
    mdp.droplets[i] = Rect::from_size(static_cast<int>(i), 0, 1, 1);
  mdp.choices.resize(states);
  mdp.is_goal.assign(states, false);
  mdp.is_goal[states - 1] = true;
  mdp.start = 0;
  const auto sink = static_cast<std::uint32_t>(states);

  for (std::size_t s = 0; s + 1 < states; ++s) {
    const int num_choices = rng.uniform_int(1, 3);
    for (int c = 0; c < num_choices; ++c) {
      Choice choice;
      choice.action = static_cast<Action>(rng.uniform_int(0, 19));
      // Forward-biased successors keep the goal reachable.
      std::vector<std::uint32_t> targets;
      targets.push_back(static_cast<std::uint32_t>(
          rng.uniform_int(static_cast<int>(s) + 1,
                          static_cast<int>(states) - 1)));
      if (rng.bernoulli(0.6))
        targets.push_back(static_cast<std::uint32_t>(s));  // self-loop
      if (rng.bernoulli(0.3))
        targets.push_back(static_cast<std::uint32_t>(
            rng.uniform_int(0, static_cast<int>(states) - 1)));
      if (rng.bernoulli(0.15)) targets.push_back(sink);
      std::vector<double> weights(targets.size());
      double total = 0.0;
      for (double& w : weights) {
        w = rng.uniform(0.1, 1.0);
        total += w;
      }
      for (std::size_t i = 0; i < targets.size(); ++i)
        choice.transitions.push_back(
            Transition{targets[i], weights[i] / total});
      mdp.choices[s].push_back(std::move(choice));
    }
  }
  return mdp;
}

Solution compiled_rmin(const RoutingMdp& mdp) {
  return solve_reach_avoid(compile_mdp(mdp)).rmin;
}

class RandomMdpTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomMdpTest, RminMatchesExactPolicyEvaluation) {
  Rng rng(1234 + static_cast<std::uint64_t>(GetParam()));
  const RoutingMdp mdp = random_mdp(rng, 12 + GetParam() % 9);
  const Solution sol = compiled_rmin(mdp);
  ASSERT_EQ(sol.termination, SolveTermination::kConverged);
  // Exact policy evaluation over the states with a finite value, whose
  // chosen choices never leave that set (rmin's choice admissibility).
  bool any_finite = false;
  for (std::size_t s = 0; s < mdp.droplets.size(); ++s)
    any_finite |= std::isfinite(sol.values[s]) && !mdp.is_goal[s];
  if (!any_finite) return;  // degenerate instance
  const std::vector<double> exact =
      reference::exact_policy_cost(mdp, sol.chosen, sol.values);
  for (std::size_t s = 0; s < mdp.droplets.size(); ++s) {
    if (!std::isfinite(sol.values[s])) continue;
    EXPECT_NEAR(sol.values[s], exact[s], 1e-5) << "state " << s;
  }
}

TEST_P(RandomMdpTest, RminSatisfiesBellmanOptimality) {
  Rng rng(777 + static_cast<std::uint64_t>(GetParam()));
  const RoutingMdp mdp = random_mdp(rng, 10 + GetParam() % 7);
  const Solution sol = compiled_rmin(mdp);
  // The reported value must be <= the one-step lookahead of EVERY
  // admissible choice.
  const reference::Deviation d = reference::best_deviation(mdp, sol.values);
  EXPECT_LE(d.gain, 1e-6) << "state " << d.state;
}

TEST_P(RandomMdpTest, PmaxBoundsAndConsistencyWithRmin) {
  Rng rng(4242 + static_cast<std::uint64_t>(GetParam()));
  const RoutingMdp mdp = random_mdp(rng, 14);
  const Solution pmax = solve_pmax(compile_mdp(mdp));
  const Solution rmin = compiled_rmin(mdp);
  for (std::size_t s = 0; s < mdp.droplets.size(); ++s) {
    EXPECT_GE(pmax.values[s], -1e-12);
    EXPECT_LE(pmax.values[s], 1.0 + 1e-12);
    // Finite expected cycles ⟹ the goal is almost-surely reachable.
    if (std::isfinite(rmin.values[s]) && !mdp.is_goal[s]) {
      EXPECT_NEAR(pmax.values[s], 1.0, 1e-6) << "state " << s;
    }
    // Pmax < 1 ⟹ Rmin must be ∞ (PRISM reward semantics).
    if (pmax.values[s] < 1.0 - 1e-6) {
      EXPECT_TRUE(std::isinf(rmin.values[s])) << "state " << s;
    }
  }
}

TEST_P(RandomMdpTest, PmaxMatchesExactPolicyEvaluation) {
  Rng rng(31415 + static_cast<std::uint64_t>(GetParam()));
  const RoutingMdp mdp = random_mdp(rng, 12);
  const Solution sol = solve_pmax(compile_mdp(mdp));
  // Exact reach probability of the chosen policy: V = P_π V with V(goal)=1.
  const std::size_t n = mdp.droplets.size();
  std::vector<std::vector<double>> a(n, std::vector<double>(n, 0.0));
  std::vector<double> b(n, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    a[s][s] = 1.0;
    if (mdp.is_goal[s]) {
      b[s] = 1.0;
      continue;
    }
    if (sol.chosen[s] < 0) continue;  // V = 0 (no choice)
    const Choice& choice =
        mdp.choices[s][static_cast<std::size_t>(sol.chosen[s])];
    for (const Transition& t : choice.transitions)
      if (t.target < n) a[s][t.target] -= t.probability;
  }
  const std::vector<double> exact =
      reference::solve_linear(std::move(a), std::move(b));
  for (std::size_t s = 0; s < n; ++s)
    EXPECT_NEAR(sol.values[s], exact[s], 1e-5) << "state " << s;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMdpTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace meda::core
