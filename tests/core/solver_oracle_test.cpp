#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/compiled_mdp.hpp"
#include "core/mdp.hpp"
#include "core/value_iteration.hpp"
#include "model/outcomes.hpp"
#include "policy_evaluation.hpp"
#include "util/rng.hpp"
#include "winning_reference.hpp"

/// Oracle tests for the compiled solver, each against a reference that
/// shares no code with it.
///
/// WinningRegion: the production Prob1E (a backward search over the
/// compiled model's predecessor index) against the textbook rescanning
/// fixpoint in winning_reference.hpp, on random models and on real routing
/// jobs, plus two hand-built models: one where the exact set and a
/// 1 − 1e-6 threshold on numeric pmax part ways, and one where they agree.
///
/// SolverOracle: rmin and pmax on real routing models (three 12×12 force
/// fixtures and seeded jobs over random health, each with and without the
/// wear penalty) against exact policy evaluation (policy_evaluation.hpp),
/// a one-step deviation check, and the textbook winning region.

namespace meda::core {
namespace {

RoutingMdp make_mdp(std::size_t droplet_states,
                    const std::vector<std::size_t>& goal_states) {
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

void add_choice(RoutingMdp& mdp, std::size_t state,
                std::vector<Transition> transitions) {
  mdp.choices[state].push_back(Choice{Action::kE, 1.0, std::move(transitions)});
}

/// Random model over @p states droplet states plus the sink. Zero, one or
/// several goals; dead-end states with no choice; pure self-loop choices;
/// choices that leak into the hazard sink; self-loop retries; now and then a
/// zero-probability branch, which is outside the support.
RoutingMdp random_model(Rng& rng, std::size_t states) {
  std::vector<std::size_t> goals;
  const int goal_count = rng.uniform_int(0, 3);
  for (int g = 0; g < goal_count; ++g)
    goals.push_back(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(states) - 1)));
  RoutingMdp mdp = make_mdp(states, goals);
  const int sink = static_cast<int>(states);
  for (std::size_t s = 0; s < states; ++s) {
    if (mdp.is_goal[s] || rng.uniform(0.0, 1.0) < 0.1) continue;  // dead end
    const auto self = static_cast<std::uint32_t>(s);
    const int choices = rng.uniform_int(1, 4);
    for (int c = 0; c < choices; ++c) {
      if (rng.uniform(0.0, 1.0) < 0.1) {
        add_choice(mdp, s, {{self, 1.0}});
        continue;
      }
      std::vector<Transition> branches;
      std::vector<double> weights;
      const int fanout = rng.uniform_int(1, 3);
      for (int b = 0; b < fanout; ++b) {
        // Mostly nearby states, so chains and cycles form.
        const int lo = std::max(0, static_cast<int>(s) - 3);
        const int hi = std::min(sink - 1, static_cast<int>(s) + 3);
        branches.push_back(
            {static_cast<std::uint32_t>(rng.uniform_int(lo, hi)), 0.0});
        weights.push_back(rng.uniform(0.1, 1.0));
      }
      if (rng.uniform(0.0, 1.0) < 0.5) {  // failed-pull retry
        branches.push_back({self, 0.0});
        weights.push_back(rng.uniform(0.1, 1.0));
      }
      if (rng.uniform(0.0, 1.0) < 0.25) {  // leak into the hazard sink
        branches.push_back({static_cast<std::uint32_t>(sink), 0.0});
        weights.push_back(rng.uniform(0.01, 0.3));
      }
      double total = 0.0;
      for (double w : weights) total += w;
      for (std::size_t b = 0; b < branches.size(); ++b)
        branches[b].probability = weights[b] / total;
      if (rng.uniform(0.0, 1.0) < 0.05)
        branches.push_back(
            {static_cast<std::uint32_t>(rng.uniform_int(0, sink)), 0.0});
      add_choice(mdp, s, std::move(branches));
    }
  }
  return mdp;
}

TEST(WinningRegion, FuzzedModelsMatchTheReference) {
  Rng rng(0x9f1e0001u);
  int winning_models = 0;
  int losing_models = 0;
  for (int i = 0; i < 400; ++i) {
    const RoutingMdp mdp = random_model(
        rng, static_cast<std::size_t>(rng.uniform_int(1, 40)));
    const std::vector<std::uint8_t> expected =
        reference::almost_sure_winning(mdp);
    const std::vector<std::uint8_t> got =
        almost_sure_winning(compile_mdp(mdp));
    ASSERT_EQ(got, expected) << "model " << i;
    bool any_winning = false;
    bool any_losing = false;
    for (std::size_t s = 0; s < mdp.droplets.size(); ++s) {
      if (mdp.is_goal[s]) continue;
      any_winning = any_winning || expected[s] != 0;
      any_losing = any_losing || expected[s] == 0;
    }
    winning_models += any_winning ? 1 : 0;
    losing_models += any_losing ? 1 : 0;
  }
  // The fuzz must exercise both outcomes at non-goal states.
  EXPECT_GE(winning_models, 100);
  EXPECT_GE(losing_models, 100);
}

/// Seeded routing job @p i on a 20×12 chip whose cells are dead with
/// probability 0.08 and otherwise at a force drawn from [0.3, 1]. Every
/// other job gets a tight hazard box, so leaks decide the winning region,
/// and every third job may morph.
RoutingMdp dead_cell_job(Rng& rng, int i, double wear_penalty_lambda = 0.0) {
  const Rect chip{0, 0, 19, 11};
  DoubleMatrix force = full_health_force(20, 12);
  for (int y = 0; y < 12; ++y)
    for (int x = 0; x < 20; ++x) {
      const double u = rng.uniform(0.0, 1.0);
      force(x, y) = u < 0.08 ? 0.0 : rng.uniform(0.3, 1.0);
    }
  assay::RoutingJob rj;
  rj.start =
      Rect::from_size(rng.uniform_int(0, 3), rng.uniform_int(0, 8), 3, 3);
  rj.goal =
      Rect::from_size(rng.uniform_int(12, 16), rng.uniform_int(0, 8), 3, 3);
  rj.hazard = i % 2 == 0 ? chip : Rect{0, 0, 19, 10};
  ActionRules rules;
  rules.enable_morphing = i % 3 == 0;
  return build_routing_mdp(rj, force, chip, rules, wear_penalty_lambda);
}

TEST(WinningRegion, RoutingJobsWithDeadCellsMatchTheReference) {
  Rng rng(0x9f1e0002u);
  for (int i = 0; i < 12; ++i) {
    const RoutingMdp mdp = dead_cell_job(rng, i);
    EXPECT_EQ(almost_sure_winning(compile_mdp(mdp)),
              reference::almost_sure_winning(mdp))
        << "job " << i;
  }
}

TEST(WinningRegion, TinyLeakIntoTheSinkIsLosing) {
  // s0 reaches the goal with probability 1 − 2e-7 and leaks the rest into
  // the hazard sink. No strategy wins almost surely, so the exact region
  // excludes s0, where a threshold on numeric pmax (≥ 1 − 1e-6) counts it
  // as winning.
  RoutingMdp mdp = make_mdp(2, {1});
  add_choice(mdp, 0, {{1, 0.5 - 1e-7}, {0, 0.5}, {2, 1e-7}});
  const CompiledMdp compiled = compile_mdp(mdp);
  const std::vector<std::uint8_t> winning = almost_sure_winning(compiled);
  EXPECT_EQ(winning, (std::vector<std::uint8_t>{0, 1, 0}));
  EXPECT_EQ(winning, reference::almost_sure_winning(mdp));
  EXPECT_GE(solve_pmax(compiled).values[0], 1.0 - 1e-6);

  // The combined solve gives Rmin = ∞ and falls back to numeric pmax.
  const ReachAvoidSolution sol = solve_reach_avoid(compiled);
  EXPECT_TRUE(std::isinf(sol.rmin.values[0]));
  ASSERT_EQ(sol.pmax.values.size(), compiled.state_count());
  EXPECT_LT(sol.pmax.values[0], 1.0);
}

TEST(WinningRegion, NoLeakCycleIsWinning) {
  // s0 ⇄ s1 with retries and no leak; s1 exits to the goal. Every state
  // wins almost surely, however long the cycle runs; s3 cycles with s2
  // forever and never reaches the goal, so both are losing.
  RoutingMdp mdp = make_mdp(5, {4});
  add_choice(mdp, 0, {{1, 0.5}, {0, 0.5}});
  add_choice(mdp, 1, {{0, 0.6}, {4, 0.1}, {1, 0.3}});
  add_choice(mdp, 2, {{3, 1.0}});
  add_choice(mdp, 3, {{2, 0.5}, {3, 0.5}});
  const CompiledMdp compiled = compile_mdp(mdp);
  const std::vector<std::uint8_t> winning = almost_sure_winning(compiled);
  EXPECT_EQ(winning, (std::vector<std::uint8_t>{1, 1, 0, 0, 1, 0}));
  EXPECT_EQ(winning, reference::almost_sure_winning(mdp));

  // The pmax threshold agrees here. Numeric pmax stops on a small residual,
  // not a small error: on the cycle it halts about 6e-9 short of 1.
  const Solution pmax = solve_pmax(compiled);
  EXPECT_GE(pmax.values[0], 1.0 - 1e-6);
  EXPECT_GE(pmax.values[1], 1.0 - 1e-6);
  EXPECT_EQ(pmax.values[2], 0.0);
  EXPECT_EQ(pmax.values[3], 0.0);
}

// SolverOracle ---------------------------------------------------------------

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

RoutingMdp fixture_mdp(const DoubleMatrix& force, double wear_penalty_lambda) {
  assay::RoutingJob rj;
  rj.start = Rect::from_size(0, 4, 4, 4);
  rj.goal = Rect::from_size(8, 4, 4, 4);
  rj.hazard = Rect{0, 0, kGrid - 1, kGrid - 1};
  return build_routing_mdp(rj, force, Rect{0, 0, kGrid - 1, kGrid - 1},
                           ActionRules{}, wear_penalty_lambda);
}

/// The wear penalties every model runs at: the paper's one cost per cycle,
/// and a penalty that makes worn cells cost several cycles each.
constexpr double kLambdas[] = {0.0, 25.0};

/// Solves @p mdp for both queries and checks the solution against the
/// oracles. rmin must be finite only inside the winning region, and with
/// @p exact_region on all of it.
void expect_matches_oracles(const RoutingMdp& mdp, bool exact_region,
                            const std::string& label) {
  const ReachAvoidSolution sol =
      solve_reach_avoid(compile_mdp(mdp), {}, /*need_pmax=*/true);
  const std::vector<double>& rmin = sol.rmin.values;
  ASSERT_EQ(sol.rmin.termination, SolveTermination::kConverged) << label;
  ASSERT_TRUE(std::isfinite(rmin[mdp.start])) << label;

  // rmin is the exact cost of its own policy, each step charged its cost.
  const std::vector<double> exact =
      reference::exact_policy_cost(mdp, sol.rmin.chosen, rmin);
  for (std::size_t s = 0; s < mdp.droplets.size(); ++s) {
    if (std::isfinite(rmin[s])) {
      EXPECT_NEAR(rmin[s], exact[s], 1e-6) << label << " state " << s;
    }
  }

  // No admissible one-step deviation does better.
  const reference::Deviation d = reference::best_deviation(mdp, rmin);
  EXPECT_LE(d.gain, 1e-6) << label << " state " << d.state;

  // A finite rmin means almost-sure winning, and a winning state reaches
  // the goal with probability 1.
  const std::vector<std::uint8_t> winning =
      reference::almost_sure_winning(mdp);
  for (std::size_t s = 0; s < mdp.droplets.size(); ++s) {
    if (std::isfinite(rmin[s])) {
      EXPECT_TRUE(winning[s]) << label << " state " << s;
    } else if (exact_region) {
      EXPECT_FALSE(winning[s]) << label << " state " << s;
    }
    if (winning[s]) {
      EXPECT_GE(sol.pmax.values[s], 1.0 - 1e-7) << label << " state " << s;
    }
  }
}

void expect_fixture_matches_oracles(const DoubleMatrix& force,
                                    const char* label) {
  for (const double lambda : kLambdas)
    expect_matches_oracles(fixture_mdp(force, lambda), /*exact_region=*/true,
                           std::string(label) + " at lambda " +
                               std::to_string(static_cast<int>(lambda)));
}

TEST(SolverOracle, UniformForce) {
  expect_fixture_matches_oracles(uniform_force(), "uniform");
}

TEST(SolverOracle, DegradedForce) {
  expect_fixture_matches_oracles(degraded_force(), "degraded");
}

TEST(SolverOracle, ClusteredFaultForce) {
  expect_fixture_matches_oracles(clustered_fault_force(), "clustered");
}

TEST(SolverOracle, RoutingJobsWithDeadCells) {
  for (const double lambda : kLambdas) {
    Rng rng(0x9f1e0002u);  // the jobs of the WinningRegion test above
    for (int i = 0; i < 12; ++i)
      expect_matches_oracles(dead_cell_job(rng, i, lambda),
                             /*exact_region=*/false,
                             "job " + std::to_string(i) + " at lambda " +
                                 std::to_string(static_cast<int>(lambda)));
  }
}

}  // namespace
}  // namespace meda::core
