#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "core/mdp.hpp"

/// @file policy_evaluation.hpp
/// Exact policy evaluation for the solver oracle tests. A fixed policy on an
/// explicit RoutingMdp induces a Markov chain whose values solve a linear
/// system, solved here by dense Gaussian elimination. It reads the explicit
/// choices with their self-loop branches in place and never iterates, so it
/// shares no code with the compiled solvers, which factor the self-loops out
/// and sweep to a fixpoint.

namespace meda::core::reference {

/// Dense Gaussian elimination with partial pivoting: solves A·x = b.
inline std::vector<double> solve_linear(std::vector<std::vector<double>> a,
                                        std::vector<double> b) {
  const std::size_t n = b.size();
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < n; ++row)
      if (std::abs(a[row][col]) > std::abs(a[pivot][col])) pivot = row;
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    EXPECT_GT(std::abs(a[col][col]), 1e-12) << "singular system";
    for (std::size_t row = col + 1; row < n; ++row) {
      const double f = a[row][col] / a[col][col];
      for (std::size_t k = col; k < n; ++k) a[row][k] -= f * a[col][k];
      b[row] -= f * b[col];
    }
  }
  std::vector<double> x(n, 0.0);
  for (std::size_t row = n; row-- > 0;) {
    double acc = b[row];
    for (std::size_t k = row + 1; k < n; ++k) acc -= a[row][k] * x[k];
    x[row] = acc / a[row][row];
  }
  return x;
}

/// Exact expected cost to reach a goal state under the policy @p chosen (a
/// choice index per droplet state), charging each step the cost of the
/// choice taken. The system spans the states where @p values is finite, goal
/// states at 0. A finite non-goal state needs a chosen choice whose branches
/// all stay in that set; anything else fails the calling test. Returns +∞ at
/// every state outside the set.
inline std::vector<double> exact_policy_cost(
    const RoutingMdp& mdp, const std::vector<int>& chosen,
    const std::vector<double>& values) {
  const std::size_t n = mdp.droplets.size();
  constexpr std::size_t kOutside = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> row(mdp.state_count(), kOutside);
  std::size_t rows = 0;
  for (std::size_t s = 0; s < n; ++s)
    if (std::isfinite(values[s])) row[s] = rows++;

  std::vector<std::vector<double>> a(rows, std::vector<double>(rows, 0.0));
  std::vector<double> b(rows, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t r = row[s];
    if (r == kOutside) continue;
    a[r][r] = 1.0;
    if (mdp.is_goal[s]) continue;
    if (chosen[s] < 0) {
      ADD_FAILURE() << "finite state " << s << " has no chosen choice";
      continue;
    }
    const Choice& choice = mdp.choices[s][static_cast<std::size_t>(chosen[s])];
    b[r] = choice.cost;
    for (const Transition& t : choice.transitions) {
      if (t.probability <= 0.0) continue;
      if (row[t.target] == kOutside) {
        ADD_FAILURE() << "state " << s << " chooses a branch to state "
                      << t.target << ", whose value is not finite";
        continue;
      }
      a[r][row[t.target]] -= t.probability;
    }
  }
  const std::vector<double> x = solve_linear(std::move(a), std::move(b));
  std::vector<double> cost(mdp.state_count(),
                           std::numeric_limits<double>::infinity());
  for (std::size_t s = 0; s < n; ++s)
    if (row[s] != kOutside) cost[s] = x[row[s]];
  return cost;
}

/// The one-step deviation that most improves on a cost-to-goal vector.
struct Deviation {
  double gain = -std::numeric_limits<double>::infinity();
  std::size_t state = 0;
};

/// Bellman optimality check for rmin: over every non-goal state with a
/// finite value and every admissible choice there, the largest amount by
/// which committing to that choice once beats @p values. A choice is
/// admissible when each of its branches stays put or lands on a finite
/// state, and it can leave the state; its one-step value is
/// (cost + Σ p·V(t)) / (1 − q) over the branches t ≠ s, with q the stay
/// probability. At an optimum no deviation gains more than the tolerance.
inline Deviation best_deviation(const RoutingMdp& mdp,
                                const std::vector<double>& values) {
  Deviation best;
  for (std::size_t s = 0; s < mdp.droplets.size(); ++s) {
    if (mdp.is_goal[s] || !std::isfinite(values[s])) continue;
    for (const Choice& choice : mdp.choices[s]) {
      double rest = 0.0;
      double stay = 0.0;
      bool admissible = true;
      for (const Transition& t : choice.transitions) {
        if (t.probability <= 0.0) continue;
        if (t.target == s) {
          stay += t.probability;
        } else if (std::isfinite(values[t.target])) {
          rest += t.probability * values[t.target];
        } else {
          admissible = false;
          break;
        }
      }
      if (!admissible || stay >= 1.0 - 1e-12) continue;
      const double gain = values[s] - (choice.cost + rest) / (1.0 - stay);
      if (gain > best.gain) best = {gain, s};
    }
  }
  return best;
}

}  // namespace meda::core::reference
