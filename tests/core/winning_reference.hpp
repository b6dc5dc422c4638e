#pragma once

#include <cstdint>
#include <vector>

#include "core/mdp.hpp"

/// @file winning_reference.hpp
/// Reference almost-sure winning region for the oracle tests: PRISM's
/// Prob1E as the textbook nested fixpoint
///
///   νU. μR. goal ∪ {s ∈ U | ∃c: post(c) ⊆ U ∧ post(c) ∩ R ≠ ∅}
///
/// on the explicit RoutingMdp, each fixpoint computed by rescanning every
/// state until nothing changes. It uses no predecessor index and no CSR
/// arrays, so it shares no code with core::almost_sure_winning.

namespace meda::core::reference {

/// True when @p choice makes no progress from @p s. The model defines a
/// choice whose stay mass is within 1e-12 of 1 as a pure self-loop: the
/// compiled form folds it to a zero self-loop scale and neither solver can
/// leave s through it.
inline bool pure_self_loop(const Choice& choice, std::uint32_t s) {
  double q = 0.0;
  for (const Transition& t : choice.transitions)
    if (t.target == s) q += t.probability;
  return q >= 1.0 - 1e-12;
}

/// Per state (the hazard sink last): 1 when some strategy reaches a goal
/// state with probability 1 without entering the sink.
inline std::vector<std::uint8_t> almost_sure_winning(const RoutingMdp& mdp) {
  const std::size_t n = mdp.droplets.size();
  std::vector<bool> u(n + 1, true);  // every state, the sink included
  for (;;) {
    std::vector<bool> r(n + 1, false);
    for (std::size_t s = 0; s < n; ++s) r[s] = mdp.is_goal[s];
    for (bool grew = true; grew;) {
      grew = false;
      for (std::size_t s = 0; s < n; ++s) {
        if (r[s] || !u[s]) continue;
        const auto self = static_cast<std::uint32_t>(s);
        for (const Choice& choice : mdp.choices[s]) {
          if (pure_self_loop(choice, self)) continue;
          bool inside = true;  // post(c) ⊆ U
          bool hits_r = false;  // post(c) ∩ R ≠ ∅
          for (const Transition& t : choice.transitions) {
            if (t.probability <= 0.0) continue;  // outside the support
            inside = inside && u[t.target];
            hits_r = hits_r || r[t.target];
          }
          if (inside && hits_r) {
            r[s] = true;
            grew = true;
            break;
          }
        }
      }
    }
    if (r == u) break;
    u = r;
  }
  return std::vector<std::uint8_t>(u.begin(), u.end());
}

}  // namespace meda::core::reference
