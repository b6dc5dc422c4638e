#pragma once

#include <vector>

#include "chip/degradation.hpp"
#include "geometry/rect.hpp"
#include "model/action.hpp"
#include "model/guards.hpp"
#include "model/outcomes.hpp"
#include "util/matrix.hpp"

/// @file smg.hpp
/// The MEDA biochip stochastic multiplayer game G = (S, A₁ ∪ A₂, γ, s₀) of
/// Section V-C.
///
/// A game state is s = (δ, H, λ): the droplet, the health matrix, and whose
/// turn it is. Player ① (the droplet controller) picks microfluidic actions;
/// player ② (biochip degradation) non-deterministically decrements health
/// cells. Because H is visible to the controller, the game has full
/// information and — since H changes negligibly within one routing job — is
/// reduced to an MDP by freezing H (the induced MDP is built by
/// core::build_compiled_mdp). The simulator plays the *incomplete-information*
/// variant of the same game: player ② is the true degradation process, which
/// the controller can only observe through the quantized H.

namespace meda::smg {

/// Whose turn it is.
enum class Player : unsigned char { kController, kDegradation };

/// A full game state.
struct State {
  Rect droplet;      ///< δ
  IntMatrix health;  ///< H (b-bit codes per MC)
  Player turn = Player::kController;
};

/// A degradation-player move: the set of MCs whose health decrements by one
/// this turn (②'s action set is the power set of per-cell decrements; a move
/// is one element of it).
struct DegradationMove {
  std::vector<Vec2i> cells;
};

/// One probabilistic branch of the transition function γ.
struct Branch {
  State state;
  double probability;
};

/// The MEDA SMG with a fixed arena and rules.
class Game {
 public:
  /// @param chip_bounds the MC array extent
  /// @param rules guard/enabling configuration for A₁
  /// @param health_bits b, the health-code resolution
  /// @param estimator how ① converts health codes into force estimates
  Game(Rect chip_bounds, ActionRules rules, int health_bits,
       HealthEstimator estimator);

  const Rect& chip_bounds() const { return chip_bounds_; }
  const ActionRules& rules() const { return rules_; }
  int health_bits() const { return health_bits_; }

  /// Controller actions enabled in @p s (requires s.turn == kController).
  std::vector<Action> enabled_actions(const State& s) const;

  /// Transition distribution for a controller action: probabilistic droplet
  /// outcomes, after which the turn passes to the degradation player.
  /// Requires the action to be enabled in @p s.
  std::vector<Branch> controller_transition(const State& s, Action a) const;

  /// Transition for a degradation move: deterministic health decrements
  /// (clamped at 0), after which the turn passes back to the controller.
  /// Requires s.turn == kDegradation.
  State degradation_transition(const State& s, const DegradationMove& m) const;

 private:
  Rect chip_bounds_;
  ActionRules rules_;
  int health_bits_;
  HealthEstimator estimator_;
};

}  // namespace meda::smg
