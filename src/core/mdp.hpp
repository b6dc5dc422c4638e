#pragma once

#include <cstdint>
#include <vector>

#include "assay/helper.hpp"
#include "geometry/rect.hpp"
#include "model/action.hpp"
#include "model/guards.hpp"
#include "util/matrix.hpp"

/// @file mdp.hpp
/// The routing-job MDP induced from the MEDA SMG by freezing the health
/// matrix (Section VI-C, partial-order reduction): states are droplet
/// rectangles within the routing job's hazard bounds plus one absorbing
/// hazard sink; choices are the enabled microfluidic actions with their
/// probabilistic outcomes.

namespace meda::core {

/// One probabilistic branch of a choice.
struct Transition {
  std::uint32_t target = 0;   ///< state index (see RoutingMdp indexing)
  double probability = 0.0;
};

/// One enabled action in a state and its outcome distribution.
struct Choice {
  Action action = Action::kN;
  /// Reward charged when the action is taken. 1.0 under the paper's r_k
  /// (one cycle per action); the wear-aware extension adds a penalty
  /// proportional to the wear of the actuated cells.
  double cost = 1.0;
  std::vector<Transition> transitions;
};

/// PRISM-style model statistics (Table V columns).
struct ModelStats {
  std::size_t states = 0;       ///< droplet states + 1 hazard sink
  std::size_t transitions = 0;  ///< total probabilistic branches
  std::size_t choices = 0;      ///< total state-action pairs
};

/// Explicit-state MDP for one routing job.
///
/// Indexing: states 0..droplets.size()-1 are droplet rectangles; index
/// droplets.size() is the absorbing hazard sink. Goal states (droplet inside
/// δ_g) are absorbing: they carry no choices.
struct RoutingMdp {
  std::vector<Rect> droplets;             ///< droplet state rectangles
  std::vector<std::vector<Choice>> choices;  ///< per droplet state
  std::vector<bool> is_goal;              ///< per droplet state
  std::uint32_t start = 0;                ///< index of δ_s

  std::uint32_t hazard_sink() const {
    return static_cast<std::uint32_t>(droplets.size());
  }
  std::size_t state_count() const { return droplets.size() + 1; }

  ModelStats stats() const;
};

/// Builds the routing MDP by forward exploration from the job's start
/// droplet over all enabled actions under @p rules. Outcome droplets leaving
/// the hazard bounds map to the hazard sink; outcome droplets inside goal
/// become absorbing goal states.
///
/// This is the explicit form of build_compiled_mdp (compiled_mdp.hpp), which
/// synthesis uses directly: the exploration runs once, in compiled form, and
/// each choice is expanded back to its full outcome list (self-loop branch
/// included) through the same outcome kernel. It serves PRISM export and
/// the tests' oracles, which read the explicit choices.
///
/// @param rj     the routing job; rj.start must be a valid on-chip droplet
///               inside rj.hazard
/// @param force  chip-sized per-MC relative-force matrix F̄ (from the frozen
///               health matrix via force_from_health, or the true D² in
///               simulator-side analyses)
/// @param chip   chip bounds (frontier MCs must exist on the chip)
/// @param wear_penalty_lambda  λ ≥ 0 for the wear-aware extension: each
///               choice costs 1 + λ·mean(1 − F̄) over the actuated target
///               pattern, so Rmin trades cycles against wear imposed on
///               already-degraded cells (0 = the paper's r_k reward)
RoutingMdp build_routing_mdp(const assay::RoutingJob& rj,
                             const DoubleMatrix& force, const Rect& chip,
                             const ActionRules& rules,
                             double wear_penalty_lambda = 0.0);

}  // namespace meda::core
