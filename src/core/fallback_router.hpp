#pragma once

#include "assay/helper.hpp"
#include "core/strategy.hpp"
#include "model/guards.hpp"
#include "util/matrix.hpp"

/// @file fallback_router.hpp
/// Bounded A* fallback router for deadline-expired synthesis.
///
/// When a full MDP synthesis blows its deadline (end-of-life chips widen
/// hazard zones until the model has hundreds of thousands of states), the
/// scheduler still needs *some* route now: this router runs a deterministic
/// A* over droplet rectangles using the same action set and guards as the
/// MDP builder, treating every move as succeeding (ignoring the
/// probabilistic outcome model entirely). The resulting path is wrapped as
/// a core::Strategy; because failed pulls leave the droplet in place and
/// path states re-command their own action, execution simply retries until
/// the pull lands — slower than the Rmin-optimal strategy, but the assay
/// degrades to "slower route" instead of "aborted job".
///
/// Cost model: every action costs 1 cycle; the heuristic is
/// ceil(manhattan_gap/2) (admissible: double steps move at most 2 cells), so
/// the path minimizes commanded-action count, not expected cycles. Expansion
/// is bounded by FallbackConfig::max_expansions so the fallback itself can
/// never hang.
namespace meda::core {

/// Fallback router controls.
struct FallbackConfig {
  ActionRules rules{};
  /// A* open-list pops allowed before giving up (the router's own budget;
  /// generously above any single-job state count on our chips).
  int max_expansions = 20000;
};

/// Result of one fallback routing attempt.
struct FallbackResult {
  Strategy strategy;     ///< path strategy; empty when infeasible
  bool feasible = false;
  int path_length = 0;   ///< actions on the found path
  int expansions = 0;    ///< A* pops performed
};

/// Routes @p rj over the sensed b-bit health matrix @p health (chip-sized)
/// within chip bounds @p chip. Deterministic: ties in f-cost resolve to
/// insertion order, and neighbors are generated in kAllActions order.
FallbackResult fallback_route(const assay::RoutingJob& rj,
                              const IntMatrix& health, const Rect& chip,
                              const FallbackConfig& config = {});

}  // namespace meda::core
