#pragma once

#include "assay/helper.hpp"
#include "core/strategy.hpp"
#include "model/guards.hpp"
#include "util/matrix.hpp"

/// @file fallback_router.hpp
/// Bounded A* router for the waste routes of retired replicas.
///
/// After the vote of an N-modular-redundant dispense, the scheduler drains
/// each losing replica to the nearest chip edge (its one caller,
/// advance_retirements). Waste disposal needs no model checking, so this
/// router runs a deterministic A* over droplet rectangles using the same
/// action set and guards as the MDP builder, treating every move as
/// succeeding (ignoring the probabilistic outcome model entirely). The
/// resulting path is wrapped as a core::Strategy; because failed pulls
/// leave the droplet in place and path states re-command their own action,
/// execution simply retries until the pull lands.
///
/// Cost model: every action costs 1 cycle; the heuristic is
/// ceil(manhattan_gap/2) (admissible: double steps move at most 2 cells), so
/// the path minimizes commanded-action count, not expected cycles. Expansion
/// is bounded by kMaxFallbackExpansions so the fallback itself can never
/// hang.
namespace meda::core {

/// A* open-list pops allowed before giving up (the router's own budget;
/// generously above any single-job state count on our chips).
inline constexpr int kMaxFallbackExpansions = 20000;

/// Result of one fallback routing attempt.
struct FallbackResult {
  Strategy strategy;     ///< path strategy; empty when infeasible
  bool feasible = false;
  int path_length = 0;   ///< actions on the found path
  int expansions = 0;    ///< A* pops performed
};

/// Routes @p rj over the sensed b-bit health matrix @p health (chip-sized)
/// within chip bounds @p chip, with the moves that @p rules enable.
/// Deterministic: ties in f-cost resolve to insertion order, and neighbors
/// are generated in kAllActions order.
FallbackResult fallback_route(const assay::RoutingJob& rj,
                              const IntMatrix& health, const Rect& chip,
                              const ActionRules& rules = {});

}  // namespace meda::core
