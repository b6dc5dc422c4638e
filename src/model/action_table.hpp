#pragma once

#include <array>
#include <span>
#include <vector>

#include "geometry/rect.hpp"
#include "model/action.hpp"
#include "model/guards.hpp"

/// @file action_table.hpp
/// Per-shape action tables for the model builder. Everything about an
/// action that depends only on the droplet's shape — whether the rules and
/// the guard allow it, its outcome rects and its pulling frontiers — is
/// resolved once per droplet shape (w, h) from guard_satisfied, apply,
/// frontier and pulling_directions, as rects relative to the droplet's
/// lower-left corner. A placement then costs one bounding-box test (the enabling
/// check) and a few translations instead of a pass through the action
/// switches.

namespace meda {

/// Translates a corner-relative rect of an ActionEntry to the placement of
/// @p droplet.
constexpr Rect placed(const Rect& relative, const Rect& droplet) {
  return relative.shifted(droplet.xa, droplet.ya);
}

/// One action resolved for one droplet shape. Every rect is relative to the
/// droplet's lower-left corner (see placed()).
struct ActionEntry {
  Action action = Action::kN;
  ActionClass action_class = ActionClass::kCardinal;
  Rect success = Rect::none();  ///< a(δ): the fully successful move
  /// Partial moves: the double step's midpoint in [0]; the ordinal move's
  /// vertical-only [0] and horizontal-only [1] results.
  std::array<Rect, 2> partial = {Rect::none(), Rect::none()};
  /// Pulling frontiers: the one pull of a cardinal move or a morph in [0];
  /// the double step's first [0] and second [1] (from the midpoint); the
  /// ordinal move's vertical [0] and horizontal [1].
  std::array<Rect, 2> pull = {Rect::none(), Rect::none()};
  int pulls = 0;  ///< frontiers in use in pull (1 or 2)
  /// Set by ActionTable: the bounding box of the success rect and every
  /// pulling frontier, exactly the rects action_enabled requires to lie on
  /// the chip.
  Rect bounds = Rect::none();

  /// For an entry of an ActionTable (the rules and the guard allow it on
  /// this shape): whether the action is enabled at the placement
  /// @p droplet on @p chip. Equals action_enabled there.
  constexpr bool enabled_at(const Rect& droplet, const Rect& chip) const {
    return chip.contains(placed(bounds, droplet));
  }
};

/// Resolves the outcome rects and pulling frontiers of @p a on a
/// @p width × @p height droplet: geometry only, with no guard and no rule
/// switch applied, and no bounds. Morphs that would leave a degenerate
/// droplet throw PreconditionError, as apply and frontier do.
ActionEntry resolve_action(Action a, int width, int height);

/// The per-shape action tables of one model build under fixed rules.
/// Shapes are resolved on first use; a table is local to the build that
/// owns it.
class ActionTable {
 public:
  explicit ActionTable(const ActionRules& rules);

  /// The entries of every action that the rules' class switches and the
  /// guard allow on a @p width × @p height droplet, in kAllActions order.
  /// The span stays valid for the table's lifetime.
  std::span<const ActionEntry> actions(int width, int height);

 private:
  struct Shape {
    int width = 0;
    int height = 0;
    std::vector<ActionEntry> entries;  ///< never resized once resolved
  };

  ActionRules rules_;
  std::vector<Shape> shapes_;  ///< in first-seen order
};

}  // namespace meda
