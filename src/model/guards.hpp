#pragma once

#include "geometry/rect.hpp"
#include "model/action.hpp"

/// @file guards.hpp
/// Action guards of Section V-B. A guard is a necessary condition for an
/// action to be enabled:
///
///  - morphing keeps the aspect ratio within [1/r, r] (to avoid unintended
///    splitting):  g_↑: (y_b−y_a+2)/(x_b−x_a) ≤ r,
///                 g_↓: (x_b−x_a+2)/(y_b−y_a) ≤ r;
///  - a droplet can only be moved two cells per cycle if the distance is at
///    most half its length: g_NN/g_SS: h ≥ 4, g_EE/g_WW: w ≥ 4.

namespace meda {

/// r, the morph guard's aspect-ratio bound (Section V-B): a morph must keep
/// the droplet's aspect ratio within [1/r, r].
inline constexpr double kMaxAspectRatio = 1.5;

/// Enabling configuration for the action set. Cardinal, double-step and
/// ordinal moves are always in it.
struct ActionRules {
  bool enable_morphing = true;  ///< include A_↓/A_↑ in the enabled set

  /// Whether the actions of class @p c are in the enabled set.
  bool allows(ActionClass c) const {
    return enable_morphing ||
           (c != ActionClass::kWiden && c != ActionClass::kHeighten);
  }

  /// The field list (see core::SchedulerConfig::for_each_field).
  template <typename F, typename... C>
  static void for_each_field(F&& f, C&&... c) {
    f("enable_morphing", c.enable_morphing...);
  }
};

/// Evaluates the guard of @p a on @p droplet (geometry-only; ignores the
/// morphing switch). Movement actions are unguarded and return true.
bool guard_satisfied(Action a, const Rect& droplet);

/// Full enabling check used by the model builder and the simulator: the
/// action class is enabled by @p rules, its guard holds, and both its
/// frontier MCs and its successful-outcome droplet lie within @p chip
/// (a droplet cannot be pulled by microelectrodes that do not exist).
bool action_enabled(Action a, const Rect& droplet, const ActionRules& rules,
                    const Rect& chip);

}  // namespace meda
