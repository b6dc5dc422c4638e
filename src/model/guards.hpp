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

/// Guard/enabling configuration for the action set.
struct ActionRules {
  double max_aspect_ratio = 1.5;    ///< r; allowed AR range is [1/r, r]
  bool enable_double_steps = true;  ///< include A_dd in the enabled set
  bool enable_ordinal = true;       ///< include A_dd' in the enabled set
  bool enable_morphing = true;      ///< include A_↓/A_↑ in the enabled set

  /// The field list (see core::SchedulerConfig::for_each_field).
  template <typename F, typename... C>
  static void for_each_field(F&& f, C&&... c) {
    f("max_aspect_ratio", c.max_aspect_ratio...);
    f("enable_double_steps", c.enable_double_steps...);
    f("enable_ordinal", c.enable_ordinal...);
    f("enable_morphing", c.enable_morphing...);
  }
};

/// Evaluates the guard of @p a on @p droplet (geometry-only; ignores the
/// enable_* switches). Movement actions are unguarded and return true.
bool guard_satisfied(Action a, const Rect& droplet, const ActionRules& rules);

/// Full enabling check used by the model builder and the simulator: the
/// action class is enabled by @p rules, its guard holds, and both its
/// frontier MCs and its successful-outcome droplet lie within @p chip
/// (a droplet cannot be pulled by microelectrodes that do not exist).
bool action_enabled(Action a, const Rect& droplet, const ActionRules& rules,
                    const Rect& chip);

}  // namespace meda
