#include "model/guards.hpp"

#include "model/frontier.hpp"
#include "util/check.hpp"

namespace meda {

bool guard_satisfied(Action a, const Rect& d) {
  MEDA_REQUIRE(d.valid(), "guard on an invalid droplet");
  constexpr double r = kMaxAspectRatio;
  switch (action_class(a)) {
    case ActionClass::kCardinal:
    case ActionClass::kOrdinal:
      return true;
    case ActionClass::kDouble:
      // A droplet is reliably movable at most half its length per cycle.
      return is_vertical(cardinal_of(a)) ? d.height() >= 4 : d.width() >= 4;
    case ActionClass::kHeighten: {
      // g_↑: (y_b − y_a + 2)/(x_b − x_a) ≤ r — the post-morph aspect h'/w'.
      if (d.width() < 2) return false;  // result would have zero width
      return static_cast<double>(d.yb - d.ya + 2) <=
             r * static_cast<double>(d.xb - d.xa);
    }
    case ActionClass::kWiden: {
      // g_↓: (x_b − x_a + 2)/(y_b − y_a) ≤ r — the post-morph aspect w'/h'.
      if (d.height() < 2) return false;  // result would have zero height
      return static_cast<double>(d.xb - d.xa + 2) <=
             r * static_cast<double>(d.yb - d.ya);
    }
  }
  throw InvariantError("unknown action class");
}

bool action_enabled(Action a, const Rect& d, const ActionRules& rules,
                    const Rect& chip) {
  if (!rules.allows(action_class(a)) || !guard_satisfied(a, d)) return false;

  // The final droplet must stay on the chip.
  if (!chip.contains(apply(a, d))) return false;

  // Every pulling frontier must consist of existing MCs. For double-step
  // actions this covers both steps (the second step's frontier is evaluated
  // on the one-step-shifted droplet).
  const FrontierDirs dirs = pulling_directions(a);
  for (int i = 0; i < dirs.count; ++i) {
    const Rect fr = frontier(d, a, dirs.dirs[i]);
    if (!fr.valid() || !chip.contains(fr)) return false;
  }
  if (action_class(a) == ActionClass::kDouble) {
    const Vec2i step = unit(cardinal_of(a));
    const Rect mid = d.shifted(step.x, step.y);
    const Rect fr2 = frontier(mid, a, cardinal_of(a));
    if (!fr2.valid() || !chip.contains(fr2)) return false;
  }
  return true;
}

}  // namespace meda
