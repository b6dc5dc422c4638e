#include "model/action_table.hpp"

#include <utility>

#include "model/frontier.hpp"
#include "util/check.hpp"

namespace meda {

ActionEntry resolve_action(Action a, int width, int height) {
  MEDA_REQUIRE(width >= 1 && height >= 1, "action on an empty droplet shape");
  const Rect d = Rect::from_size(0, 0, width, height);
  ActionEntry e;
  e.action = a;
  e.action_class = action_class(a);
  e.success = apply(a, d);
  switch (e.action_class) {
    case ActionClass::kCardinal:
      e.pull[0] = frontier(d, a, cardinal_of(a));
      e.pulls = 1;
      break;
    case ActionClass::kDouble: {
      // The second step is pulled by the frontier of the one-step-shifted
      // droplet (Section V-B).
      const Dir dir = cardinal_of(a);
      const Vec2i step = unit(dir);
      e.partial[0] = d.shifted(step.x, step.y);
      e.pull[0] = frontier(d, a, dir);
      e.pull[1] = frontier(e.partial[0], a, dir);
      e.pulls = 2;
      break;
    }
    case ActionClass::kOrdinal: {
      const Ordinal o = ordinal_of(a);
      const Vec2i uv = unit(vertical(o));
      const Vec2i uh = unit(horizontal(o));
      e.partial[0] = d.shifted(uv.x, uv.y);
      e.partial[1] = d.shifted(uh.x, uh.y);
      e.pull[0] = frontier(d, a, vertical(o));
      e.pull[1] = frontier(d, a, horizontal(o));
      e.pulls = 2;
      break;
    }
    case ActionClass::kWiden:
    case ActionClass::kHeighten: {
      const FrontierDirs dirs = pulling_directions(a);
      MEDA_ASSERT(dirs.count == 1, "morph must have one pulling direction");
      e.pull[0] = frontier(d, a, dirs.dirs[0]);
      e.pulls = 1;
      break;
    }
  }
  return e;
}

ActionTable::ActionTable(const ActionRules& rules) : rules_(rules) {}

std::span<const ActionEntry> ActionTable::actions(int width, int height) {
  for (const Shape& shape : shapes_)
    if (shape.width == width && shape.height == height) return shape.entries;

  Shape shape;
  shape.width = width;
  shape.height = height;
  const Rect reference = Rect::from_size(0, 0, width, height);
  for (Action a : kAllActions) {
    // The guard reads only the droplet's shape, so one reference placement
    // decides it for every placement.
    if (!rules_.allows(action_class(a)) || !guard_satisfied(a, reference))
      continue;
    ActionEntry entry = resolve_action(a, width, height);
    // action_enabled also refuses an empty pulling frontier.
    bool frontiers_valid = true;
    entry.bounds = entry.success;
    for (int i = 0; i < entry.pulls; ++i) {
      frontiers_valid = frontiers_valid && entry.pull[i].valid();
      entry.bounds = entry.bounds.union_with(entry.pull[i]);
    }
    if (frontiers_valid) shape.entries.push_back(entry);
  }
  // Moving the shape keeps its entries' buffer, so earlier spans stay valid.
  shapes_.push_back(std::move(shape));
  return shapes_.back().entries;
}

}  // namespace meda
