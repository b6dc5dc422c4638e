#include "model/action_table.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "geometry/direction.hpp"
#include "model/frontier.hpp"
#include "model/guards.hpp"
#include "util/check.hpp"

/// The per-shape action table against the per-call API it stands in for in
/// the model builder. Over every droplet shape up to 8×8, every combination
/// of the rule switches, three aspect-ratio bounds and every placement on a
/// 12×12 chip, the entries enabled at a placement must be exactly the
/// actions action_enabled admits there, in kAllActions order, and every
/// entry's rects, translated to the placement, must be what apply and
/// frontier give there.

namespace meda {
namespace {

constexpr int kChip = 12;
constexpr int kMaxSide = 8;

Rect step(const Rect& droplet, Dir d) {
  const Vec2i u = unit(d);
  return droplet.shifted(u.x, u.y);
}

/// The first rect of @p e that, placed at @p droplet, differs from the
/// per-call geometry; empty when all agree.
std::string geometry_mismatch(const ActionEntry& e, const Rect& droplet) {
  const Action a = e.action;
  if (e.action_class != action_class(a)) return "class";
  if (placed(e.success, droplet) != apply(a, droplet)) return "success";
  const FrontierDirs dirs = pulling_directions(a);
  for (int i = 0; i < dirs.count; ++i)
    if (placed(e.pull[i], droplet) != frontier(droplet, a, dirs.dirs[i]))
      return "pull " + std::to_string(i);
  switch (action_class(a)) {
    case ActionClass::kDouble: {
      const Rect mid = step(droplet, cardinal_of(a));
      if (e.pulls != 2) return "pull count";
      if (placed(e.partial[0], droplet) != mid) return "midpoint";
      if (placed(e.pull[1], droplet) != frontier(mid, a, cardinal_of(a)))
        return "second-step pull";
      break;
    }
    case ActionClass::kOrdinal: {
      const Ordinal o = ordinal_of(a);
      if (e.pulls != 2) return "pull count";
      if (placed(e.partial[0], droplet) != step(droplet, vertical(o)))
        return "vertical partial";
      if (placed(e.partial[1], droplet) != step(droplet, horizontal(o)))
        return "horizontal partial";
      break;
    }
    default:
      if (e.pulls != 1) return "pull count";
      break;
  }
  return {};
}

TEST(ActionTable, MatchesActionEnabledApplyAndFrontierEverywhere) {
  const Rect chip{0, 0, kChip - 1, kChip - 1};
  long long placements = 0;
  int failures = 0;
  std::string first_failure;
  std::array<long long, 5> enabled_by_class{};
  for (const double ratio : {1.0, 1.5, 2.5}) {
    for (int switches = 0; switches < 8; ++switches) {
      ActionRules rules;
      rules.max_aspect_ratio = ratio;
      rules.enable_double_steps = (switches & 1) != 0;
      rules.enable_ordinal = (switches & 2) != 0;
      rules.enable_morphing = (switches & 4) != 0;
      ActionTable table(rules);
      for (int w = 1; w <= kMaxSide; ++w) {
        for (int h = 1; h <= kMaxSide; ++h) {
          const auto entries = table.actions(w, h);
          for (int y = 0; y + h <= kChip; ++y) {
            for (int x = 0; x + w <= kChip; ++x) {
              const Rect droplet = Rect::from_size(x, y, w, h);
              ++placements;
              std::vector<Action> want;
              for (Action a : kAllActions)
                if (action_enabled(a, droplet, rules, chip)) want.push_back(a);
              std::vector<Action> got;
              for (const ActionEntry& e : entries) {
                const std::string bad = geometry_mismatch(e, droplet);
                if (!bad.empty() && failures++ == 0)
                  first_failure = std::string(to_string(e.action)) + " " +
                                  bad + " at " + droplet.to_string();
                if (e.enabled_at(droplet, chip)) {
                  got.push_back(e.action);
                  ++enabled_by_class[static_cast<std::size_t>(
                      e.action_class)];
                }
              }
              if (got != want && failures++ == 0)
                first_failure = "enabled set at " + droplet.to_string() +
                                " (ratio " + std::to_string(ratio) +
                                ", switches " + std::to_string(switches) +
                                ")";
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(failures, 0) << "first: " << first_failure;
  // 24 rule sets × (Σ_{s=1..8} (13 − s))² placements.
  EXPECT_EQ(placements, 24LL * 68 * 68);
  for (std::size_t c = 0; c < enabled_by_class.size(); ++c)
    EXPECT_GT(enabled_by_class[c], 0) << "class " << c << " never enabled";
}

TEST(ActionTable, SpansStayValidAsShapesAreAdded) {
  ActionTable table(ActionRules{});
  const auto first = table.actions(4, 3);
  const std::vector<ActionEntry> copy(first.begin(), first.end());
  for (int w = 1; w <= kMaxSide; ++w)
    for (int h = 1; h <= kMaxSide; ++h) table.actions(w, h);
  ASSERT_EQ(first.size(), copy.size());
  for (std::size_t i = 0; i < copy.size(); ++i) {
    EXPECT_EQ(first[i].action, copy[i].action);
    EXPECT_EQ(first[i].bounds, copy[i].bounds);
  }
  // A shape seen before is served from the table, not resolved again.
  EXPECT_EQ(table.actions(4, 3).data(), first.data());
}

TEST(ActionTable, ResolvingADegenerateMorphThrowsLikeApply) {
  EXPECT_THROW(resolve_action(Action::kWidenNE, 3, 1), PreconditionError);
  EXPECT_THROW(resolve_action(Action::kHeightenSW, 1, 3), PreconditionError);
  EXPECT_THROW(resolve_action(Action::kN, 0, 2), PreconditionError);
  // The table never resolves them: the morph guard refuses unit sides.
  ActionRules rules;
  rules.max_aspect_ratio = 100.0;
  ActionTable table(rules);
  for (const ActionEntry& e : table.actions(3, 1))
    EXPECT_NE(e.action_class, ActionClass::kWiden) << to_string(e.action);
  for (const ActionEntry& e : table.actions(1, 3))
    EXPECT_NE(e.action_class, ActionClass::kHeighten) << to_string(e.action);
}

}  // namespace
}  // namespace meda
