#include "model/guards.hpp"

#include <gtest/gtest.h>

#include "model/frontier.hpp"

namespace meda {
namespace {

TEST(Guards, MovementsAreUnguarded) {
  const Rect d{3, 2, 7, 5};
  for (Action a : {Action::kN, Action::kS, Action::kE, Action::kW,
                   Action::kNE, Action::kNW, Action::kSE, Action::kSW}) {
    EXPECT_TRUE(guard_satisfied(a, d)) << to_string(a);
  }
}

TEST(Guards, DoubleStepRequiresHalfLength) {
  // g_NN/g_SS: h >= 4; g_EE/g_WW: w >= 4 (a droplet can reliably move at
  // most half its length per cycle).
  const Rect tall{0, 0, 2, 3};  // 3×4
  EXPECT_TRUE(guard_satisfied(Action::kNN, tall));
  EXPECT_TRUE(guard_satisfied(Action::kSS, tall));
  EXPECT_FALSE(guard_satisfied(Action::kEE, tall));
  EXPECT_FALSE(guard_satisfied(Action::kWW, tall));
  const Rect wide{0, 0, 3, 2};  // 4×3
  EXPECT_FALSE(guard_satisfied(Action::kNN, wide));
  EXPECT_TRUE(guard_satisfied(Action::kEE, wide));
}

// The paper's worked guard example: r = 3/2 and δ = (3, 2, 7, 5) gives
// g_↑ = 1 and g_↓ = 0.
TEST(Guards, PaperGuardExample) {
  EXPECT_EQ(kMaxAspectRatio, 1.5);
  const Rect d{3, 2, 7, 5};
  for (Action a : {Action::kHeightenNE, Action::kHeightenNW,
                   Action::kHeightenSE, Action::kHeightenSW}) {
    EXPECT_TRUE(guard_satisfied(a, d)) << to_string(a);
  }
  for (Action a : {Action::kWidenNE, Action::kWidenNW, Action::kWidenSE,
                   Action::kWidenSW}) {
    EXPECT_FALSE(guard_satisfied(a, d)) << to_string(a);
  }
}

TEST(Guards, SquareDropletsCannotMorphUnderDefaultRatio) {
  // (h + 1)/(w − 1) for a w×w droplet exceeds 3/2 for w <= 4; 5×5 sits
  // exactly on the boundary (1.5 <= 1.5 holds).
  for (int w : {2, 3, 4}) {
    const Rect d = Rect::from_size(0, 0, w, w);
    EXPECT_FALSE(guard_satisfied(Action::kHeightenNE, d));
    EXPECT_FALSE(guard_satisfied(Action::kWidenNE, d));
  }
  const Rect five = Rect::from_size(0, 0, 5, 5);
  EXPECT_TRUE(guard_satisfied(Action::kHeightenNE, five));
}

TEST(Guards, MorphGuardPreventsDegenerateResults) {
  // A morph cannot shrink a one-cell-thick droplet to zero.
  const Rect row{0, 0, 4, 0};  // 5×1
  EXPECT_FALSE(guard_satisfied(Action::kWidenNE, row));
  const Rect col{0, 0, 0, 4};  // 1×5
  EXPECT_FALSE(guard_satisfied(Action::kHeightenNE, col));
}

TEST(Guards, GuardBoundsPostMorphAspectRatio) {
  // The guard bounds the aspect ratio w/h on the side the morph moves it:
  // g_↑ keeps the result's w/h >= 1/r and g_↓ keeps it <= r. A droplet
  // already within [1/r, r] therefore stays within it.
  constexpr double lo = 1.0 / kMaxAspectRatio - 1e-12;
  constexpr double hi = kMaxAspectRatio + 1e-12;
  int morphs = 0;
  for (int w = 2; w <= 7; ++w) {
    for (int h = 2; h <= 7; ++h) {
      const Rect d = Rect::from_size(0, 0, w, h);
      const bool in_bounds = d.aspect_ratio() >= lo && d.aspect_ratio() <= hi;
      if (guard_satisfied(Action::kHeightenNE, d)) {
        ++morphs;
        const double ar = apply(Action::kHeightenNE, d).aspect_ratio();
        EXPECT_GE(ar, lo) << w << "x" << h;
        if (in_bounds) {
          EXPECT_LE(ar, hi) << w << "x" << h;
        }
      }
      if (guard_satisfied(Action::kWidenNE, d)) {
        ++morphs;
        const double ar = apply(Action::kWidenNE, d).aspect_ratio();
        EXPECT_LE(ar, hi) << w << "x" << h;
        if (in_bounds) {
          EXPECT_GE(ar, lo) << w << "x" << h;
        }
      }
    }
  }
  EXPECT_GT(morphs, 0);
}

TEST(ActionEnabled, RespectsClassSwitches) {
  const Rect chip{0, 0, 29, 29};
  const Rect morphable{5, 5, 9, 8};  // 5×4: g_↑ holds under r = 3/2
  ActionRules rules;
  rules.enable_morphing = false;
  EXPECT_FALSE(action_enabled(Action::kHeightenNE, morphable, rules, chip));
  EXPECT_TRUE(action_enabled(Action::kE, morphable, rules, chip));
  rules = ActionRules{};
  EXPECT_TRUE(action_enabled(Action::kHeightenNE, morphable, rules, chip));
}

TEST(ActionEnabled, DisabledWhenFrontierFallsOffChip) {
  const Rect chip{0, 0, 9, 9};
  // Droplet flush against the north edge: no MCs exist to pull it north.
  const Rect at_top{2, 6, 5, 9};
  EXPECT_FALSE(action_enabled(Action::kN, at_top, ActionRules{}, chip));
  EXPECT_FALSE(action_enabled(Action::kNE, at_top, ActionRules{}, chip));
  EXPECT_FALSE(action_enabled(Action::kNW, at_top, ActionRules{}, chip));
  EXPECT_TRUE(action_enabled(Action::kS, at_top, ActionRules{}, chip));
  EXPECT_TRUE(action_enabled(Action::kE, at_top, ActionRules{}, chip));
}

TEST(ActionEnabled, DoubleStepNeedsTwoCellsOfClearance) {
  const Rect chip{0, 0, 9, 9};
  // 4×4 droplet one cell from the east edge: the single step fits, but the
  // double step's final pattern would leave the chip.
  const Rect d{5, 3, 8, 6};
  EXPECT_TRUE(action_enabled(Action::kE, d, ActionRules{}, chip));
  EXPECT_FALSE(action_enabled(Action::kEE, d, ActionRules{}, chip));
  // Two cells of clearance: both steps fit.
  const Rect d2{4, 3, 7, 6};
  EXPECT_TRUE(action_enabled(Action::kEE, d2, ActionRules{}, chip));
}

TEST(ActionEnabled, InteriorDropletHasAllMovementActions) {
  const Rect chip{0, 0, 29, 29};
  const Rect d{10, 10, 13, 13};  // 4×4 deep inside
  int enabled = 0;
  for (Action a : kAllActions)
    if (action_enabled(a, d, ActionRules{}, chip)) ++enabled;
  // 4 cardinal + 4 double + 4 ordinal; morphs blocked by the 3/2 guard.
  EXPECT_EQ(enabled, 12);
}

}  // namespace
}  // namespace meda
