#include "core/strategy_render.hpp"

// Also exercises the umbrella header from test code.
#include "meda.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace meda::core {
namespace {

TEST(StrategyRender, GlyphsAreDistinctPerDirection) {
  EXPECT_EQ(action_glyph(Action::kN), '^');
  EXPECT_EQ(action_glyph(Action::kEE), 'E');
  EXPECT_EQ(action_glyph(Action::kNE), '/');
  EXPECT_EQ(action_glyph(Action::kWidenSW), 'w');
  EXPECT_EQ(action_glyph(Action::kHeightenNE), 'h');
}

TEST(StrategyRender, StraightEastFieldShowsDoubleSteps) {
  const Rect chip{0, 0, 17, 7};
  assay::RoutingJob rj;
  rj.start = Rect::from_size(0, 2, 4, 4);
  rj.goal = Rect::from_size(12, 2, 4, 4);
  rj.hazard = chip;
  SynthesisConfig config;
  config.rules.enable_morphing = false;
  const Synthesizer synth(chip, config);
  const SynthesisResult r =
      synth.synthesize_with_force(rj, full_health_force(18, 8));
  ASSERT_TRUE(r.feasible);
  const std::string field = render_strategy_field(r.strategy, rj, 4, 4);
  // 5 rows of anchors (y = 4..0 printed north to south) + newlines.
  EXPECT_EQ(std::count(field.begin(), field.end(), '\n'), 5);
  // The goal anchor is marked and double-steps dominate the start row.
  EXPECT_NE(field.find('*'), std::string::npos);
  EXPECT_NE(field.find('E'), std::string::npos);
  // Every anchored position is covered (no blanks inside the field).
  EXPECT_EQ(field.find("  "), std::string::npos);
}

TEST(StrategyRender, DetourFieldAvoidsTheDeadWall) {
  const Rect chip{0, 0, 19, 11};
  DoubleMatrix force = full_health_force(20, 12);
  for (int y = 3; y < 12; ++y) force(9, y) = 0.0;  // wall with a south gap
  assay::RoutingJob rj;
  rj.start = Rect::from_size(1, 5, 3, 3);
  rj.goal = Rect::from_size(15, 5, 3, 3);
  rj.hazard = chip;
  SynthesisConfig config;
  config.rules.enable_morphing = false;
  const Synthesizer synth(chip, config);
  const SynthesisResult r = synth.synthesize_with_force(rj, force);
  ASSERT_TRUE(r.feasible);
  const std::string field = render_strategy_field(r.strategy, rj, 3, 3);
  // The start row steers south around the wall: southbound glyphs exist.
  EXPECT_TRUE(field.find('v') != std::string::npos ||
              field.find('S') != std::string::npos ||
              field.find('r') != std::string::npos ||
              field.find('j') != std::string::npos)
      << field;
}

TEST(StrategyRender, UncoveredPositionsAreBlank) {
  const Strategy sparse({{Rect::from_size(0, 0, 2, 2), Action::kE}});
  assay::RoutingJob rj;
  rj.start = Rect::from_size(0, 0, 2, 2);
  rj.goal = Rect::from_size(4, 0, 2, 2);
  rj.hazard = Rect{0, 0, 5, 3};
  const std::string field = render_strategy_field(sparse, rj, 2, 2);
  EXPECT_NE(field.find('>'), std::string::npos);
  EXPECT_NE(field.find(' '), std::string::npos);
  EXPECT_NE(field.find('*'), std::string::npos);
}

TEST(StrategyRender, RejectsBadDimensions) {
  assay::RoutingJob rj;
  rj.hazard = Rect{0, 0, 5, 5};
  rj.goal = Rect{0, 0, 1, 1};
  EXPECT_THROW(render_strategy_field(Strategy{}, rj, 0, 2),
               PreconditionError);
}

}  // namespace
}  // namespace meda::core
