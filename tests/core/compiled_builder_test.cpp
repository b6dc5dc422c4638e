#include "core/compiled_mdp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/mdp.hpp"
#include "model/outcomes.hpp"
#include "reference_explorer.hpp"
#include "util/rng.hpp"

/// Oracle tests for the fused builder: over fuzzed routing jobs,
/// build_compiled_mdp must equal compile_mdp of the reference explorer's
/// RoutingMdp array for array, with the same geometry side table, and
/// build_routing_mdp (its explicit expansion) must equal the reference
/// model outright. Plus unit tests of the dense StateIndex.

namespace meda::core {
namespace {

/// Bitwise equality of every compiled array.
void expect_same_arrays(const CompiledMdp& got, const CompiledMdp& want,
                        const std::string& label) {
  EXPECT_EQ(got.num_droplet_states, want.num_droplet_states) << label;
  EXPECT_EQ(got.start, want.start) << label;
  EXPECT_EQ(got.choice_offset, want.choice_offset) << label;
  EXPECT_EQ(got.trans_offset, want.trans_offset) << label;
  EXPECT_EQ(got.cost, want.cost) << label;
  EXPECT_EQ(got.inv_one_minus_q, want.inv_one_minus_q) << label;
  EXPECT_EQ(got.target, want.target) << label;
  EXPECT_EQ(got.probability, want.probability) << label;
  EXPECT_EQ(got.is_goal, want.is_goal) << label;
  EXPECT_EQ(got.sweep_order, want.sweep_order) << label;
  EXPECT_EQ(got.goal_reachable, want.goal_reachable) << label;
  EXPECT_EQ(got.pred_offset, want.pred_offset) << label;
  EXPECT_EQ(got.pred_state, want.pred_state) << label;
}

/// Bitwise equality of two explicit models.
void expect_same_mdp(const RoutingMdp& got, const RoutingMdp& want,
                     const std::string& label) {
  EXPECT_EQ(got.droplets, want.droplets) << label;
  EXPECT_EQ(got.is_goal, want.is_goal) << label;
  EXPECT_EQ(got.start, want.start) << label;
  ASSERT_EQ(got.choices.size(), want.choices.size()) << label;
  for (std::size_t s = 0; s < got.choices.size(); ++s) {
    ASSERT_EQ(got.choices[s].size(), want.choices[s].size()) << label;
    for (std::size_t c = 0; c < got.choices[s].size(); ++c) {
      const Choice& g = got.choices[s][c];
      const Choice& w = want.choices[s][c];
      EXPECT_EQ(g.action, w.action) << label;
      EXPECT_EQ(g.cost, w.cost) << label;
      ASSERT_EQ(g.transitions.size(), w.transitions.size()) << label;
      for (std::size_t t = 0; t < g.transitions.size(); ++t) {
        EXPECT_EQ(g.transitions[t].target, w.transitions[t].target) << label;
        EXPECT_EQ(g.transitions[t].probability, w.transitions[t].probability)
            << label;
      }
    }
  }
}

/// One fuzzed routing job with its chip, force field and build settings.
struct FuzzCase {
  Rect chip;
  assay::RoutingJob rj;
  DoubleMatrix force;
  ActionRules rules;
  double lambda = 0.0;
};

Rect random_rect_within(Rng& rng, const Rect& bounds, int w, int h) {
  const int x = rng.uniform_int(bounds.xa, bounds.xb - w + 1);
  const int y = rng.uniform_int(bounds.ya, bounds.yb - h + 1);
  return Rect::from_size(x, y, w, h);
}

/// Random chip, droplet, goal and hazard; a force field mixing dead cells
/// (zero-probability outcomes are omitted), fully healthy cells, arbitrary
/// degradations and cells outside [0, 1] (the builder clamps the field once,
/// the reference clamps every read). Droplet sides run 2..6, so double
/// steps and several morph shapes occur. Every fourth case puts the hazard
/// strictly inside the chip, every fifth starts inside the goal, every third
/// charges a wear penalty, and morphing alternates.
FuzzCase fuzz_case(Rng& rng, int k) {
  FuzzCase fc;
  const int width = rng.uniform_int(10, 18);
  const int height = rng.uniform_int(10, 18);
  fc.chip = Rect{0, 0, width - 1, height - 1};
  fc.force = DoubleMatrix(width, height, 1.0);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      const double u = rng.uniform(0.0, 1.0);
      fc.force(x, y) = u < 0.1    ? 0.0
                       : u < 0.3  ? 1.0
                       : u < 0.33 ? -0.3
                       : u < 0.36 ? 1.4
                                  : rng.uniform(0.05, 0.95);
    }
  }
  fc.rules.enable_morphing = k % 2 == 0;
  fc.lambda = k % 3 == 0 ? rng.uniform(0.1, 2.0) : 0.0;

  const Rect inner = fc.chip.inflated(-1);
  fc.rj.hazard = k % 4 == 1 ? inner : fc.chip;
  const int w = rng.uniform_int(2, 6);
  const int h = rng.uniform_int(2, 6);
  fc.rj.start = random_rect_within(rng, fc.rj.hazard, w, h);
  if (k % 5 == 2) {
    fc.rj.goal = fc.rj.start.inflated(1).intersection_with(fc.chip);
  } else {
    const int gw = w + rng.uniform_int(0, 2);
    const int gh = h + rng.uniform_int(0, 2);
    fc.rj.goal = random_rect_within(rng, fc.chip, gw, gh);
  }
  return fc;
}

bool is_double_step(Action a) {
  return action_class(a) == ActionClass::kDouble;
}

TEST(BuildCompiledMdp, MatchesCompiledReferenceOnFuzzedJobs) {
  Rng rng(0xb01d0001u);
  int covered_dead = 0, covered_inner = 0, covered_goal_start = 0,
      covered_lambda = 0, covered_morph = 0, covered_double = 0,
      covered_out_of_range = 0, covered_wide = 0, covered_outgrown = 0,
      covered_hazard_branch = 0;
  for (int k = 0; k < 120; ++k) {
    const FuzzCase fc = fuzz_case(rng, k);
    const std::string label = "case " + std::to_string(k);
    const RoutingMdp reference = reference::explore(
        fc.rj, fc.force, fc.chip, fc.rules, fc.lambda);
    const CompiledModel built =
        build_compiled_mdp(fc.rj, fc.force, fc.chip, fc.rules, fc.lambda);

    expect_same_arrays(built.mdp, compile_mdp(reference), label);
    EXPECT_EQ(built.geometry.droplets, reference.droplets) << label;
    std::vector<Action> actions;
    std::vector<std::uint8_t> outcomes;
    for (const auto& state_choices : reference.choices) {
      for (const Choice& c : state_choices) {
        actions.push_back(c.action);
        outcomes.push_back(static_cast<std::uint8_t>(c.transitions.size()));
      }
    }
    EXPECT_EQ(built.geometry.choice_action, actions) << label;
    EXPECT_EQ(built.geometry.choice_outcomes, outcomes) << label;
    const ModelStats want = reference.stats();
    EXPECT_EQ(built.stats.states, want.states) << label;
    EXPECT_EQ(built.stats.transitions, want.transitions) << label;
    EXPECT_EQ(built.stats.choices, want.choices) << label;
    for (std::size_t s = 0; s < reference.droplets.size(); ++s)
      EXPECT_EQ(built.geometry.state_index.find(reference.droplets[s]), s)
          << label;

    // The explicit form is an expansion of the same build.
    expect_same_mdp(build_routing_mdp(fc.rj, fc.force, fc.chip, fc.rules,
                                      fc.lambda),
                    reference, label);

    // Tally the scenarios the fuzz was meant to reach.
    bool dead = false, out_of_range = false;
    for (double f : fc.force.data()) {
      dead = dead || f <= 0.0;
      out_of_range = out_of_range || f < 0.0 || f > 1.0;
    }
    covered_dead += dead ? 1 : 0;
    covered_out_of_range += out_of_range ? 1 : 0;
    covered_inner += fc.rj.hazard != fc.chip ? 1 : 0;
    covered_goal_start += fc.rj.goal.contains(fc.rj.start) ? 1 : 0;
    covered_lambda += fc.lambda > 0.0 ? 1 : 0;
    covered_morph += fc.rules.enable_morphing ? 1 : 0;
    covered_double += std::any_of(built.geometry.choice_action.begin(),
                                  built.geometry.choice_action.end(),
                                  is_double_step)
                          ? 1
                          : 0;
    covered_wide +=
        std::max(fc.rj.start.width(), fc.rj.start.height()) >= 5 ? 1 : 0;
    // The builder sizes its arrays for one state per placement of the start
    // shape in the hazard box; morphs take a model past that.
    const Rect box = fc.rj.hazard.intersection_with(fc.chip);
    const auto placements = static_cast<std::uint32_t>(
        (box.width() - fc.rj.start.width() + 1) *
        (box.height() - fc.rj.start.height() + 1));
    covered_outgrown += built.mdp.num_droplet_states > placements ? 1 : 0;
    covered_hazard_branch +=
        std::count(built.mdp.target.begin(), built.mdp.target.end(),
                   built.mdp.hazard_sink()) > 0
            ? 1
            : 0;
  }
  EXPECT_GT(covered_dead, 0);
  EXPECT_GT(covered_inner, 0);
  EXPECT_GT(covered_goal_start, 0);
  EXPECT_GT(covered_lambda, 0);
  EXPECT_GT(covered_morph, 0);
  EXPECT_GT(covered_double, 0);
  EXPECT_GT(covered_out_of_range, 0);
  EXPECT_GT(covered_wide, 0);
  EXPECT_GT(covered_outgrown, 0);
  EXPECT_GT(covered_hazard_branch, 0);
}

TEST(BuildCompiledMdp, StartInsideGoalIsOneAbsorbingState) {
  assay::RoutingJob rj;
  rj.start = Rect::from_size(2, 2, 3, 3);
  rj.goal = Rect{1, 1, 6, 6};
  rj.hazard = Rect{0, 0, 9, 9};
  const CompiledModel built = build_compiled_mdp(
      rj, DoubleMatrix(10, 10, 0.7), Rect{0, 0, 9, 9}, ActionRules{});
  EXPECT_EQ(built.mdp.num_droplet_states, 1u);
  EXPECT_EQ(built.mdp.choice_count(), 0u);
  EXPECT_EQ(built.mdp.is_goal[0], 1u);
  EXPECT_EQ(built.stats.states, 2u);  // the start plus the hazard sink
  EXPECT_EQ(built.mdp.goal_reachable, 1u);
}

TEST(BuildCompiledMdp, KeepsTheBuilderPreconditions) {
  assay::RoutingJob rj;
  rj.start = Rect::from_size(0, 0, 2, 2);
  rj.goal = Rect::from_size(6, 6, 2, 2);
  rj.hazard = Rect{0, 0, 7, 7};
  const Rect chip{0, 0, 7, 7};
  EXPECT_THROW(build_compiled_mdp(rj, DoubleMatrix(7, 8, 1.0), chip,
                                  ActionRules{}),
               PreconditionError);
  EXPECT_THROW(build_compiled_mdp(rj, DoubleMatrix(8, 8, 1.0), chip,
                                  ActionRules{}, -1.0),
               PreconditionError);
  assay::RoutingJob outside = rj;
  outside.hazard = Rect{1, 1, 7, 7};
  EXPECT_THROW(build_compiled_mdp(outside, DoubleMatrix(8, 8, 1.0), chip,
                                  ActionRules{}),
               PreconditionError);
}

// StateIndex -----------------------------------------------------------------

TEST(StateIndex, EdgeAndCornerPlacementsFindTheirOwnSlots) {
  const Rect box{2, 3, 9, 7};  // 8 × 5 cells
  StateIndex index(box);
  const int w = 3, h = 2;
  std::vector<Rect> placements;
  for (int y = box.ya; y + h - 1 <= box.yb; ++y)
    for (int x = box.xa; x + w - 1 <= box.xb; ++x)
      placements.push_back(Rect::from_size(x, y, w, h));
  ASSERT_EQ(placements.size(), 6u * 4u);
  for (std::size_t i = 0; i < placements.size(); ++i) {
    EXPECT_EQ(index.find(placements[i]), StateIndex::kAbsent);
    index.slot(placements[i]) = static_cast<std::uint32_t>(i);
  }
  for (std::size_t i = 0; i < placements.size(); ++i)
    EXPECT_EQ(index.find(placements[i]), i) << placements[i].to_string();
  // The four corners explicitly.
  EXPECT_EQ(index.find(Rect::from_size(2, 3, w, h)), 0u);
  EXPECT_EQ(index.find(Rect::from_size(7, 3, w, h)), 5u);
  EXPECT_EQ(index.find(Rect::from_size(2, 6, w, h)), 18u);
  EXPECT_EQ(index.find(Rect::from_size(7, 6, w, h)), 23u);
}

TEST(StateIndex, ShapesKeepSeparateSlots) {
  StateIndex index(Rect{0, 0, 9, 9});
  const Rect wide = Rect::from_size(4, 4, 3, 2);
  const Rect tall = Rect::from_size(4, 4, 2, 3);
  index.slot(wide) = 7;
  EXPECT_EQ(index.find(tall), StateIndex::kAbsent);  // shape never seen
  index.slot(tall) = 9;
  EXPECT_EQ(index.find(wide), 7u);
  EXPECT_EQ(index.find(tall), 9u);
  // A seen shape at a placement never stored.
  EXPECT_EQ(index.find(Rect::from_size(0, 0, 3, 2)), StateIndex::kAbsent);
}

// Switching shapes on every call must land each placement in its own
// shape's slot, in slot() and find() alike.
TEST(StateIndex, InterleavedShapesKeepTheirOwnSlots) {
  const Rect box{1, 2, 10, 9};  // 10 × 8 cells
  StateIndex index(box);
  // Each shape shares its width or its height with another.
  const int shapes[3][2] = {{3, 3}, {3, 2}, {2, 3}};
  std::vector<Rect> stored;
  for (int y = box.ya; y <= box.yb; ++y) {
    for (int x = box.xa; x <= box.xb; ++x) {
      for (const auto& shape : shapes) {
        const Rect r = Rect::from_size(x, y, shape[0], shape[1]);
        if (!box.contains(r)) continue;
        EXPECT_EQ(index.slot(r), StateIndex::kAbsent) << r.to_string();
        index.slot(r) = static_cast<std::uint32_t>(stored.size());
        stored.push_back(r);
      }
    }
  }
  ASSERT_EQ(stored.size(), 8u * 6u + 8u * 7u + 9u * 6u);
  // Read back in reverse, alternating find() and slot(), so consecutive
  // lookups ask for different shapes.
  for (std::size_t i = stored.size(); i-- > 0;) {
    EXPECT_EQ(index.find(stored[i]), i) << stored[i].to_string();
    EXPECT_EQ(index.slot(stored[i]), i) << stored[i].to_string();
  }
  // One corner, three shapes, three different states.
  EXPECT_EQ(index.slot(Rect::from_size(1, 2, 3, 3)), 0u);
  EXPECT_EQ(index.slot(Rect::from_size(1, 2, 3, 2)), 1u);
  EXPECT_EQ(index.slot(Rect::from_size(1, 2, 2, 3)), 2u);
  EXPECT_EQ(index.find(Rect::from_size(1, 2, 3, 3)), 0u);
}

TEST(StateIndex, RectsReachingOutsideTheBoxAreAbsent) {
  StateIndex index(Rect{2, 2, 8, 8});
  index.slot(Rect::from_size(2, 2, 3, 3)) = 1;
  index.slot(Rect::from_size(6, 6, 3, 3)) = 2;
  EXPECT_EQ(index.find(Rect::from_size(1, 2, 3, 3)), StateIndex::kAbsent);
  EXPECT_EQ(index.find(Rect::from_size(2, 1, 3, 3)), StateIndex::kAbsent);
  EXPECT_EQ(index.find(Rect::from_size(7, 6, 3, 3)), StateIndex::kAbsent);
  EXPECT_EQ(index.find(Rect::from_size(6, 7, 3, 3)), StateIndex::kAbsent);
  EXPECT_EQ(index.find(Rect{0, 0, 20, 20}), StateIndex::kAbsent);
  EXPECT_EQ(index.find(Rect::none()), StateIndex::kAbsent);
  EXPECT_THROW(index.slot(Rect::from_size(7, 7, 3, 3)), PreconditionError);
}

TEST(StateIndex, DefaultIndexFindsNothing) {
  const StateIndex index;
  EXPECT_EQ(index.find(Rect::from_size(0, 0, 1, 1)), StateIndex::kAbsent);
}

}  // namespace
}  // namespace meda::core
