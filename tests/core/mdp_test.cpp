#include "core/mdp.hpp"

#include <gtest/gtest.h>

#include "model/outcomes.hpp"
#include "util/check.hpp"

namespace meda::core {
namespace {

ActionRules no_morph_rules() {
  ActionRules rules;
  rules.enable_morphing = false;
  return rules;
}

/// Routing job across a square area with droplet and area side lengths.
assay::RoutingJob corner_to_corner(int area_side, int side) {
  assay::RoutingJob rj;
  rj.start = Rect::from_size(0, 0, side, side);
  rj.goal = Rect::from_size(area_side - side, area_side - side, side, side);
  rj.hazard = Rect{0, 0, area_side - 1, area_side - 1};
  return rj;
}

TEST(RoutingMdpBuilder, TableVStateCounts) {
  // Table V (minus the paper's two extra absorbing bookkeeping states):
  // states = (A − w + 1)² positions + 1 hazard sink.
  struct Row {
    int area, droplet;
    std::size_t states;
  };
  for (const Row row : {Row{10, 3, 65}, Row{10, 4, 50}, Row{10, 5, 37},
                        Row{10, 6, 26}, Row{20, 3, 325}, Row{20, 4, 290},
                        Row{20, 5, 257}, Row{20, 6, 226}, Row{30, 3, 785},
                        Row{30, 4, 730}, Row{30, 5, 677}, Row{30, 6, 626}}) {
    const Rect chip{0, 0, row.area - 1, row.area - 1};
    const RoutingMdp mdp = build_routing_mdp(
        corner_to_corner(row.area, row.droplet),
        full_health_force(row.area, row.area), chip, no_morph_rules());
    EXPECT_EQ(mdp.stats().states, row.states)
        << row.area << "x" << row.area << " droplet " << row.droplet;
  }
}

TEST(RoutingMdpBuilder, GoalStatesAreAbsorbing) {
  const Rect chip{0, 0, 9, 9};
  const RoutingMdp mdp =
      build_routing_mdp(corner_to_corner(10, 3), full_health_force(10, 10),
                        chip, no_morph_rules());
  int goals = 0;
  for (std::size_t s = 0; s < mdp.droplets.size(); ++s) {
    if (mdp.is_goal[s]) {
      ++goals;
      EXPECT_TRUE(mdp.choices[s].empty());
      EXPECT_TRUE(mdp.droplets[s] == Rect::from_size(7, 7, 3, 3));
    } else {
      EXPECT_FALSE(mdp.choices[s].empty());
    }
  }
  EXPECT_EQ(goals, 1);
}

TEST(RoutingMdpBuilder, ChoiceDistributionsSumToOne) {
  const Rect chip{0, 0, 19, 19};
  DoubleMatrix force(20, 20, 0.6);
  const RoutingMdp mdp = build_routing_mdp(corner_to_corner(20, 4), force,
                                           chip, ActionRules{});
  for (const auto& choices : mdp.choices) {
    for (const Choice& c : choices) {
      double total = 0.0;
      for (const Transition& t : c.transitions) {
        EXPECT_GT(t.probability, 0.0);
        EXPECT_LE(t.target, mdp.hazard_sink());
        total += t.probability;
      }
      EXPECT_NEAR(total, 1.0, 1e-12);
    }
  }
}

TEST(RoutingMdpBuilder, HazardSinkReachableWhenHazardSmallerThanChip) {
  const Rect chip{0, 0, 19, 19};
  assay::RoutingJob rj;
  rj.start = Rect::from_size(5, 5, 3, 3);
  rj.goal = Rect::from_size(10, 5, 3, 3);
  rj.hazard = Rect{4, 4, 14, 9};  // strictly inside the chip
  const RoutingMdp mdp = build_routing_mdp(rj, full_health_force(20, 20),
                                           chip, no_morph_rules());
  bool sink_reachable = false;
  for (const auto& choices : mdp.choices)
    for (const Choice& c : choices)
      for (const Transition& t : c.transitions)
        if (t.target == mdp.hazard_sink()) sink_reachable = true;
  EXPECT_TRUE(sink_reachable);
  // Every droplet state lies within the hazard bounds.
  for (const Rect& d : mdp.droplets) EXPECT_TRUE(rj.hazard.contains(d));
}

TEST(RoutingMdpBuilder, MorphingExpandsTheShapeSpace) {
  const Rect chip{0, 0, 11, 11};
  assay::RoutingJob rj;
  rj.start = Rect::from_size(0, 0, 5, 4);  // 5×4 can morph under r = 3/2
  rj.goal = Rect::from_size(7, 8, 5, 4);
  rj.hazard = chip;
  ActionRules with_morph;
  const RoutingMdp with =
      build_routing_mdp(rj, full_health_force(12, 12), chip, with_morph);
  const RoutingMdp without = build_routing_mdp(
      rj, full_health_force(12, 12), chip, no_morph_rules());
  EXPECT_GT(with.stats().states, without.stats().states);
  // All morph shapes conserve w + h.
  for (const Rect& d : with.droplets)
    EXPECT_EQ(d.width() + d.height(), 9);
}

TEST(RoutingMdpBuilder, StartStateIsInterned) {
  const Rect chip{0, 0, 9, 9};
  const RoutingMdp mdp =
      build_routing_mdp(corner_to_corner(10, 3), full_health_force(10, 10),
                        chip, no_morph_rules());
  EXPECT_EQ(mdp.droplets[mdp.start], Rect::from_size(0, 0, 3, 3));
}

TEST(RoutingMdpBuilder, StartAtGoalYieldsTrivialModel) {
  const Rect chip{0, 0, 9, 9};
  assay::RoutingJob rj;
  rj.start = Rect::from_size(4, 4, 3, 3);
  rj.goal = Rect{3, 3, 7, 7};  // permissive goal containing the start
  rj.hazard = chip;
  const RoutingMdp mdp = build_routing_mdp(rj, full_health_force(10, 10),
                                           chip, no_morph_rules());
  EXPECT_TRUE(mdp.is_goal[mdp.start]);
  EXPECT_TRUE(mdp.choices[mdp.start].empty());
}

TEST(RoutingMdpBuilder, ZeroForceCellsPruneTransitions) {
  const Rect chip{0, 0, 9, 9};
  DoubleMatrix force = full_health_force(10, 10);
  for (int y = 0; y < 10; ++y) force(5, y) = 0.0;  // dead column
  const RoutingMdp blocked = build_routing_mdp(
      corner_to_corner(10, 3), force, chip, no_morph_rules());
  const RoutingMdp open =
      build_routing_mdp(corner_to_corner(10, 3), full_health_force(10, 10),
                        chip, no_morph_rules());
  EXPECT_LT(blocked.stats().transitions, open.stats().transitions);
}

TEST(RoutingMdpBuilder, StatsCountChoicesAndTransitions) {
  const Rect chip{0, 0, 9, 9};
  const RoutingMdp mdp =
      build_routing_mdp(corner_to_corner(10, 4), full_health_force(10, 10),
                        chip, no_morph_rules());
  const ModelStats stats = mdp.stats();
  std::size_t choices = 0, transitions = 0;
  for (const auto& cs : mdp.choices) {
    choices += cs.size();
    for (const Choice& c : cs) transitions += c.transitions.size();
  }
  EXPECT_EQ(stats.choices, choices);
  EXPECT_EQ(stats.transitions, transitions);
  EXPECT_EQ(stats.states, mdp.droplets.size() + 1);
}

TEST(RoutingMdpBuilder, RejectsInvalidJobs) {
  const Rect chip{0, 0, 9, 9};
  const DoubleMatrix force = full_health_force(10, 10);
  assay::RoutingJob rj = corner_to_corner(10, 3);
  rj.start = Rect::none();
  EXPECT_THROW(build_routing_mdp(rj, force, chip, ActionRules{}),
               PreconditionError);
  rj = corner_to_corner(10, 3);
  rj.hazard = Rect{5, 5, 9, 9};  // start outside hazard
  EXPECT_THROW(build_routing_mdp(rj, force, chip, ActionRules{}),
               PreconditionError);
  rj = corner_to_corner(10, 3);
  EXPECT_THROW(
      build_routing_mdp(rj, full_health_force(5, 5), chip, ActionRules{}),
      PreconditionError);
}

}  // namespace
}  // namespace meda::core
