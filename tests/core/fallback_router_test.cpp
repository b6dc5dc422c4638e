#include "core/fallback_router.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <unordered_map>

#include "model/action.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace meda::core {
namespace {

assay::RoutingJob straight_east(int cells, int droplet = 4) {
  assay::RoutingJob rj;
  rj.start = Rect::from_size(0, 4, droplet, droplet);
  rj.goal = Rect::from_size(cells, 4, droplet, droplet);
  rj.hazard = Rect{0, 0, 19, 19};
  return rj;
}

/// Walks the path strategy from rj.start, asserting it reaches the goal
/// within @p limit perfect pulls; returns the number of actions taken.
int walk(const Strategy& strategy, const assay::RoutingJob& rj,
         int limit = 200) {
  Rect pos = rj.start;
  int steps = 0;
  while (!rj.goal.contains(pos)) {
    const auto action = strategy.action(pos);
    if (!action.has_value() || steps >= limit) {
      ADD_FAILURE() << "path strategy dead-ends after " << steps << " steps";
      return steps;
    }
    pos = apply(*action, pos);
    ++steps;
  }
  return steps;
}

TEST(FallbackRouter, FindsTheStraightLineWithDoubleSteps) {
  const Rect chip{0, 0, 19, 19};
  const IntMatrix health(20, 20, 3);
  const assay::RoutingJob rj = straight_east(8);
  const FallbackResult r = fallback_route(rj, health, chip);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.path_length, 4);  // 8 cells east at 2 cells per double step
  EXPECT_EQ(walk(r.strategy, rj), 4);
  EXPECT_GT(r.expansions, 0);
}

TEST(FallbackRouter, RoutesAroundDeadCells) {
  const Rect chip{0, 0, 19, 19};
  IntMatrix health(20, 20, 3);
  // Wall with a 3-row gap at the top — just wide enough for the 3×3 droplet.
  for (int y = 3; y < 20; ++y) health(10, y) = 0;
  assay::RoutingJob rj;
  rj.start = Rect::from_size(2, 8, 3, 3);
  rj.goal = Rect::from_size(15, 8, 3, 3);
  rj.hazard = chip;
  const FallbackResult r = fallback_route(rj, health, chip);
  ASSERT_TRUE(r.feasible);
  // Direct gap is 13; the detour through the northern gap costs more.
  EXPECT_GT(r.path_length, (13 + 1) / 2);
  const int steps = walk(r.strategy, rj);
  EXPECT_EQ(steps, r.path_length);
}

TEST(FallbackRouter, ReportsInfeasibleAcrossAFullWall) {
  const Rect chip{0, 0, 19, 19};
  IntMatrix health(20, 20, 3);
  for (int y = 0; y < 20; ++y)
    for (int x = 10; x <= 11; ++x) health(x, y) = 0;
  assay::RoutingJob rj;
  rj.start = Rect::from_size(2, 8, 3, 3);
  rj.goal = Rect::from_size(15, 8, 3, 3);
  rj.hazard = chip;
  const FallbackResult r = fallback_route(rj, health, chip);
  EXPECT_FALSE(r.feasible);
  EXPECT_TRUE(r.strategy.empty());
}

TEST(FallbackRouter, ExpansionBudgetBoundsTheSearch) {
  // A full-height dead wall cuts the goal off, and the 2×2 droplet has more
  // placements west of it (249 × 99) than the budget allows pops, so the
  // search ends on the budget, not on an exhausted open list.
  const Rect chip{0, 0, 299, 99};
  IntMatrix health(300, 100, 3);
  for (int y = 0; y < 100; ++y) health(250, y) = 0;
  assay::RoutingJob rj;
  rj.start = Rect::from_size(10, 50, 2, 2);
  rj.goal = Rect::from_size(280, 50, 2, 2);
  rj.hazard = chip;
  const FallbackResult r = fallback_route(rj, health, chip);
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.expansions, kMaxFallbackExpansions);
}

TEST(FallbackRouter, IsDeterministic) {
  const Rect chip{0, 0, 19, 19};
  IntMatrix health(20, 20, 3);
  for (int y = 5; y < 15; ++y) health(9, y) = 0;
  const assay::RoutingJob rj = straight_east(12, 3);
  const FallbackResult a = fallback_route(rj, health, chip);
  const FallbackResult b = fallback_route(rj, health, chip);
  ASSERT_TRUE(a.feasible);
  EXPECT_EQ(a.path_length, b.path_length);
  EXPECT_EQ(a.expansions, b.expansions);
  Rect pos = rj.start;
  while (!rj.goal.contains(pos)) {
    const auto action_a = a.strategy.action(pos);
    const auto action_b = b.strategy.action(pos);
    ASSERT_TRUE(action_a.has_value());
    ASSERT_EQ(*action_a, *action_b);
    pos = apply(*action_a, pos);
  }
}

TEST(FallbackRouter, CellsUnderTheDropletAreExemptFromHealthChecks) {
  // The droplet occludes its own cells from sensing; a "dead" reading under
  // the droplet must not strand it in place.
  const Rect chip{0, 0, 19, 19};
  IntMatrix health(20, 20, 3);
  const assay::RoutingJob rj = straight_east(6);
  for (int y = rj.start.ya; y <= rj.start.yb; ++y)
    for (int x = rj.start.xa; x <= rj.start.xb; ++x) health(x, y) = 0;
  const FallbackResult r = fallback_route(rj, health, chip);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(walk(r.strategy, rj), r.path_length);
}

/// Breadth-first search over droplet rectangles, every action one cycle:
/// the fewest actions from rj.start to a rectangle inside rj.goal, or -1
/// when none exists. It shares only the action model (action_enabled,
/// apply) with fallback_route, not its search, heuristic or bookkeeping.
int bfs_path_length(const assay::RoutingJob& rj, const IntMatrix& health,
                    const Rect& chip, const ActionRules& rules) {
  std::unordered_map<Rect, int> dist{{rj.start, 0}};
  std::deque<Rect> queue{rj.start};
  while (!queue.empty()) {
    const Rect cur = queue.front();
    queue.pop_front();
    const int d = dist.at(cur);
    if (rj.goal.contains(cur)) return d;
    for (const Action a : kAllActions) {
      if (!action_enabled(a, cur, rules, chip)) continue;
      const Rect next = apply(a, cur);
      if (!rj.hazard.contains(next) || dist.contains(next)) continue;
      // Newly covered cells must be alive; cells under the droplet are not
      // sensed.
      bool alive = true;
      for (int y = next.ya; y <= next.yb && alive; ++y)
        for (int x = next.xa; x <= next.xb && alive; ++x)
          alive = cur.contains(x, y) || health(x, y) >= 1;
      if (!alive) continue;
      dist.emplace(next, d + 1);
      queue.push_back(next);
    }
  }
  return -1;
}

TEST(FallbackRouter, PathLengthMatchesBreadthFirstSearch) {
  // Random chips with up to 30% dead cells: the A* must agree with plain
  // BFS on feasibility and on the shortest action count, which holds only
  // while its heuristic never overestimates.
  Rng rng(20260518);
  int feasible = 0;
  for (int instance = 0; instance < 400; ++instance) {
    const int w = rng.uniform_int(10, 19);
    const int h = rng.uniform_int(10, 19);
    const Rect chip{0, 0, w - 1, h - 1};
    const double dead = rng.uniform(0.0, 0.3);
    IntMatrix health(w, h, 3);
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x)
        health(x, y) = rng.bernoulli(dead) ? 0 : rng.uniform_int(1, 3);
    const int side = rng.uniform_int(2, 4);
    assay::RoutingJob rj;
    rj.start = Rect::from_size(rng.uniform_int(0, w - side),
                               rng.uniform_int(0, h - side), side, side);
    rj.goal = Rect::from_size(rng.uniform_int(0, w - side - 1),
                              rng.uniform_int(0, h - side - 1), side + 1,
                              side + 1);
    rj.hazard = assay::zone(rj.start, rj.goal, chip, rng.uniform_int(0, 3));
    ActionRules rules;
    rules.enable_morphing = instance % 2 == 0;

    const int expected = bfs_path_length(rj, health, chip, rules);
    const FallbackResult r = fallback_route(rj, health, chip, rules);
    // On chips this small the budget never binds, so the search is exact.
    ASSERT_LT(r.expansions, kMaxFallbackExpansions) << "instance " << instance;
    ASSERT_EQ(r.feasible, expected >= 0) << "instance " << instance;
    if (!r.feasible) continue;
    ++feasible;
    ASSERT_EQ(r.path_length, expected) << "instance " << instance;
    EXPECT_EQ(walk(r.strategy, rj, r.path_length), r.path_length)
        << "instance " << instance;
  }
  // Both outcomes are exercised.
  EXPECT_GT(feasible, 40);
  EXPECT_LT(feasible, 360);
}

TEST(FallbackRouter, RejectsMalformedInputs) {
  const Rect chip{0, 0, 19, 19};
  const IntMatrix health(20, 20, 3);
  assay::RoutingJob off_chip = straight_east(4);
  off_chip.start = Rect::from_size(18, 18, 4, 4);  // hangs off the chip
  EXPECT_THROW(fallback_route(off_chip, health, chip), PreconditionError);
  const IntMatrix small(10, 10, 3);
  EXPECT_THROW(fallback_route(straight_east(4), small, chip),
               PreconditionError);
}

}  // namespace
}  // namespace meda::core
