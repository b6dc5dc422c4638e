#include "core/replica_corridors.hpp"

#include <gtest/gtest.h>

namespace meda::core {
namespace {

assay::RoutingJob job(const Rect& start, const Rect& goal,
                      const Rect& hazard) {
  assay::RoutingJob rj;
  rj.start = start;
  rj.goal = goal;
  rj.hazard = hazard;
  return rj;
}

TEST(ReplicaCorridors, SplitsTheZoneIntoDisjointBands) {
  const Rect chip{0, 0, 59, 29};
  assay::RoutingJob rj = job(Rect::from_size(26, 0, 4, 4),
                             Rect::from_size(26, 20, 4, 4),
                             Rect{23, 0, 32, 26});
  const ReplicaCorridorPlan plan = plan_replica_corridors(rj, 2, chip);
  EXPECT_TRUE(plan.disjoint);
  ASSERT_EQ(plan.corridors.size(), 2u);
  const Rect& b0 = plan.corridors[0].band;
  const Rect& b1 = plan.corridors[1].band;
  // Vertical travel: the bands split the zone's width, do not overlap, and
  // each is wide enough for the 4-wide droplet plus one cell of slack.
  EXPECT_FALSE(b0.intersection_with(b1).valid());
  EXPECT_GE(b0.width(), 5);
  EXPECT_GE(b1.width(), 5);
  EXPECT_EQ(b0.width() + b1.width(), rj.hazard.width());
  // Each replica masks exactly its sibling's band.
  ASSERT_EQ(plan.corridors[0].masked.size(), 1u);
  ASSERT_EQ(plan.corridors[1].masked.size(), 1u);
  EXPECT_EQ(plan.corridors[0].masked[0], b1);
  EXPECT_EQ(plan.corridors[1].masked[0], b0);
}

TEST(ReplicaCorridors, FunnelsSpanTheFullZoneAcrossBothEndpoints) {
  const Rect chip{0, 0, 59, 29};
  assay::RoutingJob rj = job(Rect::from_size(26, 0, 4, 4),
                             Rect::from_size(26, 20, 4, 4),
                             Rect{23, 0, 32, 26});
  const ReplicaCorridorPlan plan = plan_replica_corridors(rj, 2, chip);
  ASSERT_TRUE(plan.disjoint);
  // Vertical travel: each funnel is a full-width slab of the zone covering
  // its endpoint plus the margin, so every band connects to both ports.
  EXPECT_EQ(plan.start_funnel, (Rect{23, 0, 32, 5}));
  EXPECT_EQ(plan.goal_funnel, (Rect{23, 18, 32, 25}));
  EXPECT_TRUE(plan.start_funnel.contains(rj.start));
  EXPECT_TRUE(plan.goal_funnel.contains(rj.goal));
}

TEST(ReplicaCorridors, DegradesToBestEffortInAThinZone) {
  // Three replicas need 3 x 5 = 15 cells across a 10-wide zone: the plan
  // degrades to shared unmasked corridors instead of failing.
  const Rect chip{0, 0, 59, 29};
  assay::RoutingJob rj = job(Rect::from_size(26, 0, 4, 4),
                             Rect::from_size(26, 20, 4, 4),
                             Rect{23, 0, 32, 26});
  const ReplicaCorridorPlan plan = plan_replica_corridors(rj, 3, chip);
  EXPECT_FALSE(plan.disjoint);
  ASSERT_EQ(plan.corridors.size(), 3u);
  for (const ReplicaCorridor& corridor : plan.corridors) {
    EXPECT_EQ(corridor.band, rj.hazard.intersection_with(chip));
    EXPECT_TRUE(corridor.masked.empty());
  }
}

TEST(ReplicaCorridors, SingleReplicaOwnsTheWholeZone) {
  const Rect chip{0, 0, 59, 29};
  assay::RoutingJob rj = job(Rect::from_size(26, 0, 4, 4),
                             Rect::from_size(26, 20, 4, 4),
                             Rect{23, 0, 32, 26});
  const ReplicaCorridorPlan plan = plan_replica_corridors(rj, 1, chip);
  EXPECT_FALSE(plan.disjoint);
  ASSERT_EQ(plan.corridors.size(), 1u);
  EXPECT_EQ(plan.corridors[0].band, rj.hazard.intersection_with(chip));
}

}  // namespace
}  // namespace meda::core
