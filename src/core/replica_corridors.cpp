#include "core/replica_corridors.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace meda::core {

namespace {

/// Cells the endpoint funnels reach beyond the start and goal along the
/// travel axis.
constexpr int kFunnelMargin = 2;

}  // namespace

ReplicaCorridorPlan plan_replica_corridors(const assay::RoutingJob& rj,
                                           int replicas, const Rect& chip) {
  MEDA_REQUIRE(replicas >= 1, "replica count must be positive");
  MEDA_REQUIRE(rj.start.valid() && rj.goal.valid(),
               "replica corridors need a valid start and goal");
  const Rect zone = rj.hazard.intersection_with(chip);
  MEDA_REQUIRE(zone.valid(), "hazard zone lies off the chip");

  ReplicaCorridorPlan plan;

  // The bands are stacked perpendicular to the dominant travel axis, so
  // each replica crosses the zone inside its own slice.
  const bool horizontal =
      std::abs(rj.goal.center_x() - rj.start.center_x()) >=
      std::abs(rj.goal.center_y() - rj.start.center_y());

  // Full-thickness slabs of the zone across the endpoints: every band stays
  // reachable from the dispense port and can converge back on the goal.
  const auto slab = [&](const Rect& anchor) {
    if (horizontal)
      return Rect{std::max(zone.xa, anchor.xa - kFunnelMargin), zone.ya,
                  std::min(zone.xb, anchor.xb + kFunnelMargin), zone.yb};
    return Rect{zone.xa, std::max(zone.ya, anchor.ya - kFunnelMargin),
                zone.xb, std::min(zone.yb, anchor.yb + kFunnelMargin)};
  };
  plan.start_funnel = slab(rj.start);
  plan.goal_funnel = slab(rj.goal);

  // A band must fit the droplet's cross-axis dimension plus one spare cell
  // of slack, or its masked synthesis is dead on arrival.
  const int cross_extent = horizontal ? zone.height() : zone.width();
  const int cross_need =
      1 + (horizontal ? std::max(rj.start.height(), rj.goal.height())
                      : std::max(rj.start.width(), rj.goal.width()));
  const bool disjoint =
      replicas >= 2 && cross_extent >= replicas * cross_need;

  plan.corridors.resize(static_cast<std::size_t>(replicas));
  if (!disjoint) {
    // Best-effort degradation: every replica owns the whole zone, unmasked.
    for (ReplicaCorridor& corridor : plan.corridors) corridor.band = zone;
    return plan;
  }
  plan.disjoint = true;
  const int base = cross_extent / replicas;
  const int rem = cross_extent % replicas;
  int lo = horizontal ? zone.ya : zone.xa;
  for (int i = 0; i < replicas; ++i) {
    const int hi = lo + base + (i < rem ? 1 : 0) - 1;
    plan.corridors[static_cast<std::size_t>(i)].band =
        horizontal ? Rect{zone.xa, lo, zone.xb, hi}
                   : Rect{lo, zone.ya, hi, zone.yb};
    lo = hi + 1;
  }
  for (int i = 0; i < replicas; ++i)
    for (int j = 0; j < replicas; ++j)
      if (j != i)
        plan.corridors[static_cast<std::size_t>(i)].masked.push_back(
            plan.corridors[static_cast<std::size_t>(j)].band);
  return plan;
}

}  // namespace meda::core
