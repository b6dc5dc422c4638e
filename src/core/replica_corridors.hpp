#pragma once

#include <vector>

#include "assay/helper.hpp"

/// @file replica_corridors.hpp
/// Region-disjoint corridors for N-modular-redundant routing: the replicas
/// of one replicated dispense split the MO's hazard zone into private bands,
/// so one dead corridor cannot take down every replica (see
/// docs/robustness.md).

namespace meda::core {

/// One replica's private routing corridor: the band it owns plus the
/// sibling bands its synthesis view must clamp dead.
struct ReplicaCorridor {
  Rect band = Rect::none();    ///< this replica's private slice of the zone
  std::vector<Rect> masked;    ///< sibling bands to mask dead (empty when the
                               ///< plan degraded to best-effort disjointness)
};

/// Corridor placement for one N-modular-redundant routing job.
struct ReplicaCorridorPlan {
  /// The bands are pairwise disjoint and each is wide enough to route the
  /// droplet — the masks enforce true region-disjoint replica routes. False
  /// means the plan degraded to best-effort: all replicas share the full
  /// zone and the degradation is the caller's to record.
  bool disjoint = false;
  /// Shared endpoint funnels: full-thickness slabs of the zone across the
  /// start and goal so every replica can reach its band from the dispense
  /// port and converge back on the goal. Disjointness is enforced *outside*
  /// these slabs; sibling-band cells inside a funnel stay unmasked.
  Rect start_funnel = Rect::none();
  Rect goal_funnel = Rect::none();
  std::vector<ReplicaCorridor> corridors;  ///< one per replica, in order
};

/// Places @p replicas pairwise-disjoint corridor bands for @p rj inside its
/// hazard zone: the zone is sliced perpendicular to the dominant travel
/// axis into equal-thickness bands (replica i owns band i), with shared
/// full-thickness funnels, two cells beyond the start and goal along the
/// travel axis, connecting every band to both endpoints. Each band must be
/// at least the droplet's cross-axis dimension plus one cell thick; when
/// the zone cannot fit that (or replicas < 2), the plan degrades to
/// best-effort — not disjoint, with unmasked corridors — rather than
/// failing the job.
ReplicaCorridorPlan plan_replica_corridors(const assay::RoutingJob& rj,
                                           int replicas, const Rect& chip);

}  // namespace meda::core
