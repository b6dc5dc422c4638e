#pragma once

#include <vector>

#include "assay/mo.hpp"
#include "geometry/rect.hpp"

/// @file helper.hpp
/// The RJ-helper of Section VI-B (Algorithm 1): decomposes each microfluidic
/// operation into single-droplet routing jobs.

namespace meda::assay {

/// A single-droplet routing problem RJ = (δ_s, δ_g, δ_h): route the droplet
/// from its start location to the goal location without ever leaving the
/// hazard bounds.
struct RoutingJob {
  Rect start = Rect::none();  ///< δ_s; Rect::none() when entering the chip
  Rect goal;                  ///< δ_g
  Rect hazard;                ///< δ_h — the area the droplet may move within
  int mo = -1;                ///< owning MO id
  int index = 0;              ///< RJ index within the MO (RJ<mo>.<index>)

  friend bool operator==(const RoutingJob&, const RoutingJob&) = default;
};

/// Hazard bounds ZONE(δ_s, δ_g): the bounding box of start and goal inflated
/// by @p margin MCs on each side (to prevent accidental merging with
/// concurrent droplets) and clamped to @p chip. When @p start is invalid
/// (dispense), only the goal contributes.
Rect zone(const Rect& start, const Rect& goal, const Rect& chip,
          int margin = 3);

/// The droplet pattern of @p area centered at module location @p loc.
Rect placed_rect(const Loc& loc, int area);

/// Output droplet rectangles per MO: outputs[id] lists the droplets MO id
/// leaves on the chip (empty for out/dsc). Requires a validated list.
std::vector<std::vector<Rect>> compute_outputs(const MoList& list);

/// Algorithm 1 — converts MO @p mo_id into its routing jobs, using the
/// predecessor output locations in @p outputs.
///
/// dis      → 1 RJ entering the chip (δ_s = none)
/// out/dsc  → 1 RJ to the exit location
/// mag      → 1 RJ to the sensing location
/// mix      → 2 RJs converging on loc[0]
/// spt      → 2 RJs from the split point to loc[0] and loc[1]
/// dlt      → 4 RJs: the mix phase (2) then the split phase (2)
std::vector<RoutingJob> make_routing_jobs(
    const MoList& list, int mo_id,
    const std::vector<std::vector<Rect>>& outputs, const Rect& chip,
    int margin = 3);

/// Convenience: routing jobs for every MO in order.
std::vector<RoutingJob> make_all_routing_jobs(const MoList& list,
                                              const Rect& chip,
                                              int margin = 3);

}  // namespace meda::assay
