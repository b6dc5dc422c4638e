#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "geometry/rect.hpp"

/// @file mo.hpp
/// Microfluidic operations (MOs) and sequencing graphs (Section VI-A,
/// Table III). A bioassay is a list of MOs, each with a type, predecessor
/// references, and a placement (module center location) given with the
/// bioassay (the paper leaves placement to an external planner).

namespace meda::assay {

/// Microfluidic operation types (Table III). (In, Out) droplet counts:
/// dis (0,1) · out/dsc (1,0) · mix (2,1) · spt (1,2) · dlt (2,2) · mag (1,1).
enum class MoType : unsigned char {
  kDispense,  ///< dis — dispense a droplet (enter biochip)
  kOutput,    ///< out — output a droplet (exit biochip)
  kDiscard,   ///< dsc — discard a droplet (exit biochip)
  kMix,       ///< mix — mix two droplets into one
  kSplit,     ///< spt — split a droplet into two
  kDilute,    ///< dlt — dilute a droplet using another (mix then split)
  kMagSense,  ///< mag — magnetic-bead sensing / in-place processing
};

std::string_view to_string(MoType type);

/// Number of input droplets consumed by an MO type.
int input_count(MoType type);

/// Number of output droplets produced by an MO type.
int output_count(MoType type);

/// A fractional module-center location on the chip, e.g. (17.5, 2.5) for a
/// 4×4 droplet spanning cells [16, 19]×[1, 4].
struct Loc {
  double x = 0.0;
  double y = 0.0;
};

/// Reference to one output droplet of a predecessor MO.
struct PreRef {
  int mo = -1;   ///< predecessor MO id
  int out = 0;   ///< which of its output droplets (0 or 1)

  friend bool operator==(const PreRef&, const PreRef&) = default;
};

/// Most replicas one dispense may launch: the ceiling on Mo::replicas and on
/// core::SchedulerConfig::replicate_critical_dispenses.
inline constexpr int kMaxReplicas = 8;

/// One microfluidic operation MO = (type, pre, loc).
struct Mo {
  int id = -1;
  MoType type = MoType::kDispense;
  std::vector<PreRef> pre;  ///< one entry per consumed input droplet
  std::vector<Loc> locs;    ///< 1 center (2 for spt/dlt: the two outputs)
  int area = 16;            ///< dispensed droplet area (kDispense only)
  int hold_cycles = 0;      ///< in-place processing time at the location
  /// Criticality annotation: N-modular redundancy degree (kDispense only).
  /// With replicas = N > 1 an adaptive scheduler launches N droplets of the
  /// same reagent racing through pairwise region-disjoint corridors; the
  /// first arrival completes the MO (k = 1 vote/merge) and the rest are
  /// discarded. Other MO types must keep the default 1. validate() rejects
  /// a value outside [1, kMaxReplicas].
  int replicas = 1;
};

/// A planned bioassay: an MO list in dependency order.
struct MoList {
  std::string name;
  std::vector<Mo> ops;

  const Mo& op(int id) const;
};

/// Droplet actuation-pattern dimensions chosen for a target area: the w×h
/// (w >= h, |w − h| <= 1) pattern minimizing the area error (Section VI-B).
/// Ties prefer the larger pattern (conserving droplet volume).
struct DropletSize {
  int w = 1;
  int h = 1;
  double error = 0.0;  ///< |w·h − area| / area

  int area() const { return w * h; }
};

/// Computes the pattern size for @p area (requires area >= 1). E.g. area 32
/// gives 6×5 with 6.3% error (Table IV).
DropletSize size_for_area(int area);

/// Concatenates two placed bioassays into one MO list that executes both
/// concurrently under a single scheduler (a multi-assay panel on one chip):
/// ids and predecessor references of @p b are shifted past @p a's. The two
/// assays must not place droplets at conflicting locations — validate the
/// result against the chip before running it.
MoList merge_assays(const MoList& a, const MoList& b);

/// Shifts every module location of @p list by (dx, dy) — e.g. to move a
/// panel member into its own chip region before merging.
MoList translate_assay(const MoList& list, double dx, double dy);

/// Validates an MO list against a chip: ids are positional, predecessor
/// references point backwards to existing outputs, each output droplet is
/// consumed at most once, every non-sink output is eventually consumed, loc
/// counts match the type, and all placed droplets fit on @p chip.
/// Throws PreconditionError with a diagnostic on violation.
void validate(const MoList& list, const Rect& chip);

}  // namespace meda::assay
