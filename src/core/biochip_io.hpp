#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "geometry/rect.hpp"
#include "model/action.hpp"
#include "util/matrix.hpp"

/// @file biochip_io.hpp
/// The controller's view of a MEDA biochip (the cyber-physical boundary of
/// Fig. 13/14). The scheduler observes droplet locations (capacitive droplet
/// sensing) and the b-bit health matrix (the proposed dual-DFF sensor), and
/// commands per-droplet microfluidic actions; the chip — real hardware or
/// the simulator of Section VII — resolves the probabilistic outcomes.

namespace meda::core {

/// Opaque droplet handle issued by the chip.
using DropletId = int;

/// One per-droplet command for an operational cycle.
struct Command {
  DropletId droplet = -1;
  /// Action to actuate; nullopt holds the droplet in place (its current
  /// pattern stays actuated — free-roaming is not allowed).
  std::optional<Action> action;
  /// Droplet this one is allowed to touch this cycle (mix partner); the chip
  /// blocks any other contact between distinct droplets. A moving command's
  /// partner is -1 or another droplet on the chip; a hold's is ignored.
  DropletId merge_partner = -1;
};

/// Abstract MEDA biochip as seen by the routing controller.
class BiochipIo {
 public:
  virtual ~BiochipIo() = default;

  /// MC-array extent as a rectangle (0, 0, W−1, H−1).
  virtual Rect bounds() const = 0;

  /// Health-sensor resolution b.
  virtual int health_bits() const = 0;

  /// Scans out the current b-bit health matrix H (one operational-cycle
  /// sensing result; does not consume a cycle — sensing is part of every
  /// cycle on MEDA).
  virtual IntMatrix sense_health() const = 0;

  /// Current droplet location from droplet sensing.
  virtual Rect droplet_position(DropletId id) const = 0;

  /// True if @p at can hold a droplet right now (on-chip and at least one
  /// free cell away from every on-chip droplet).
  virtual bool location_clear(const Rect& at) const = 0;

  /// Dispenses a new droplet occupying @p at (must touch a chip edge and be
  /// clear per location_clear).
  virtual DropletId dispense(const Rect& at) = 0;

  /// Moves a droplet off the chip (output/discard through an edge).
  virtual void discard(DropletId id) = 0;

  /// Merges two adjacent droplets into one occupying @p merged, which must
  /// overlap or adjoin one of them.
  virtual DropletId merge(DropletId a, DropletId b, const Rect& merged) = 0;

  /// True if @p id could split into @p part0 / @p part1 right now: both
  /// parts on-chip, disjoint, and clear of every other droplet.
  virtual bool split_clear(DropletId id, const Rect& part0,
                           const Rect& part1) const = 0;

  /// Splits a droplet into two parts occupying @p part0 and @p part1
  /// (requires split_clear).
  virtual std::pair<DropletId, DropletId> split(DropletId id,
                                                const Rect& part0,
                                                const Rect& part1) = 0;

  /// Executes one operational cycle: shifts in the actuation pattern implied
  /// by @p commands (commanded droplets actuate their action's target
  /// pattern, all other droplets are held), actuates, senses. Outcomes are
  /// resolved by the chip.
  virtual void step(const std::vector<Command>& commands) = 0;

  /// Number of operational cycles executed so far.
  virtual std::uint64_t cycle() const = 0;
};

}  // namespace meda::core
