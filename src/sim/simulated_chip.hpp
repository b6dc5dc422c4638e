#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chip/biochip.hpp"
#include "chip/fault_injection.hpp"
#include "chip/sensor_channel.hpp"
#include "core/biochip_io.hpp"
#include "sim/adversary.hpp"
#include "util/rng.hpp"

/// @file simulated_chip.hpp
/// The MEDA biochip simulator of Section VII (Fig. 14): implements the
/// controller-facing BiochipIo against a Biochip substrate, resolving each
/// commanded action by sampling from the Section V-B outcome distributions
/// evaluated on the *true* degradation matrix D (the incomplete-information
/// side of the SMG — the controller only ever sees the quantized H).
///
/// The droplets live in one table in id order. Ids are issued in increasing
/// order and appended, so the table stays sorted; a step validates its whole
/// command list, then draws each commanded droplet's outcome in id order,
/// so a refused call changes nothing, random stream included.

namespace meda::sim {

/// Simulator configuration.
struct SimulatedChipConfig {
  BiochipConfig chip{};
  FaultInjectionConfig faults{};
  /// Record the per-cycle Boolean actuation matrix (Section III-C study).
  bool record_actuation_trace = false;
  /// Record per-cycle droplet snapshots (positions after each step), for
  /// execution visualization and debugging.
  bool record_droplet_trace = false;
  /// Mid-life chip: every MC starts with U(0, pre_wear_max) prior
  /// actuations (heterogeneous wear from earlier bioassays on the reused
  /// chip). 0 = factory-fresh.
  std::uint64_t pre_wear_max = 0;
  /// Imperfections of the sensing path (Section III-B scan chain): every
  /// sense_health() is read through the scan chain in scan order and
  /// corrupted per this model. Default: a perfect channel (sense_health
  /// returns H).
  SensorNoiseConfig sensor{};
};

/// Simulated MEDA biochip.
class SimulatedChip : public core::BiochipIo {
 public:
  /// Builds the chip, samples per-MC degradation constants, and injects
  /// faults per the configuration.
  SimulatedChip(const SimulatedChipConfig& config, Rng rng);

  // BiochipIo ----------------------------------------------------------
  Rect bounds() const override { return chip_.bounds(); }
  int health_bits() const override { return chip_.health_bits(); }
  IntMatrix sense_health() const override;
  Rect droplet_position(core::DropletId id) const override;
  bool location_clear(const Rect& at) const override;
  core::DropletId dispense(const Rect& at) override;
  void discard(core::DropletId id) override;
  core::DropletId merge(core::DropletId a, core::DropletId b,
                        const Rect& merged) override;
  bool split_clear(core::DropletId id, const Rect& part0,
                   const Rect& part1) const override;
  std::pair<core::DropletId, core::DropletId> split(core::DropletId id,
                                                    const Rect& part0,
                                                    const Rect& part1) override;
  void step(const std::vector<core::Command>& commands) override;
  std::uint64_t cycle() const override { return cycle_; }

  // Simulator-side extras ------------------------------------------------
  /// The underlying substrate (true degradation state; full information).
  Biochip& substrate() { return chip_; }
  const Biochip& substrate() const { return chip_; }

  /// Locations of fault-injected MCs.
  const std::vector<Vec2i>& injected_faults() const { return faults_; }

  /// The sensing path (read statistics: frames dropped, bits flipped, ...).
  const SensorChannel& sensor_channel() const { return sensor_channel_; }

  /// Droplets and their positions, in id order.
  using DropletSnapshot = std::vector<std::pair<core::DropletId, Rect>>;

  /// Droplets currently on the chip, in id order. The table itself: the
  /// reference follows every later change; copy it to keep a frame.
  const DropletSnapshot& droplets() const { return droplets_; }

  /// Per-cycle actuation patterns (only when record_actuation_trace).
  const std::vector<BoolMatrix>& actuation_trace() const { return trace_; }

  /// Per-cycle droplet snapshots (only when record_droplet_trace).
  const std::vector<DropletSnapshot>& droplet_trace() const {
    return droplet_trace_;
  }

  /// Moves blocked this run because they would have brought two droplets
  /// into unintended contact.
  std::uint64_t blocked_moves() const { return blocked_moves_; }

  /// Removes every droplet from the chip (between repeated executions of a
  /// bioassay on the same — persistently degraded — chip).
  void clear_droplets() { droplets_.clear(); }

  /// Installs an explicit degradation-player strategy (SMG player ②); it is
  /// invoked after every operational cycle. Pass nullptr to remove it (the
  /// default: degradation resolves purely through actuation wear + injected
  /// faults).
  void set_adversary(std::unique_ptr<DegradationAdversary> adversary) {
    adversary_ = std::move(adversary);
  }

 private:
  /// True relative EWOD force of MC (x, y): D², or 0 for tripped faults.
  double true_force(int x, int y) const;

  /// True if @p candidate would overlap or touch (gap < 2) a droplet other
  /// than @p skip0 and @p skip1 (the droplets it replaces).
  bool placement_blocked(const Rect& candidate, core::DropletId skip0 = -1,
                         core::DropletId skip1 = -1) const;

  /// Appends a droplet under the next id and returns that id.
  core::DropletId add(const Rect& at);

  SimulatedChipConfig config_;
  Biochip chip_;
  Rng rng_;
  // Sensing path state (mutable: sense_health() is observationally const to
  // the controller but advances the channel's noise process).
  mutable SensorChannel sensor_channel_;
  mutable Rng sensor_rng_{0};
  std::vector<Vec2i> faults_;
  DropletSnapshot droplets_;  ///< in id order
  core::DropletId next_id_ = 0;
  std::uint64_t cycle_ = 0;
  std::uint64_t blocked_moves_ = 0;
  std::vector<BoolMatrix> trace_;
  std::vector<DropletSnapshot> droplet_trace_;
  std::unique_ptr<DegradationAdversary> adversary_;
};

/// Renders one droplet snapshot as an ASCII frame of the chip: droplets are
/// drawn with letters (by id), dead MCs (health 0) as '#', worn MCs
/// (health 1) as '.', healthy MCs as ' '.
std::string render_frame(const SimulatedChip& chip,
                         const SimulatedChip::DropletSnapshot& snapshot);

}  // namespace meda::sim
