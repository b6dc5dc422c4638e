#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "chip/microelectrode.hpp"
#include "geometry/rect.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

/// @file biochip.hpp
/// The MEDA biochip substrate: a W×H array of microelectrode cells with
/// degradation tracking and health sensing (Sections III-V). Every mutator
/// costs the cells it touches: an operational cycle charges the cells of its
/// actuated rects, and each touched cell's health code is re-quantized on
/// the spot, so neither the cycle nor a health read walks the chip.

namespace meda {

/// Uniform sampling range for per-MC degradation constants
/// (Section VII-B uses c ~ U(200, 500) and τ ~ U(0.5, 0.9)).
struct DegradationRange {
  double tau_lo = 0.5;
  double tau_hi = 0.9;
  double c_lo = 200.0;
  double c_hi = 500.0;

  /// Samples one (τ, c) pair. Requires 0 ≤ tau_lo ≤ tau_hi ≤ 1 and
  /// 0 < c_lo ≤ c_hi < ∞.
  DegradationParams sample(Rng& rng) const;
};

/// Chip-level configuration.
struct BiochipConfig {
  int width = 60;        ///< W, number of MC columns
  int height = 30;       ///< H, number of MC rows
  int health_bits = 2;   ///< b, health-sensor resolution (paper's design: 2)
  DegradationRange degradation{};  ///< constants for normal MCs
};

/// A MEDA biochip: owns the MC array, applies actuation patterns, and exposes
/// the three matrices of the paper — actuation counts N, true degradation D,
/// and sensed health H.
class Biochip {
 public:
  /// Builds a chip whose MCs get (τ, c) sampled from config.degradation.
  Biochip(const BiochipConfig& config, Rng& rng);

  int width() const { return config_.width; }
  int height() const { return config_.height; }
  int health_bits() const { return config_.health_bits; }
  const BiochipConfig& config() const { return config_; }

  /// The full chip area as a rectangle (0, 0, W-1, H-1).
  Rect bounds() const {
    return Rect{0, 0, config_.width - 1, config_.height - 1};
  }

  bool in_bounds(int x, int y) const {
    return x >= 0 && x < config_.width && y >= 0 && y < config_.height;
  }
  bool in_bounds(const Rect& r) const {
    return r.valid() && bounds().contains(r);
  }

  /// Read-only view of one MC. Every mutation goes through the mutators
  /// below, which keep health_matrix() in step with the cells.
  const Microelectrode& mc(int x, int y) const;

  /// Applies one operational cycle's actuation pattern, the union of
  /// @p cells clipped to the chip: each cell of the union is charged once
  /// (its actuation count increments), however many rects cover it. Counts
  /// one cycle.
  void actuate(std::span<const Rect> cells);

  /// Registers @p n actuations of MC (x, y) at once (accelerated aging,
  /// adversarial wear). Counts toward neither total_actuations() nor
  /// cycles().
  void wear(int x, int y, std::uint64_t n);

  /// Marks MC (x, y) fault-injected: it fails permanently once its
  /// actuation count reaches @p fail_at (at once if it already has).
  void inject_fault(int x, int y, std::uint64_t fail_at);

  /// True degradation matrix D (full-information view; simulator-only).
  DoubleMatrix degradation_matrix() const;

  /// Sensed b-bit health matrix H (what the controller observes). Kept live:
  /// each mutator re-quantizes exactly the cells it touched, so a read walks
  /// no cells, and the reference tracks the chip for the chip's lifetime.
  const IntMatrix& health_matrix() const { return health_; }

  /// Sensed health restricted to @p area (clipped to chip bounds); cells are
  /// addressed by absolute chip coordinates in the returned matrix' frame
  /// starting at the clipped area's lower-left corner.
  IntMatrix health_matrix(const Rect& area) const;

  /// Actuation-count matrix N.
  Matrix<std::uint64_t> actuation_matrix() const;

  /// Total number of MC actuations applied so far (Σ N_ij).
  std::uint64_t total_actuations() const { return total_actuations_; }

  /// Number of operational cycles applied via actuate().
  std::uint64_t cycles() const { return cycles_; }

 private:
  std::size_t index(int x, int y) const {
    return static_cast<std::size_t>(y) *
               static_cast<std::size_t>(config_.width) +
           static_cast<std::size_t>(x);
  }

  /// Re-quantizes the health code of the cell at flat index @p i.
  void requantize(std::size_t i) {
    health_.data()[i] = cells_[i].health(config_.health_bits);
  }

  BiochipConfig config_;
  std::vector<Microelectrode> cells_;
  /// health_(x, y) == quantize_health(mc(x, y).degradation(), bits) at
  /// every cell, at all times.
  IntMatrix health_;
  std::uint64_t total_actuations_ = 0;
  std::uint64_t cycles_ = 0;
};

}  // namespace meda
