#pragma once

#include <cstdint>
#include <limits>

#include "chip/degradation.hpp"

/// @file microelectrode.hpp
/// A single microelectrode cell's reliability state.

namespace meda {

/// Reliability state of one microelectrode cell (MC).
///
/// Tracks the actuation count n and evaluates the degradation model of
/// Section IV-B. A "faulty" MC (Section VII-C fault injection) additionally
/// exhibits a sudden, permanent failure — D drops to 0 — once its actuation
/// count reaches a preassigned threshold.
class Microelectrode {
 public:
  Microelectrode() = default;

  /// Healthy MC with the given degradation constants.
  explicit Microelectrode(DegradationParams params) : params_(params) {}

  /// Marks this MC as fault-injected: it fails permanently when the actuation
  /// count reaches @p fail_at_actuations.
  void inject_fault(std::uint64_t fail_at_actuations) {
    fail_at_ = fail_at_actuations;
  }

  /// True if a fault was injected (regardless of whether it has tripped yet).
  bool fault_injected() const {
    return fail_at_ != std::numeric_limits<std::uint64_t>::max();
  }

  /// True once an injected fault has tripped (n >= threshold).
  bool failed() const { return actuations_ >= fail_at_; }

  /// Registers one actuation (one operational cycle with this MC charged).
  void actuate() { ++actuations_; }

  /// Registers @p n actuations at once (used by accelerated-aging setups).
  void actuate_n(std::uint64_t n) { actuations_ += n; }

  std::uint64_t actuations() const { return actuations_; }
  const DegradationParams& params() const { return params_; }

  /// True degradation level D(n); 0 after a sudden failure. Cached per
  /// actuation count — health is sensed every operational cycle, while most
  /// MCs are not actuated most cycles.
  double degradation() const {
    if (failed()) return 0.0;
    if (cached_for_ != actuations_ + 1) {
      cached_degradation_ = params_.degradation(actuations_);
      cached_for_ = actuations_ + 1;  // +1 keeps 0 as the "unset" marker
    }
    return cached_degradation_;
  }

  /// True relative EWOD force F̄(n) = D(n)².
  double relative_force() const {
    const double d = degradation();
    return d * d;
  }

  /// b-bit sensed health code H(n) as produced by the dual-DFF sensor.
  /// Cached like degradation(), keyed on the actuation count, the fault
  /// state and @p bits: a health-matrix read re-quantizes only the MCs that
  /// changed since the last one.
  int health(int bits) const {
    const bool dead = failed();
    if (health_for_ != actuations_ + 1 || health_bits_ != bits ||
        health_dead_ != dead) {
      // quantize_health checks bits in [1, 16], so both casts are exact.
      health_code_ =
          static_cast<std::uint16_t>(quantize_health(degradation(), bits));
      health_for_ = actuations_ + 1;
      health_bits_ = static_cast<std::uint8_t>(bits);
      health_dead_ = dead;
    }
    return health_code_;
  }

 private:
  DegradationParams params_{};
  std::uint64_t actuations_ = 0;
  std::uint64_t fail_at_ = std::numeric_limits<std::uint64_t>::max();
  mutable std::uint64_t cached_for_ = 0;
  mutable double cached_degradation_ = 1.0;
  mutable std::uint64_t health_for_ = 0;  // same "+1, 0 = unset" key
  mutable std::uint16_t health_code_ = 0;
  mutable std::uint8_t health_bits_ = 0;
  mutable bool health_dead_ = false;
};

}  // namespace meda
