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
  /// actuation count — the simulator reads the true force around every
  /// droplet on every step, while most MCs are not actuated most cycles.
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
  /// Biochip keeps every cell's code in its live health matrix, so this is
  /// only evaluated when a cell changes.
  int health(int bits) const { return quantize_health(degradation(), bits); }

 private:
  DegradationParams params_{};
  std::uint64_t actuations_ = 0;
  std::uint64_t fail_at_ = std::numeric_limits<std::uint64_t>::max();
  mutable std::uint64_t cached_for_ = 0;
  mutable double cached_degradation_ = 1.0;
};

}  // namespace meda
