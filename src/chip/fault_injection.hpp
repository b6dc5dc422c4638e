#pragma once

#include <cstdint>
#include <vector>

#include "chip/biochip.hpp"
#include "geometry/point.hpp"
#include "util/rng.hpp"

/// @file fault_injection.hpp
/// Fault-injection modes of Section VII-C: a configurable fraction of MCs is
/// designated "faulty"; a faulty MC follows the normal degradation model but
/// additionally suffers a sudden permanent failure (D = 0) at a random
/// actuation count. Faulty MCs are placed either uniformly at random or as
/// randomly placed 2×2 clusters (degradation correlates spatially, Fig. 3).

namespace meda {

/// Spatial placement of fault-injected MCs.
enum class FaultMode : unsigned char {
  kNone,      ///< no injected faults
  kUniform,   ///< faulty MCs i.i.d. uniform over the array
  kClustered, ///< faulty MCs appear as 2×2 clusters
};

/// Fault-injection configuration.
struct FaultInjectionConfig {
  FaultMode mode = FaultMode::kNone;
  double faulty_fraction = 0.05;   ///< fraction of MCs made faulty
  std::uint64_t fail_at_lo = 50;   ///< sudden-failure threshold, lower bound
  std::uint64_t fail_at_hi = 400;  ///< sudden-failure threshold, upper bound
};

/// Marks MCs of @p chip as faulty according to @p config and returns the
/// coordinates that were injected. Clusters may overlap (they are placed
/// independently); every injected MC gets an independent failure threshold
/// drawn from U(fail_at_lo, fail_at_hi).
std::vector<Vec2i> inject_faults(Biochip& chip,
                                 const FaultInjectionConfig& config, Rng& rng);

}  // namespace meda
