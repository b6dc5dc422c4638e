#pragma once

#include "core/synthesizer.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

/// @file routability.hpp
/// Chip-health analytics: how routable is a (partially degraded) MEDA
/// biochip? Samples representative routing jobs over the sensed health
/// matrix and synthesizes each one, reporting the feasible fraction and the
/// slowdown relative to a pristine chip. Useful as an end-of-life detector
/// for reused CMOS biochips (Section VII-B motivation): retire the chip
/// when the feasible fraction drops below a threshold, before a bioassay is
/// lost mid-run.

namespace meda::core {

/// Aggregate routability of a health state.
struct RoutabilityReport {
  int jobs = 0;
  int feasible = 0;
  double feasible_fraction = 0.0;
  /// Mean model-checked E[cycles] over feasible jobs.
  double mean_expected_cycles = 0.0;
  /// Mean ratio of E[cycles] to the same job's full-health E[cycles];
  /// 1.0 on a pristine chip, grows as corridors wear out.
  double mean_stretch = 0.0;
};

/// Assesses routability of @p health (b-bit codes) by sampling @p jobs
/// random start/goal pairs of 4×4 droplets, each synthesized with the
/// default SynthesisConfig. Deterministic for a given @p rng state.
RoutabilityReport assess_routability(const IntMatrix& health, int health_bits,
                                     int jobs, Rng& rng);

}  // namespace meda::core
