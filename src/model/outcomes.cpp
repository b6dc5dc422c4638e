#include "model/outcomes.hpp"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/check.hpp"

namespace meda {

double mean_frontier_force(const ForceFn& force, const Rect& fr) {
  MEDA_REQUIRE(fr.valid(), "mean force over an empty frontier");
  return detail::frontier_mean(fr, [&force](int x, int y) {
    return std::clamp(force(x, y), 0.0, 1.0);
  });
}

double mean_frontier_force(const DoubleMatrix& force, const Rect& fr) {
  MEDA_REQUIRE(fr.valid(), "mean force over an empty frontier");
  MEDA_REQUIRE(fr.xa >= 0 && fr.ya >= 0 && fr.xb < force.width() &&
                   fr.yb < force.height(),
               "frontier outside the force matrix");
  return detail::frontier_mean(fr, [&force](int x, int y) {
    return std::clamp(force(x, y), 0.0, 1.0);
  });
}

ClampedForce::ClampedForce(const DoubleMatrix& force) : clamped_(force) {
  for (double& f : clamped_.data()) f = std::clamp(f, 0.0, 1.0);
}

std::vector<Outcome> action_outcomes(const Rect& droplet, Action a,
                                     const DoubleMatrix& force) {
  const OutcomeSet set = outcome_set(droplet, a, MatrixForce{force});
  return {set.begin(), set.end()};
}

std::vector<Outcome> action_outcomes(const Rect& droplet, Action a,
                                     const ForceFn& force) {
  const OutcomeSet set = outcome_set(droplet, a, [&force](const Rect& fr) {
    return mean_frontier_force(force, fr);
  });
  return {set.begin(), set.end()};
}

DoubleMatrix force_from_degradation(const DoubleMatrix& degradation) {
  DoubleMatrix f(degradation.width(), degradation.height());
  for (int y = 0; y < f.height(); ++y) {
    for (int x = 0; x < f.width(); ++x) {
      const double d = std::clamp(degradation(x, y), 0.0, 1.0);
      f(x, y) = d * d;  // F̄ = (V/V_a)² = D²
    }
  }
  return f;
}

DoubleMatrix force_from_health(const IntMatrix& health, int bits,
                               HealthEstimator estimator) {
  MEDA_REQUIRE(bits >= 1 && bits <= 16, "health bits out of range");
  const auto force = [&](int code) {
    const double d = estimate_degradation(code, bits, estimator);
    return d * d;
  };
  DoubleMatrix f(health.width(), health.height());
  const std::vector<int>& codes = health.data();
  std::vector<double>& forces = f.data();
  const int levels = 1 << bits;
  // A per-code table pays only while there are no more codes than cells;
  // past that, one estimate per cell is less work.
  if (static_cast<std::size_t>(levels) > codes.size()) {
    for (std::size_t i = 0; i < codes.size(); ++i) forces[i] = force(codes[i]);
    return f;
  }
  std::vector<double> force_of(static_cast<std::size_t>(levels));
  for (int code = 0; code < levels; ++code)
    force_of[static_cast<std::size_t>(code)] = force(code);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    const int code = codes[i];
    // estimate_degradation's message, as the per-cell path raises it.
    MEDA_REQUIRE(code >= 0 && code < levels, "health code out of range");
    forces[i] = force_of[static_cast<std::size_t>(code)];
  }
  return f;
}

DoubleMatrix full_health_force(int width, int height) {
  return DoubleMatrix(width, height, 1.0);
}

}  // namespace meda
