#include "core/routability.hpp"

#include <cmath>

#include "model/outcomes.hpp"
#include "util/check.hpp"

namespace meda::core {
namespace {

/// Edge length of a sampled job's square droplet.
constexpr int kDropletSide = 4;
/// Minimum start→goal Manhattan distance of a sampled job.
constexpr int kMinDistance = 10;

}  // namespace

RoutabilityReport assess_routability(const IntMatrix& health, int health_bits,
                                     int jobs, Rng& rng) {
  MEDA_REQUIRE(jobs > 0, "need at least one job");
  const int width = health.width();
  const int height = health.height();
  constexpr int side = kDropletSide;
  MEDA_REQUIRE(width > side && height > side,
               "chip too small for the droplet");
  const Rect chip{0, 0, width - 1, height - 1};

  const Synthesizer synthesizer(chip, SynthesisConfig{});
  const DoubleMatrix fresh = full_health_force(width, height);

  RoutabilityReport report;
  report.jobs = jobs;
  double cycles_sum = 0.0;
  double stretch_sum = 0.0;

  for (int j = 0; j < jobs; ++j) {
    // Sample a start/goal pair with a minimum separation (re-draw the goal
    // a bounded number of times; fall back to whatever we have).
    const auto sample_corner = [&] {
      return Vec2i{rng.uniform_int(0, width - side),
                   rng.uniform_int(0, height - side)};
    };
    const Vec2i s = sample_corner();
    Vec2i g = sample_corner();
    for (int attempt = 0; attempt < 16 && manhattan(s, g) < kMinDistance;
         ++attempt)
      g = sample_corner();

    assay::RoutingJob rj;
    rj.start = Rect::from_size(s.x, s.y, side, side);
    rj.goal = Rect::from_size(g.x, g.y, side, side);
    rj.hazard = assay::zone(rj.start, rj.goal, chip);

    const SynthesisResult degraded =
        synthesizer.synthesize(rj, health, health_bits);
    if (!degraded.feasible || !std::isfinite(degraded.expected_cycles))
      continue;
    ++report.feasible;
    cycles_sum += degraded.expected_cycles;
    const SynthesisResult baseline =
        synthesizer.synthesize_with_force(rj, fresh);
    if (baseline.expected_cycles > 0.0)
      stretch_sum += degraded.expected_cycles / baseline.expected_cycles;
    else
      stretch_sum += 1.0;  // zero-length job
  }

  report.feasible_fraction =
      static_cast<double>(report.feasible) / report.jobs;
  if (report.feasible > 0) {
    report.mean_expected_cycles = cycles_sum / report.feasible;
    report.mean_stretch = stretch_sum / report.feasible;
  }
  return report;
}

}  // namespace meda::core
