// Quickstart: synthesize an adaptive droplet-routing strategy on a partially
// degraded MEDA biochip and execute it on the simulator.
//
// The chip has a heavily degraded vertical band in the middle. The
// degradation-unaware baseline routes straight through the band (its
// full-health model sees nothing wrong); the adaptive synthesizer reads the
// sensed 2-bit health matrix and routes around it.

#include <iostream>

#include "assay/helper.hpp"
#include "core/scheduler.hpp"
#include "core/strategy_render.hpp"
#include "core/synthesizer.hpp"
#include "model/outcomes.hpp"
#include "sim/simulated_chip.hpp"
#include "util/table.hpp"

using namespace meda;

namespace {

/// Pre-ages a band of MCs by actuating them heavily.
void age_band(Biochip& chip, const Rect& band, std::uint64_t actuations) {
  for (int y = band.ya; y <= band.yb; ++y)
    for (int x = band.xa; x <= band.xb; ++x)
      chip.wear(x, y, actuations);
}

/// Executes a single routing job with the given strategy; returns cycles.
std::uint64_t execute(sim::SimulatedChip& chip, core::DropletId droplet,
                      const assay::RoutingJob& rj,
                      const core::Strategy& strategy,
                      std::uint64_t max_cycles) {
  std::uint64_t cycles = 0;
  while (cycles < max_cycles) {
    const Rect pos = chip.droplet_position(droplet);
    if (rj.goal.contains(pos)) return cycles;
    const auto action = strategy.action(pos);
    if (!action) break;  // drifted off the synthesized region
    chip.step({core::Command{droplet, *action, -1}});
    ++cycles;
  }
  return max_cycles;
}

}  // namespace

int main() {
  // 1. A 60×30 MEDA biochip with the paper's degradation parameters.
  sim::SimulatedChipConfig config;
  config.chip.width = 60;
  config.chip.height = 30;
  config.chip.health_bits = 2;
  sim::SimulatedChip chip(config, Rng(7));

  // 2. Wear out a vertical band between the droplet and its goal, leaving a
  //    healthy corridor along the chip's southern rows.
  age_band(chip.substrate(), Rect{28, 13, 31, 29}, 3000);

  // 3. A routing job: move a 4×4 droplet across the chip.
  assay::RoutingJob rj;
  rj.start = Rect::from_size(4, 12, 4, 4);
  rj.goal = Rect::from_size(50, 12, 4, 4);
  rj.hazard = assay::zone(rj.start, rj.goal, chip.bounds(), 3);

  // 4. Synthesize: adaptive (from the sensed health matrix H) vs the
  //    degradation-unaware baseline (full-health force model).
  core::Synthesizer synthesizer(chip.bounds());
  const core::SynthesisResult adaptive =
      synthesizer.synthesize(rj, chip.sense_health(), chip.health_bits());
  const core::SynthesisResult baseline = synthesizer.synthesize_with_force(
      rj, full_health_force(60, 30));

  Table table({"strategy", "states", "choices", "expected cycles"});
  table.add_row({"adaptive", fmt_int(static_cast<long long>(
                                 adaptive.stats.states)),
                 fmt_int(static_cast<long long>(adaptive.stats.choices)),
                 fmt_double(adaptive.expected_cycles, 1)});
  table.add_row({"baseline", fmt_int(static_cast<long long>(
                                 baseline.stats.states)),
                 fmt_int(static_cast<long long>(baseline.stats.choices)),
                 fmt_double(baseline.expected_cycles, 1)});
  table.print(std::cout);

  // The adaptive strategy as a vector field (droplet anchors; the worn
  // band shows up as the southbound detour; '*' marks the goal).
  std::cout << "\nAdaptive strategy field:\n"
            << core::render_strategy_field(adaptive.strategy, rj, 4, 4);

  // 5. Execute both strategies on the simulator (same chip state).
  const core::DropletId d1 = chip.dispense(Rect::from_size(0, 12, 4, 4));
  // Walk it to the start location first (the dispense port is at the edge).
  core::Strategy walk;  // trivial eastward walk
  for (int x = 0; x < rj.start.xa; ++x)
    walk.set(Rect::from_size(x, 12, 4, 4), Action::kE);
  assay::RoutingJob to_start = rj;
  to_start.goal = rj.start;
  execute(chip, d1, to_start, walk, 100);

  const std::uint64_t adaptive_cycles =
      execute(chip, d1, rj, adaptive.strategy, 2000);
  std::cout << "\nAdaptive execution reached the goal in " << adaptive_cycles
            << " cycles (expected ≈ " << fmt_double(adaptive.expected_cycles, 1)
            << ").\n";
  std::cout << "Baseline expected cycles (degradation-blind model): "
            << fmt_double(baseline.expected_cycles, 1)
            << " — it routes straight through the degraded band and stalls "
               "there in reality.\n";
  return 0;
}
