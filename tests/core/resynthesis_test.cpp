#include "core/synthesizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "assay/benchmarks.hpp"
#include "core/scheduler.hpp"
#include "sim/simulated_chip.hpp"
#include "util/rng.hpp"

/// Incremental re-synthesis (Synthesizer::resynthesize): the warm path must
/// be observationally identical to Algorithm 2 from scratch — same strategy,
/// same values within solver tolerance — while the ResynthesisContext
/// lifecycle (prime, reuse, topology fallback, deadline invalidation)
/// behaves as documented. The scheduler-level test pins the
/// resyntheses_warm counter end to end.

namespace meda::core {
namespace {

constexpr int kGrid = 12;
constexpr int kBits = 3;

Rect chip() { return Rect{0, 0, kGrid - 1, kGrid - 1}; }

IntMatrix uniform_health(int level) {
  return IntMatrix(kGrid, kGrid, level);
}

assay::RoutingJob fixture_job() {
  assay::RoutingJob rj;
  rj.start = Rect::from_size(0, 4, 4, 4);
  rj.goal = Rect::from_size(8, 4, 4, 4);
  rj.hazard = chip();
  return rj;
}

std::map<Rect, Action> to_map(const Strategy& strategy) {
  return {strategy.begin(), strategy.end()};
}

void expect_same_result(const SynthesisResult& a, const SynthesisResult& b,
                        const char* label) {
  EXPECT_EQ(a.feasible, b.feasible) << label;
  EXPECT_EQ(to_map(a.strategy), to_map(b.strategy)) << label;
  if (std::isinf(a.expected_cycles) || std::isinf(b.expected_cycles)) {
    EXPECT_EQ(std::isinf(a.expected_cycles), std::isinf(b.expected_cycles))
        << label;
  } else {
    EXPECT_NEAR(a.expected_cycles, b.expected_cycles, 1e-6) << label;
  }
  EXPECT_NEAR(a.reach_probability, b.reach_probability, 1e-9) << label;
}

TEST(Resynthesize, ColdPrimeMatchesSynthesize) {
  const Synthesizer synth(chip());
  const IntMatrix health = uniform_health(5);
  ResynthesisContext ctx;
  const SynthesisResult incremental =
      synth.resynthesize(fixture_job(), health, kBits, ctx);
  const SynthesisResult reference =
      synth.synthesize(fixture_job(), health, kBits);
  expect_same_result(incremental, reference, "cold prime");
  EXPECT_FALSE(incremental.warm);
  EXPECT_TRUE(ctx.valid);
  EXPECT_EQ(ctx.anchor, fixture_job());
  EXPECT_EQ(ctx.health, health);
}

TEST(Resynthesize, WarmDeltaMatchesColdSynthesis) {
  const Synthesizer synth(chip());
  IntMatrix health = uniform_health(5);
  ResynthesisContext ctx;
  synth.resynthesize(fixture_job(), health, kBits, ctx);
  ASSERT_TRUE(ctx.valid);

  Rng rng(0x12e50001u);
  for (int step = 0; step < 6; ++step) {
    for (int i = rng.uniform_int(1, 4); i > 0; --i)
      health(rng.uniform_int(0, kGrid - 1), rng.uniform_int(0, kGrid - 1)) =
          rng.uniform_int(1, (1 << kBits) - 2);
    const SynthesisResult warm =
        synth.resynthesize(fixture_job(), health, kBits, ctx);
    EXPECT_TRUE(warm.warm) << "step " << step;
    EXPECT_TRUE(ctx.valid);
    const SynthesisResult cold =
        synth.synthesize(fixture_job(), health, kBits);
    expect_same_result(warm, cold, "warm delta");
  }
}

TEST(Resynthesize, WarmStatsCountTheSelfLoopsAPatchAdds) {
  // Regression: a warm result reported the transition count of the
  // retained model's cold build. Cardinal moves on a fresh 2-bit chip have
  // no failure branch; wearing one frontier cell from code 3 to 2 adds
  // self-loop branches without changing the off-state topology, so the
  // patch succeeds and its stats must equal a cold synthesis.
  SynthesisConfig config;
  config.rules.enable_double_steps = false;
  config.rules.enable_ordinal = false;
  config.rules.enable_morphing = false;
  const Synthesizer synth(chip(), config);
  IntMatrix health(kGrid, kGrid, 3);
  ResynthesisContext ctx;
  synth.resynthesize(fixture_job(), health, 2, ctx);
  ASSERT_TRUE(ctx.valid);
  health(4, 5) = 2;  // on the start droplet's east frontier
  const SynthesisResult warm =
      synth.resynthesize(fixture_job(), health, 2, ctx);
  ASSERT_TRUE(warm.warm);
  const SynthesisResult cold = synth.synthesize(fixture_job(), health, 2);
  EXPECT_EQ(warm.stats.states, cold.stats.states);
  EXPECT_EQ(warm.stats.transitions, cold.stats.transitions);
  EXPECT_EQ(warm.stats.choices, cold.stats.choices);
  expect_same_result(warm, cold, "self-loop delta");
}

TEST(Resynthesize, ReanchoredStartStaysWarm) {
  const Synthesizer synth(chip());
  IntMatrix health = uniform_health(5);
  ResynthesisContext ctx;
  synth.resynthesize(fixture_job(), health, kBits, ctx);

  // The droplet advanced one cell east; the new start is a state the
  // retained model already explored, so the lineage keeps its warm path.
  assay::RoutingJob moved = fixture_job();
  moved.start = moved.start.shifted(1, 0);
  health(5, 5) = 3;
  const SynthesisResult warm = synth.resynthesize(moved, health, kBits, ctx);
  EXPECT_TRUE(warm.warm);
  expect_same_result(warm, synth.synthesize(moved, health, kBits),
                     "re-anchored");
}

TEST(Resynthesize, GoalChangeGoesCold) {
  const Synthesizer synth(chip());
  const IntMatrix health = uniform_health(5);
  ResynthesisContext ctx;
  synth.resynthesize(fixture_job(), health, kBits, ctx);

  assay::RoutingJob other = fixture_job();
  other.goal = Rect::from_size(4, 8, 4, 4);
  const SynthesisResult result =
      synth.resynthesize(other, health, kBits, ctx);
  EXPECT_FALSE(result.warm);
  EXPECT_TRUE(ctx.valid);  // re-primed for the new goal
  EXPECT_EQ(ctx.anchor, other);
}

TEST(Resynthesize, TopologyChangeGoesColdAndReprimes) {
  const Synthesizer synth(chip());
  IntMatrix health = uniform_health(5);
  ResynthesisContext ctx;
  synth.resynthesize(fixture_job(), health, kBits, ctx);

  // A dead wall kills whole frontiers: the delta is not expressible as an
  // in-place patch, so this synthesis must rebuild cold…
  for (int y = 0; y < kGrid; ++y) health(7, y) = 0;
  const SynthesisResult cold =
      synth.resynthesize(fixture_job(), health, kBits, ctx);
  EXPECT_FALSE(cold.warm);
  expect_same_result(cold, synth.synthesize(fixture_job(), health, kBits),
                     "topology cold");
  // …and re-prime the context: the next small delta goes warm again.
  ASSERT_TRUE(ctx.valid);
  health(2, 2) = 3;
  const SynthesisResult warm =
      synth.resynthesize(fixture_job(), health, kBits, ctx);
  EXPECT_TRUE(warm.warm);
  expect_same_result(warm, synth.synthesize(fixture_job(), health, kBits),
                     "re-primed");
}

TEST(Resynthesize, DeadlineExpiryInvalidatesTheContext) {
  // Prime with an unbounded synthesizer, then re-synthesize under a 1-sweep
  // budget: the warm attempt patches the retained model before the solver
  // gives up, so the context must be discarded wholesale.
  SynthesisConfig slow;
  const Synthesizer primer(chip(), slow);
  IntMatrix health = uniform_health(5);
  ResynthesisContext ctx;
  primer.resynthesize(fixture_job(), health, kBits, ctx);
  ASSERT_TRUE(ctx.valid);

  SynthesisConfig strict;
  strict.deadline_sweeps = 1;
  const Synthesizer bounded(chip(), strict);
  health(5, 5) = 2;
  const SynthesisResult result =
      bounded.resynthesize(fixture_job(), health, kBits, ctx);
  EXPECT_TRUE(result.deadline_expired);
  EXPECT_FALSE(result.feasible);
  EXPECT_FALSE(ctx.valid);
}

TEST(Resynthesize, IncrementalDisabledBypassesTheContext) {
  SynthesisConfig config;
  config.incremental = false;
  const Synthesizer synth(chip(), config);
  const IntMatrix health = uniform_health(5);
  ResynthesisContext ctx;
  const SynthesisResult result =
      synth.resynthesize(fixture_job(), health, kBits, ctx);
  EXPECT_FALSE(result.warm);
  EXPECT_FALSE(ctx.valid);  // never touched
  expect_same_result(result, synth.synthesize(fixture_job(), health, kBits),
                     "disabled");
}

TEST(Scheduler, CountsWarmResynthesesOnADegradingChip) {
  sim::SimulatedChipConfig config;
  config.chip.width = assay::kChipWidth;
  config.chip.height = assay::kChipHeight;
  config.chip.degradation = DegradationRange{0.5, 0.9, 60.0, 150.0};
  config.pre_wear_max = 150;
  config.faults.mode = FaultMode::kClustered;
  config.faults.faulty_fraction = 0.10;
  config.faults.fail_at_lo = 5;
  config.faults.fail_at_hi = 60;
  sim::SimulatedChip chip(config, Rng(4242));
  SchedulerConfig sched;
  sched.adaptive = true;
  sched.max_cycles = 3000;
  Scheduler scheduler(sched);
  const ExecutionStats stats = scheduler.run(chip, assay::cep());
  EXPECT_TRUE(stats.success) << stats.failure_reason;
  EXPECT_GT(stats.resyntheses, 0);
  // Health keeps drifting along each route, so at least part of the
  // re-syntheses ride the incremental warm path.
  EXPECT_GT(stats.resyntheses_warm, 0);
  // Warm solves happen only where a synthesis actually ran.
  EXPECT_LE(stats.resyntheses_warm, stats.synthesis_calls);
}

}  // namespace
}  // namespace meda::core
