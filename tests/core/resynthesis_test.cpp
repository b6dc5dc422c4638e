#include "core/synthesizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>

#include "assay/benchmarks.hpp"
#include "core/scheduler.hpp"
#include "sim/simulated_chip.hpp"
#include "util/rng.hpp"

/// Incremental re-synthesis (Synthesizer::resynthesize): a synthesis served
/// by patching the retained model must equal Algorithm 2 from scratch — the
/// patched arrays equal a fresh build's and get the same solve, so strategy
/// and values match exactly while the start keeps its state number — and
/// the ResynthesisContext lifecycle (prime, reuse, topology fallback)
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

TEST(Resynthesize, FuzzedPatchedResolvesEqualFreshSyntheses) {
  // Exact oracle for the patched path on the reference chip: random 25×15
  // hazard boxes, droplets from 2×2 to 4×4, and 2-bit health at codes 1–2
  // only, so no pull reaches probability 0 or 1 and every delta keeps the
  // transition topology. The start stays put, so the patched model numbers
  // its states like a fresh build and each re-synthesis must reproduce
  // synthesize() on the same health bit for bit, under both queries.
  constexpr int kWidth = 60;
  constexpr int kHeight = 30;
  constexpr int kHealthBits = 2;
  const Rect chip{0, 0, kWidth - 1, kHeight - 1};
  // Draws in statement order, so every compiler replays the same lineages.
  const auto rect_in = [](Rng& rng, const Rect& box, int w, int h) {
    const int x = rng.uniform_int(box.xa, box.xb - w + 1);
    const int y = rng.uniform_int(box.ya, box.yb - h + 1);
    return Rect::from_size(x, y, w, h);
  };
  int patched = 0;
  for (const Query query :
       {Query::kRminExpectedCycles, Query::kPmaxReachability}) {
    SynthesisConfig config;
    config.query = query;
    const Synthesizer synth(chip, config);
    for (std::uint64_t seed = 0xace50000u; seed <= 0xace50027u; ++seed) {
      Rng rng(seed);
      assay::RoutingJob rj;
      rj.hazard = rect_in(rng, chip, 25, 15);
      const int w = rng.uniform_int(2, 4);
      const int h = rng.uniform_int(2, 4);
      rj.start = rect_in(rng, rj.hazard, w, h);
      do {
        rj.goal = rect_in(rng, rj.hazard, w, h);
      } while (rj.goal == rj.start);
      IntMatrix health(kWidth, kHeight, 2);
      for (int y = 0; y < kHeight; ++y)
        for (int x = 0; x < kWidth; ++x) health(x, y) = rng.uniform_int(1, 2);

      ResynthesisContext ctx;
      synth.resynthesize(rj, health, kHealthBits, ctx);
      ASSERT_TRUE(ctx.valid) << "seed " << seed;
      for (int step = 0; step < 8; ++step) {
        for (int i = rng.uniform_int(1, 8); i > 0; --i) {
          const Rect cell = rect_in(rng, rj.hazard, 1, 1);
          health(cell.xa, cell.ya) = rng.uniform_int(1, 2);
        }
        const SynthesisResult warm =
            synth.resynthesize(rj, health, kHealthBits, ctx);
        ASSERT_TRUE(warm.warm) << "seed " << seed << " step " << step;
        ++patched;
        const SynthesisResult fresh = synth.synthesize(rj, health, kHealthBits);
        EXPECT_EQ(warm.feasible, fresh.feasible) << "seed " << seed;
        EXPECT_EQ(warm.expected_cycles, fresh.expected_cycles)
            << "seed " << seed << " step " << step;
        EXPECT_EQ(warm.reach_probability, fresh.reach_probability)
            << "seed " << seed << " step " << step;
        EXPECT_EQ(to_map(warm.strategy), to_map(fresh.strategy))
            << "seed " << seed << " step " << step;
      }
    }
  }
  EXPECT_EQ(patched, 2 * 40 * 8);
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
