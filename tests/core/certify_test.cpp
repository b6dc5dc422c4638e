#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "assay/benchmarks.hpp"
#include "core/compiled_mdp.hpp"
#include "core/mdp.hpp"
#include "core/scheduler.hpp"
#include "core/synthesizer.hpp"
#include "model/action_table.hpp"
#include "model/outcomes.hpp"
#include "obs/obs.hpp"
#include "policy_evaluation.hpp"
#include "sim/simulated_chip.hpp"
#include "util/rng.hpp"

/// Certify before re-solving (Synthesizer::certify): every accepted skip is
/// checked against oracles that share no code with the certificate. A fresh
/// synthesize() on the same health must choose the skip's action at every
/// state the skip covers, and the skip's expected_cycles must be the exact
/// cost of its strategy, solved by dense elimination on the explicit model
/// (policy_evaluation.hpp). The lineages wear cells, kill some and raise
/// others' codes, open-loop and on a simulated chip.

namespace meda::core {
namespace {

/// Checks the certified @p skip of @p rj under @p health against the two
/// oracles; returns the number of covered states where a fresh synthesis
/// chooses another action.
int check_skip(const Synthesizer& synth, const assay::RoutingJob& rj,
               const IntMatrix& health, int bits,
               const SynthesisResult& skip) {
  EXPECT_TRUE(skip.certified && skip.feasible);
  const SynthesisResult fresh = synth.synthesize(rj, health, bits);
  const SynthesisConfig& config = synth.config();
  const RoutingMdp mdp = build_routing_mdp(
      rj, force_from_health(health, bits, config.estimator),
      synth.chip_bounds(), config.rules, config.wear_penalty_lambda);

  // The skip's strategy as a policy on the explicit model: its action where
  // it has one, goals at 0, every other state outside the system.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<int> chosen(mdp.droplets.size(), -1);
  std::vector<double> in_system(mdp.state_count(), kInf);
  std::size_t covered = 0;
  int disagreements = 0;
  for (std::size_t s = 0; s < mdp.droplets.size(); ++s) {
    if (mdp.is_goal[s]) {
      in_system[s] = 0.0;
      continue;
    }
    const std::optional<Action> a = skip.strategy.action(mdp.droplets[s]);
    if (!a) continue;
    ++covered;
    if (fresh.strategy.action(mdp.droplets[s]) != a) ++disagreements;
    in_system[s] = 0.0;
    for (std::size_t c = 0; c < mdp.choices[s].size(); ++c)
      if (mdp.choices[s][c].action == *a) chosen[s] = static_cast<int>(c);
  }
  // Every state the skip covers is a state of the fresh model.
  EXPECT_EQ(covered, skip.strategy.size());
  const std::vector<double> cost =
      reference::exact_policy_cost(mdp, chosen, in_system);
  EXPECT_NEAR(skip.expected_cycles, cost[mdp.start], 1e-9);
  EXPECT_NEAR(skip.expected_cycles, fresh.expected_cycles,
              1e-6 * std::max(1.0, fresh.expected_cycles));
  return disagreements;
}

/// Records the metrics for one test and leaves the registry as found.
class RecordedMetrics {
 public:
  RecordedMetrics() {
    obs::ctx().metrics().clear();
    obs::ctx().metrics().enable();
  }
  ~RecordedMetrics() {
    obs::ctx().metrics().disable();
    obs::ctx().metrics().clear();
  }
};

TEST(Certify, FuzzedSkipsMatchFreshSyntheses) {
  // The lineages of Resynthesize.FuzzedPatchedResolvesEqualFreshSyntheses
  // (random 25×15 hazard boxes on the reference chip, droplets from 2×2 to
  // 4×4), but with 2-bit health at codes 1–3 that wears a code per step,
  // down to dead cells, and now and then rises a code, as a sensed code can.
  // Each step certifies first and re-solves only when refused.
  constexpr int kWidth = 60;
  constexpr int kHeight = 30;
  constexpr int kHealthBits = 2;
  constexpr int kFullCode = (1 << kHealthBits) - 1;
  const Rect chip{0, 0, kWidth - 1, kHeight - 1};
  // Draws in statement order, so every compiler replays the same lineages.
  const auto rect_in = [](Rng& rng, const Rect& box, int w, int h) {
    const int x = rng.uniform_int(box.xa, box.xb - w + 1);
    const int y = rng.uniform_int(box.ya, box.yb - h + 1);
    return Rect::from_size(x, y, w, h);
  };
  const RecordedMetrics metrics;
  int attempts = 0;
  int skips = 0;
  int disagreements = 0;
  const Synthesizer synth(chip);
  for (std::uint64_t seed = 0xce4f0000u; seed <= 0xce4f0027u; ++seed) {
    Rng rng(seed);
    assay::RoutingJob rj;
    rj.hazard = rect_in(rng, chip, 25, 15);
    const int w = rng.uniform_int(2, 4);
    const int h = rng.uniform_int(2, 4);
    rj.start = rect_in(rng, rj.hazard, w, h);
    do {
      rj.goal = rect_in(rng, rj.hazard, w, h);
    } while (rj.goal == rj.start);
    IntMatrix health(kWidth, kHeight, kFullCode);
    for (int y = 0; y < kHeight; ++y)
      for (int x = 0; x < kWidth; ++x)
        health(x, y) = rng.uniform_int(1, kFullCode);

    ResynthesisContext ctx;
    synth.resynthesize(rj, health, kHealthBits, ctx);
    ASSERT_TRUE(ctx.valid) << "seed " << seed;
    for (int step = 0; step < 8; ++step) {
      for (int i = rng.uniform_int(1, 6); i > 0; --i) {
        const Rect cell = rect_in(rng, rj.hazard, 1, 1);
        health(cell.xa, cell.ya) = std::max(0, health(cell.xa, cell.ya) - 1);
      }
      if (rng.bernoulli(0.3)) {
        const Rect cell = rect_in(rng, rj.hazard, 1, 1);
        health(cell.xa, cell.ya) =
            std::min(kFullCode, health(cell.xa, cell.ya) + 1);
      }
      attempts += ctx.certifiable ? 1 : 0;
      const SynthesisResult skip =
          synth.certify(rj, health, kHealthBits, ctx);
      if (skip.certified) {
        ++skips;
        disagreements += check_skip(synth, rj, health, kHealthBits, skip);
        EXPECT_TRUE(skip.strategy.action(rj.start).has_value());
      } else {
        EXPECT_TRUE(skip.strategy.empty());
        synth.resynthesize(rj, health, kHealthBits, ctx);
      }
    }
  }
  EXPECT_EQ(disagreements, 0);
  EXPECT_GE(skips, 50) << skips << " skips of " << attempts;
#ifndef MEDA_OBS_DISABLED
  // Every refusal reason happened, and the counters add up.
  const obs::MetricsRegistry& m = obs::ctx().metrics();
  const std::uint64_t lower_bound =
      m.counter("synth.certify.refused.lower_bound");
  const std::uint64_t reach = m.counter("synth.certify.refused.reach");
  const std::uint64_t alternative =
      m.counter("synth.certify.refused.alternative");
  EXPECT_GT(lower_bound, 0u);
  EXPECT_GT(reach, 0u);
  EXPECT_GT(alternative, 0u);
  EXPECT_EQ(m.counter("synth.certify.skips"),
            static_cast<std::uint64_t>(skips));
  EXPECT_EQ(m.counter("synth.certify.attempts"),
            static_cast<std::uint64_t>(attempts));
  EXPECT_EQ(m.counter("synth.certify.attempts"),
            m.counter("synth.certify.skips") + lower_bound + reach +
                alternative);
#endif
}

TEST(Certify, ClosedLoopSkipsMatchFreshSyntheses) {
  // One droplet shuttles between two goals on a fast-wearing simulated
  // chip. Each cycle it senses; when the view changed or the strategy does
  // not cover the droplet, it certifies or re-solves; then it steps with the
  // strategy's action. The droplet's own actuations wear its path.
  sim::SimulatedChipConfig config;
  config.chip.width = 24;
  config.chip.height = 12;
  config.chip.degradation = DegradationRange{0.5, 0.9, 20.0, 60.0};
  config.pre_wear_max = 40;
  sim::SimulatedChip chip(config, Rng(0xce4f));
  const int bits = chip.health_bits();
  const Rect ends[2] = {Rect::from_size(0, 4, 3, 3),
                        Rect::from_size(21, 4, 3, 3)};
  const DropletId droplet = chip.dispense(ends[0]);
  const Synthesizer synth(chip.bounds());
  assay::RoutingJob rj;
  rj.hazard = chip.bounds();
  rj.goal = ends[1];
  ResynthesisContext ctx;
  Strategy strategy;
  IntMatrix provisioned;  // the view the strategy was provisioned for
  int skips = 0;
  int disagreements = 0;
  int arrivals = 0;
  for (int cycle = 0; cycle < 600; ++cycle) {
    const Rect pos = chip.droplet_position(droplet);
    if (rj.goal.contains(pos)) {
      ++arrivals;
      rj.goal = rj.goal == ends[0] ? ends[1] : ends[0];
      strategy = Strategy();
    }
    const IntMatrix health = chip.sense_health();
    if (strategy.empty() || health != provisioned || !strategy.action(pos)) {
      rj.start = pos;
      const SynthesisResult skip = synth.certify(rj, health, bits, ctx);
      if (skip.certified) {
        ++skips;
        disagreements += check_skip(synth, rj, health, bits, skip);
        strategy = skip.strategy;
      } else {
        strategy = synth.resynthesize(rj, health, bits, ctx).strategy;
      }
      provisioned = health;
    }
    chip.step({Command{droplet, strategy.action(pos), -1}});
  }
  EXPECT_GT(arrivals, 4);
  EXPECT_GT(skips, 20);
  EXPECT_EQ(disagreements, 0);
}

TEST(Certify, AChoiceThatReadsNoChangedCellKeepsItsParameters) {
  // The lower-bound check re-derives only the choices that read a changed
  // cell (choice_reads). Every other enabled choice must derive the same
  // outcomes, self-loop scale and cost through choice_params before and
  // after the change, with and without the wear penalty.
  const Rect chip{0, 0, 19, 11};
  ActionTable table(ActionRules{});
  Rng rng(0xce4f0100u);
  int kept = 0;
  int moved = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const double lambda = trial % 2 == 0 ? 0.0 : 0.5;
    DoubleMatrix before(chip.width(), chip.height(), 1.0);
    for (int y = 0; y < chip.height(); ++y)
      for (int x = 0; x < chip.width(); ++x)
        before(x, y) = rng.uniform(0.0, 1.0);
    DoubleMatrix after = before;
    std::vector<Vec2i> cells;
    for (int i = rng.uniform_int(1, 3); i > 0; --i) {
      const Vec2i cell{rng.uniform_int(0, chip.xb),
                       rng.uniform_int(0, chip.yb)};
      after(cell.x, cell.y) = rng.uniform(0.0, 1.0);
      cells.push_back(cell);
    }
    const int w = rng.uniform_int(2, 4);
    const int h = rng.uniform_int(2, 4);
    const Rect droplet = Rect::from_size(rng.uniform_int(0, chip.xb - w + 1),
                                         rng.uniform_int(0, chip.yb - h + 1),
                                         w, h);
    const ClampedForce old_force(before);
    const ClampedForce new_force(after);
    OutcomeSet old_buffer;
    OutcomeSet new_buffer;
    for (const ActionEntry& entry : table.actions(w, h)) {
      if (!entry.enabled_at(droplet, chip)) continue;
      const ChoiceParams a =
          choice_params(entry, droplet, old_force, chip, lambda, old_buffer);
      const ChoiceParams b =
          choice_params(entry, droplet, new_force, chip, lambda, new_buffer);
      const bool same =
          a.inv_one_minus_q == b.inv_one_minus_q && a.cost == b.cost &&
          std::equal(a.outcomes.begin(), a.outcomes.end(), b.outcomes.begin(),
                     b.outcomes.end(), [](const Outcome& x, const Outcome& y) {
                       return x.droplet == y.droplet &&
                              x.probability == y.probability;
                     });
      if (choice_reads(entry, droplet, lambda, cells)) {
        moved += same ? 0 : 1;
      } else {
        EXPECT_TRUE(same) << to_string(entry.action) << " at "
                          << droplet.to_string() << ", trial " << trial;
        ++kept;
      }
    }
  }
  EXPECT_GT(kept, 1000);
  EXPECT_GT(moved, 50);
}

TEST(Certify, ASkipLeavesTheRetainedModelForTheNextResolve) {
  // A wear step on cells the droplet never reads is certified without
  // touching the retained model: ctx.health stays the solved view, and the
  // next re-solve patches the accumulated delta into a model that equals a
  // fresh build's, so it still reproduces synthesize() bit for bit.
  const Rect chip{0, 0, 11, 11};
  const Synthesizer synth(chip);
  assay::RoutingJob rj;
  rj.start = Rect::from_size(0, 4, 3, 3);
  rj.goal = Rect::from_size(9, 4, 3, 3);
  rj.hazard = chip;
  IntMatrix health(12, 12, 2);
  ResynthesisContext ctx;
  const SynthesisResult solved = synth.resynthesize(rj, health, 2, ctx);
  ASSERT_TRUE(ctx.certifiable);
  const IntMatrix solved_view = health;

  health(5, 11) = 1;  // far above the droplet's row band
  const SynthesisResult skip = synth.certify(rj, health, 2, ctx);
  ASSERT_TRUE(skip.certified);
  EXPECT_FALSE(skip.warm);
  EXPECT_EQ(ctx.health, solved_view);
  EXPECT_EQ(ctx.checked, health);
  EXPECT_NEAR(skip.expected_cycles, solved.expected_cycles, 1e-9);
  EXPECT_LT(skip.strategy.size(), solved.strategy.size());

  health(5, 0) = 1;
  health(6, 5) = 1;  // on the droplet's path: the next step re-solves
  const SynthesisResult warm = synth.resynthesize(rj, health, 2, ctx);
  EXPECT_TRUE(warm.warm);
  const SynthesisResult fresh = synth.synthesize(rj, health, 2);
  EXPECT_EQ(warm.expected_cycles, fresh.expected_cycles);
  for (const Rect& droplet : ctx.geometry.droplets)
    EXPECT_EQ(warm.strategy.action(droplet), fresh.strategy.action(droplet));
}

TEST(Certify, RefusesWithoutAnAttemptOnAnUnusableContext) {
  const Rect chip{0, 0, 11, 11};
  const Synthesizer synth(chip);
  assay::RoutingJob rj;
  rj.start = Rect::from_size(0, 4, 3, 3);
  rj.goal = Rect::from_size(9, 4, 3, 3);
  rj.hazard = chip;
  const IntMatrix health(12, 12, 2);
  ResynthesisContext ctx;
  EXPECT_FALSE(synth.certify(rj, health, 2, ctx).certified);  // unprimed
  synth.resynthesize(rj, health, 2, ctx);
  assay::RoutingJob other = rj;
  other.goal = Rect::from_size(4, 9, 3, 3);
  EXPECT_FALSE(synth.certify(other, health, 2, ctx).certified);
  ctx.valid = false;  // what the scheduler does to force a rebuild
  EXPECT_FALSE(synth.certify(rj, health, 2, ctx).certified);
  ctx.valid = true;
  EXPECT_TRUE(synth.certify(rj, health, 2, ctx).certified);
}

TEST(Scheduler, CountsCertifiedResynthesesOnADegradingChip) {
  // The chip of Scheduler.CountsWarmResynthesesOnADegradingChip: health
  // drifts along each route, and most re-syntheses change nothing the
  // droplet can reach, so part of them are certified skips, which are no
  // model-checker calls.
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
  const RecordedMetrics metrics;
  Scheduler scheduler(sched);
  const ExecutionStats stats = scheduler.run(chip, assay::cep());
  EXPECT_TRUE(stats.success) << stats.failure_reason;
  EXPECT_GT(stats.resyntheses_certified, 0);
  EXPECT_GT(stats.resyntheses_warm, 0);
#ifndef MEDA_OBS_DISABLED
  const obs::MetricsRegistry& m = obs::ctx().metrics();
  EXPECT_EQ(m.counter("synth.calls"),
            static_cast<std::uint64_t>(stats.synthesis_calls));
  EXPECT_EQ(m.counter("synth.certify.skips"),
            static_cast<std::uint64_t>(stats.resyntheses_certified));
  EXPECT_EQ(m.counter("sched.resyntheses_certified"),
            static_cast<std::uint64_t>(stats.resyntheses_certified));
#endif
}

}  // namespace
}  // namespace meda::core
