#include <gtest/gtest.h>

#include <algorithm>

#include "assay/benchmarks.hpp"
#include "core/scheduler.hpp"
#include "core/synthesizer.hpp"
#include "model/outcomes.hpp"
#include "obs/obs.hpp"
#include "sim/simulated_chip.hpp"
#include "util/rng.hpp"

/// @file deadline_guardrail_test.cpp
/// Deadline-bounded synthesis end to end: a synthesis that blows its budget
/// reports deadline_expired instead of hanging; the scheduler degrades to
/// the bounded A* fallback route, records the ladder event and metrics, and
/// retries full synthesis with exponential backoff once health changes.

namespace meda::core {
namespace {

sim::SimulatedChipConfig chip_config() {
  sim::SimulatedChipConfig config;
  config.chip.width = assay::kChipWidth;
  config.chip.height = assay::kChipHeight;
  return config;
}

bool fired(const ExecutionStats& stats, RecoveryAction action) {
  return std::any_of(stats.events.begin(), stats.events.end(),
                     [action](const obs::Event& e) {
                       return e.category == "recovery" &&
                              e.name == to_string(action);
                     });
}

bool logged(const ExecutionStats& stats, const std::string& name) {
  return std::any_of(stats.events.begin(), stats.events.end(),
                     [&name](const obs::Event& e) { return e.name == name; });
}

TEST(SynthesizerDeadline, SweepBudgetExpiresDeterministically) {
  // A one-sweep budget cannot converge any real routing job: the result
  // must come back deadline_expired (and infeasible), never cached.
  SynthesisConfig config;
  config.rules.enable_morphing = false;
  config.deadline_sweeps = 1;
  assay::RoutingJob rj;
  rj.start = Rect::from_size(0, 4, 4, 4);
  rj.goal = Rect::from_size(12, 4, 4, 4);
  rj.hazard = Rect{0, 0, 29, 29};
  const Synthesizer synth(Rect{0, 0, 29, 29}, config);
  const SynthesisResult r =
      synth.synthesize_with_force(rj, full_health_force(30, 30));
  EXPECT_TRUE(r.deadline_expired);
  EXPECT_FALSE(r.feasible);
  EXPECT_TRUE(r.strategy.empty());
}

TEST(SynthesizerDeadline, GenerousBudgetDoesNotInterfere) {
  SynthesisConfig config;
  config.rules.enable_morphing = false;
  config.deadline_sweeps = 100000;
  assay::RoutingJob rj;
  rj.start = Rect::from_size(0, 4, 4, 4);
  rj.goal = Rect::from_size(8, 4, 4, 4);
  rj.hazard = Rect{0, 0, 29, 29};
  const Synthesizer synth(Rect{0, 0, 29, 29}, config);
  const SynthesisResult r =
      synth.synthesize_with_force(rj, full_health_force(30, 30));
  EXPECT_FALSE(r.deadline_expired);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.expected_cycles, 4.0, 1e-9);
}

TEST(DeadlineGuardrail, FallbackRouteCompletesTheAssay) {
  // The acceptance scenario: every synthesis call blows a one-sweep budget
  // mid-assay, yet the run completes on fallback routes alone, with the
  // ladder event and the roll-up metrics recorded.
#ifndef MEDA_OBS_DISABLED
  obs::ctx().reset();
  obs::ctx().metrics().enable();
#endif
  sim::SimulatedChip chip(chip_config(), Rng(7));
  SchedulerConfig config;
  config.adaptive = true;
  config.synthesis.deadline_sweeps = 1;
  config.recovery.enabled = true;
  Scheduler scheduler(config);
  const ExecutionStats stats = scheduler.run(chip, assay::covid_rat());
  EXPECT_TRUE(stats.success) << stats.failure_reason;
  EXPECT_GT(stats.recovery.synthesis_deadlines, 0);
  EXPECT_GT(stats.recovery.fallback_routes, 0);
  EXPECT_TRUE(fired(stats, RecoveryAction::kSynthesisDeadline));
  EXPECT_TRUE(logged(stats, "fallback-route"));
#ifndef MEDA_OBS_DISABLED
  const obs::MetricsRegistry& m = obs::ctx().metrics();
  EXPECT_GT(m.counter("synth.deadline_expired"), 0u);
  EXPECT_EQ(m.counter("recovery.synthesis_deadlines"),
            static_cast<std::uint64_t>(stats.recovery.synthesis_deadlines));
  EXPECT_EQ(m.counter("recovery.fallback_routes"),
            static_cast<std::uint64_t>(stats.recovery.fallback_routes));
  obs::ctx().reset();
#endif
}

TEST(DeadlineGuardrail, WithoutRecoveryTheRunFailsFast) {
  sim::SimulatedChip chip(chip_config(), Rng(7));
  SchedulerConfig config;
  config.adaptive = true;
  config.synthesis.deadline_sweeps = 1;
  Scheduler scheduler(config);
  const ExecutionStats stats = scheduler.run(chip, assay::covid_rat());
  EXPECT_FALSE(stats.success);
  EXPECT_NE(stats.failure_reason.find("deadline"), std::string::npos)
      << stats.failure_reason;
}

TEST(DeadlineGuardrail, HealthChangeAfterBackoffRetriesFullSynthesis) {
  // On a degrading chip the health digest keeps changing while the fallback
  // route is active. Changes inside the backoff window re-run only the
  // cheap fallback router; the first change after the window retries the
  // full synthesis (which expires again here — the budget never grows — so
  // the strike count climbs past one).
  sim::SimulatedChipConfig cc = chip_config();
  // Wear fast enough that the health view shifts mid-route, slow enough
  // that the chip stays routable and the fallback stays feasible.
  cc.chip.degradation = DegradationRange{0.5, 0.9, 150.0, 400.0};
  cc.pre_wear_max = 50;
  sim::SimulatedChip chip(cc, Rng(7));
  SchedulerConfig config;
  config.adaptive = true;
  config.max_cycles = 2500;
  config.synthesis.deadline_sweeps = 1;
  config.recovery.enabled = true;
  config.recovery.fallback_backoff_base_cycles = 2;  // tiny window
  Scheduler scheduler(config);
  const ExecutionStats stats = scheduler.run(chip, assay::cep());
  EXPECT_GE(stats.recovery.synthesis_deadlines, 2);
  EXPECT_GE(stats.recovery.fallback_routes, 2);
  EXPECT_TRUE(logged(stats, "deadline-retry"));
}

}  // namespace
}  // namespace meda::core
