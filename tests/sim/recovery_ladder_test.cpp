#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "assay/benchmarks.hpp"
#include "core/scheduler.hpp"
#include "sim/simulated_chip.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

/// @file recovery_ladder_test.cpp
/// End-to-end tests of the scheduler's recovery ladder, rung by rung:
/// watchdog → forced re-sense → quarantine → bounded re-synthesis with
/// backoff → graceful per-job abort (with dependent cascade).

namespace meda::core {
namespace {

/// A maximally misbehaving substrate: it reports full health everywhere but
/// silently drops every commanded action — droplets never move. The
/// watchdog rung is the only way a scheduler can notice.
class StuckChip : public BiochipIo {
 public:
  StuckChip(int w, int h) : bounds_{0, 0, w - 1, h - 1}, health_(w, h, 3) {}

  Rect bounds() const override { return bounds_; }
  int health_bits() const override { return 2; }
  IntMatrix sense_health() const override { return health_; }

  Rect droplet_position(DropletId id) const override {
    const auto it = droplets_.find(id);
    MEDA_REQUIRE(it != droplets_.end(), "unknown droplet id");
    return it->second;
  }

  bool location_clear(const Rect& at) const override {
    return bounds_.contains(at) &&
           std::all_of(droplets_.begin(), droplets_.end(),
                       [&at](const auto& entry) {
                         return entry.second.manhattan_gap(at) >= 2;
                       });
  }

  DropletId dispense(const Rect& at) override {
    const DropletId id = next_id_++;
    droplets_.emplace(id, at);
    return id;
  }

  void discard(DropletId id) override {
    MEDA_REQUIRE(droplets_.erase(id) == 1, "unknown droplet id");
  }

  DropletId merge(DropletId, DropletId, const Rect&) override {
    MEDA_REQUIRE(false, "merge not supported by StuckChip");
    return -1;
  }

  bool split_clear(DropletId, const Rect&, const Rect&) const override {
    return false;
  }

  std::pair<DropletId, DropletId> split(DropletId, const Rect&,
                                        const Rect&) override {
    MEDA_REQUIRE(false, "split not supported by StuckChip");
    return {-1, -1};
  }

  void step(const std::vector<Command>& commands) override {
    for (const Command& c : commands)
      (void)droplet_position(c.droplet);  // commands must address live ids
    ++cycle_;  // actions are silently lost; nothing moves
  }

  std::uint64_t cycle() const override { return cycle_; }

  int droplet_count() const { return static_cast<int>(droplets_.size()); }

 private:
  Rect bounds_;
  IntMatrix health_;
  std::unordered_map<DropletId, Rect> droplets_;
  DropletId next_id_ = 0;
  std::uint64_t cycle_ = 0;
};

/// Transport-only assay: dispense at the west edge, deliver to the east.
assay::MoList transport_assay(double out_x, double out_y) {
  assay::AssayBuilder b("transport");
  const int d = b.dispense(8.5, 7.5, 16);
  b.output({d}, out_x, out_y);
  return std::move(b).build();
}

/// The "recovery" entries of the event log, one per ladder firing.
std::vector<obs::Event> ladder_events(const ExecutionStats& stats) {
  std::vector<obs::Event> out;
  for (const obs::Event& e : stats.events)
    if (e.category == "recovery") out.push_back(e);
  return out;
}

bool fired(const ExecutionStats& stats, RecoveryAction action) {
  return std::any_of(stats.events.begin(), stats.events.end(),
                     [action](const obs::Event& e) {
                       return e.category == "recovery" &&
                              e.name == to_string(action);
                     });
}

SchedulerConfig ladder_config() {
  SchedulerConfig config;
  config.adaptive = true;
  config.max_cycles = 600;
  config.recovery.enabled = true;
  config.recovery.quarantine_after_watchdogs = 2;
  return config;
}

TEST(RecoveryLadder, WatchdogEscalatesThroughQuarantineToAbort) {
  StuckChip chip(30, 16);
  Scheduler scheduler(ladder_config());
  const ExecutionStats stats =
      scheduler.run(chip, transport_assay(24.5, 7.5));

  EXPECT_FALSE(stats.success);
  // Every rung below abort fired at least once.
  EXPECT_GT(stats.recovery.watchdog_fires, 0);
  EXPECT_GT(stats.recovery.forced_resenses, 0);
  EXPECT_GT(stats.recovery.quarantined_cells, 0);
  EXPECT_EQ(stats.recovery.aborted_jobs, 2);  // dispense + dependent output
  EXPECT_EQ(stats.aborted_mos, 2);
  EXPECT_EQ(stats.completed_mos, 0);
  EXPECT_NE(stats.failure_reason.find("aborted"), std::string::npos)
      << stats.failure_reason;
  // The abort is graceful: the stuck droplet was removed from the chip.
  EXPECT_EQ(chip.droplet_count(), 0);

  // The event log tells the story in order: the first ladder firing is the
  // watchdog, the last is the cascading abort of the dependent MO.
  const std::vector<obs::Event> ladder = ladder_events(stats);
  ASSERT_GE(ladder.size(), 3u);
  EXPECT_EQ(ladder.front().name,
            to_string(RecoveryAction::kWatchdogResense));
  EXPECT_EQ(ladder.back().name, to_string(RecoveryAction::kJobAbort));
  EXPECT_NE(ladder.back().detail.find("predecessor"), std::string::npos);
  EXPECT_TRUE(fired(stats, RecoveryAction::kQuarantine));
  EXPECT_TRUE(fired(stats, RecoveryAction::kJobAbort));
}

TEST(RecoveryLadder, LegacyModeBurnsTheCycleBudgetInstead) {
  StuckChip chip(30, 16);
  SchedulerConfig config;
  config.adaptive = true;
  config.max_cycles = 120;  // recovery disabled: nothing stops the burn
  Scheduler scheduler(config);
  const ExecutionStats stats =
      scheduler.run(chip, transport_assay(24.5, 7.5));
  EXPECT_FALSE(stats.success);
  EXPECT_EQ(stats.failure_reason, "cycle limit exceeded");
  EXPECT_FALSE(stats.recovery.any());
  EXPECT_TRUE(ladder_events(stats).empty());
}

TEST(RecoveryLadder, InfeasibleSynthesisRetriesWithBackoffThenAborts) {
  // A dead wall spans the full chip height: no route from the west-edge
  // dispense to the east goal can exist, so synthesis is infeasible from
  // the first attempt and only the retry/backoff/abort rungs fire.
  sim::SimulatedChipConfig chip_config;
  chip_config.chip.width = 40;
  chip_config.chip.height = 16;
  sim::SimulatedChip chip(chip_config, Rng(11));
  for (int y = 0; y < 16; ++y)
    for (int x = 19; x <= 20; ++x) chip.substrate().inject_fault(x, y, 0);

  Scheduler scheduler(ladder_config());
  const ExecutionStats stats =
      scheduler.run(chip, transport_assay(34.5, 7.5));

  EXPECT_FALSE(stats.success);
  static_assert(kMaxSynthesisRetries == 3 && kBackoffBaseCycles == 4);
  EXPECT_EQ(stats.recovery.synthesis_retries, 4);
  EXPECT_EQ(stats.recovery.aborted_jobs, 1);  // only the output MO routes
  EXPECT_EQ(stats.completed_mos, 1);          // the dispense completed
  // Exponential backoff: 4, 8, then 16 cycles (base << retries-1).
  std::vector<std::string> backoffs;
  for (const obs::Event& e : ladder_events(stats))
    if (e.name == to_string(RecoveryAction::kBackoff))
      backoffs.push_back(e.detail);
  EXPECT_EQ(backoffs, (std::vector<std::string>{"4 cycle(s)", "8 cycle(s)",
                                                "16 cycle(s)"}));
  EXPECT_EQ(stats.recovery.backoff_cycles, 28u);
  // The aborted droplet is gone; the chip is clean for the next job.
  EXPECT_TRUE(chip.droplets().empty());
}

TEST(RecoveryLadder, InfeasibleSynthesisFailsHardWithoutRecovery) {
  sim::SimulatedChipConfig chip_config;
  chip_config.chip.width = 40;
  chip_config.chip.height = 16;
  sim::SimulatedChip chip(chip_config, Rng(11));
  for (int y = 0; y < 16; ++y)
    for (int x = 19; x <= 20; ++x) chip.substrate().inject_fault(x, y, 0);

  SchedulerConfig config;
  config.adaptive = true;
  config.max_cycles = 600;
  Scheduler scheduler(config);
  const ExecutionStats stats =
      scheduler.run(chip, transport_assay(34.5, 7.5));
  EXPECT_FALSE(stats.success);
  EXPECT_NE(stats.failure_reason.find("no feasible"), std::string::npos)
      << stats.failure_reason;
  EXPECT_EQ(stats.recovery.aborted_jobs, 0);
}

TEST(RecoveryLadder, QuietRunReportsNoRecoveryActivity) {
  sim::SimulatedChipConfig chip_config;
  chip_config.chip.width = 40;
  chip_config.chip.height = 16;
  sim::SimulatedChip chip(chip_config, Rng(3));
  SchedulerConfig config = ladder_config();
  config.filter.enabled = true;
  Scheduler scheduler(config);
  const ExecutionStats stats =
      scheduler.run(chip, transport_assay(34.5, 7.5));
  EXPECT_TRUE(stats.success) << stats.failure_reason;
  EXPECT_FALSE(stats.recovery.any());
  EXPECT_TRUE(ladder_events(stats).empty());
  EXPECT_EQ(stats.completed_mos, 2);
  EXPECT_EQ(stats.aborted_mos, 0);
}

TEST(ProgressWatchdog, FiresOnAPureStall) {
  // A droplet that never moves decays the watchdog's EWMA progress rate
  // from 1.0 below its threshold, and the ladder escalates to the abort.
  StuckChip chip(30, 16);
  Scheduler scheduler(ladder_config());
  const ExecutionStats stats =
      scheduler.run(chip, transport_assay(24.5, 7.5));
  EXPECT_FALSE(stats.success);
  EXPECT_GT(stats.recovery.watchdog_fires, 0);
  EXPECT_GT(stats.recovery.forced_resenses, 0);
  EXPECT_GT(stats.recovery.aborted_jobs, 0);
  EXPECT_EQ(chip.droplet_count(), 0);
}

TEST(ProgressWatchdog, StaysQuietOnAHealthyRoute) {
  sim::SimulatedChipConfig chip_config;
  chip_config.chip.width = 40;
  chip_config.chip.height = 16;
  sim::SimulatedChip chip(chip_config, Rng(3));
  SchedulerConfig config = ladder_config();
  config.filter.enabled = true;
  Scheduler scheduler(config);
  const ExecutionStats stats =
      scheduler.run(chip, transport_assay(34.5, 7.5));
  EXPECT_TRUE(stats.success) << stats.failure_reason;
  EXPECT_EQ(stats.recovery.watchdog_fires, 0);
}

TEST(QuarantineParole, BudgetPressureReleasesTheOldestCells) {
  // On a small chip the quarantine budget fills after the first frontier
  // quarantines (the StuckChip droplet never moves, so the ladder keeps
  // quarantining its ring). Every forced re-sense then reads the
  // quarantined cells alive again (StuckChip reports full health), so
  // parole must release the oldest ones instead of blacklisting them
  // forever.
  StuckChip chip(12, 10);  // a budget of 18 of its 120 cells
  static_assert(kMaxQuarantineFraction == 0.15);
  assay::AssayBuilder b("short-transport");
  const int d = b.dispense(3.5, 4.5, 16);
  b.output({d}, 9.5, 4.5);
  Scheduler scheduler(ladder_config());
  const ExecutionStats stats = scheduler.run(chip, std::move(b).build());
  EXPECT_GT(stats.recovery.quarantined_cells, 0);
  EXPECT_GT(stats.recovery.paroled_cells, 0);
  EXPECT_TRUE(fired(stats, RecoveryAction::kQuarantineParole));
}

TEST(RecoveryLadder, EveryLadderCounterMatchesItsEvents) {
  // Each firing counter of the ladder counts exactly its "recovery" events,
  // execution by execution. Two NuIP lifetimes on end-of-life chips of
  // bench/chaos_campaign, under its robust+nmr router: the first (a clean
  // channel) fires every rung, and the second checks the counts on a noisy
  // channel (1% sensor noise). synthesis_retries is left out: the attempt
  // that escalates past kMaxSynthesisRetries emits no retry.
  using Counter = int (*)(const ExecutionStats&);
  const std::pair<std::string, Counter> rungs[] = {
      {"watchdog-resense",
       [](const ExecutionStats& s) { return s.recovery.watchdog_fires; }},
      {"contention-detour",
       [](const ExecutionStats& s) { return s.recovery.contention_detours; }},
      {"job-abort",
       [](const ExecutionStats& s) { return s.recovery.aborted_jobs; }},
      {"replica-failover",
       [](const ExecutionStats& s) { return s.replica.failovers; }},
  };
  struct Lifetime {
    std::uint64_t chip_seed;
    int runs;
    double noise;
  };
  std::map<std::string, int> fired;
  for (const Lifetime& lifetime :
       {Lifetime{4200, 4, 0.0}, Lifetime{4201, 2, 0.01}}) {
    sim::SimulatedChipConfig cc;
    cc.chip.width = assay::kChipWidth;
    cc.chip.height = assay::kChipHeight;
    cc.chip.degradation = DegradationRange{0.5, 0.9, 40.0, 100.0};
    cc.pre_wear_max = 250;
    cc.faults.mode = FaultMode::kClustered;
    cc.faults.faulty_fraction = 0.08;
    cc.faults.fail_at_lo = 10;
    cc.faults.fail_at_hi = 100;
    if (lifetime.noise > 0.0) {
      cc.sensor.bit_flip_p = lifetime.noise;
      cc.sensor.stuck_fraction = 0.01;
      cc.sensor.frame_drop_p = 0.02;
    }
    sim::SimulatedChip chip(cc, Rng(lifetime.chip_seed).fork(0xC41));
    SchedulerConfig config;
    config.adaptive = true;
    config.max_cycles = 2500;
    config.filter.enabled = true;
    config.recovery.enabled = true;
    config.recovery.quarantine_after_watchdogs = 3;
    config.replicate_critical_dispenses = 2;
    StrategyLibrary library;
    Scheduler scheduler(config, &library);
    for (int run = 0; run < lifetime.runs; ++run) {
      chip.clear_droplets();
      const ExecutionStats stats = scheduler.run(chip, assay::nuip());
      for (const auto& [name, counter] : rungs) {
        const auto events = std::count_if(
            stats.events.begin(), stats.events.end(),
            [&name](const obs::Event& e) {
              return e.category == "recovery" && e.name == name;
            });
        EXPECT_EQ(counter(stats), events)
            << name << " on chip " << lifetime.chip_seed << ", run " << run;
        fired[name] += counter(stats);
      }
    }
  }
  for (const auto& [name, counter] : rungs)
    EXPECT_GE(fired[name], 1) << name << " never fired";
}

TEST(RecoveryLadder, RobustRouterBeatsRawScansUnderSensorNoise) {
  // The PR's acceptance scenario: with a noisy scan chain (1% transient
  // flips + 1% stuck DFFs), the filtered + ladder-armed router must succeed
  // at least as often as the same router acting on raw scans. Seeds are
  // paired: both routers see the same chips and the same noise processes.
  auto successes = [](bool robust) {
    int ok = 0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      sim::SimulatedChipConfig chip_config;
      chip_config.chip.width = 40;
      chip_config.chip.height = 16;
      chip_config.sensor.bit_flip_p = 0.01;
      chip_config.sensor.stuck_fraction = 0.01;
      sim::SimulatedChip chip(chip_config, Rng(400 + seed));
      SchedulerConfig config;
      config.adaptive = true;
      config.max_cycles = 400;
      if (robust) {
        config.filter.enabled = true;
        config.recovery.enabled = true;
      }
      Scheduler scheduler(config);
      const ExecutionStats stats =
          scheduler.run(chip, transport_assay(34.5, 7.5));
      if (stats.success) ++ok;
    }
    return ok;
  };
  const int raw = successes(false);
  const int robust = successes(true);
  EXPECT_GE(robust, raw);
  EXPECT_GT(robust, 0);
}

}  // namespace
}  // namespace meda::core
