#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "assay/benchmarks.hpp"
#include "assay/parser.hpp"
#include "core/library.hpp"
#include "sim/simulated_chip.hpp"
#include "util/check.hpp"

namespace meda::core {
namespace {

sim::SimulatedChipConfig chip_config() {
  sim::SimulatedChipConfig config;
  config.chip.width = assay::kChipWidth;
  config.chip.height = assay::kChipHeight;
  return config;
}

TEST(DispenseEntryRect, ProjectsToTheNearestEdge) {
  const Rect chip{0, 0, 59, 29};
  // Goal near the west edge.
  EXPECT_EQ(dispense_entry_rect(Rect{2, 14, 5, 17}, chip),
            (Rect{0, 14, 3, 17}));
  // Goal near the south edge.
  EXPECT_EQ(dispense_entry_rect(Rect{16, 1, 19, 4}, chip),
            (Rect{16, 0, 19, 3}));
  // Goal near the north edge.
  EXPECT_EQ(dispense_entry_rect(Rect{16, 26, 19, 29}, chip),
            (Rect{16, 26, 19, 29}));  // already touching
  // Goal near the east edge.
  EXPECT_EQ(dispense_entry_rect(Rect{55, 14, 58, 17}, chip),
            (Rect{56, 14, 59, 17}));
}

TEST(DispenseEntryRect, EntryTouchesAnEdge) {
  const Rect chip{0, 0, 59, 29};
  for (int cx = 3; cx < 57; cx += 7) {
    for (int cy = 3; cy < 27; cy += 5) {
      const Rect goal = Rect::from_size(cx, cy, 4, 4);
      if (!chip.contains(goal)) continue;
      const Rect entry = dispense_entry_rect(goal, chip);
      EXPECT_TRUE(chip.contains(entry));
      EXPECT_TRUE(entry.xa == 0 || entry.xb == 59 || entry.ya == 0 ||
                  entry.yb == 29);
      // The projection preserves the perpendicular coordinate.
      EXPECT_TRUE(entry.xa == goal.xa || entry.ya == goal.ya);
    }
  }
}

TEST(SplitRects, HalvesAreDisjointOnChipAndSized) {
  const Rect chip{0, 0, 59, 29};
  for (const Rect droplet :
       {Rect{10, 10, 15, 14}, Rect{2, 2, 5, 9}, Rect{0, 0, 5, 4},
        Rect{54, 25, 59, 29}}) {
    const int area = droplet.area();
    const auto [p0, p1] =
        split_rects(droplet, (area + 1) / 2, area / 2, chip);
    EXPECT_TRUE(chip.contains(p0)) << droplet.to_string();
    EXPECT_TRUE(chip.contains(p1)) << droplet.to_string();
    EXPECT_GE(p0.manhattan_gap(p1), 1) << droplet.to_string();
    // Pattern sizing follows the |w − h| <= 1 rule.
    EXPECT_LE(std::abs(p0.width() - p0.height()), 1);
    EXPECT_LE(std::abs(p1.width() - p1.height()), 1);
  }
}

TEST(SplitRects, SplitsAlongTheLongerAxis) {
  const Rect chip{0, 0, 59, 29};
  const Rect wide{10, 10, 15, 13};  // 6×4
  const auto [w0, w1] = split_rects(wide, 12, 12, chip);
  EXPECT_LT(w0.xb, w1.xa);  // side by side in x
  const Rect tall{10, 10, 13, 15};  // 4×6
  const auto [t0, t1] = split_rects(tall, 12, 12, chip);
  EXPECT_LT(t0.yb, t1.ya);  // stacked in y
}

TEST(Scheduler, CompletesMasterMixOnAHealthyChip) {
  sim::SimulatedChip chip(chip_config(), Rng(5));
  Scheduler scheduler(SchedulerConfig{});
  const ExecutionStats stats = scheduler.run(chip, assay::master_mix());
  EXPECT_TRUE(stats.success) << stats.failure_reason;
  EXPECT_GT(stats.cycles, 0u);
  EXPECT_GT(stats.synthesis_calls, 0);
  EXPECT_TRUE(stats.failure_reason.empty());
  // All droplets have left the chip at completion.
  EXPECT_TRUE(chip.droplets().empty());
}

TEST(Scheduler, CompletesEveryBenchmarkBothRouters) {
  for (const assay::MoList& list : assay::evaluation_suite()) {
    for (const bool adaptive : {true, false}) {
      sim::SimulatedChip chip(chip_config(), Rng(11));
      SchedulerConfig config;
      config.adaptive = adaptive;
      config.max_cycles = 3000;
      Scheduler scheduler(config);
      const ExecutionStats stats = scheduler.run(chip, list);
      EXPECT_TRUE(stats.success)
          << list.name << (adaptive ? " adaptive: " : " baseline: ")
          << stats.failure_reason;
    }
  }
}

TEST(Scheduler, AdaptiveEqualsBaselineOnAFreshChip) {
  // With the scaled estimator a fully healthy chip synthesizes the same
  // shortest paths as the degradation-blind baseline.
  std::uint64_t cycles[2];
  for (const bool adaptive : {false, true}) {
    sim::SimulatedChip chip(chip_config(), Rng(21));
    SchedulerConfig config;
    config.adaptive = adaptive;
    Scheduler scheduler(config);
    const ExecutionStats stats = scheduler.run(chip, assay::covid_rat());
    ASSERT_TRUE(stats.success) << stats.failure_reason;
    cycles[adaptive ? 1 : 0] = stats.cycles;
  }
  EXPECT_EQ(cycles[0], cycles[1]);
}

TEST(Scheduler, DeterministicGivenTheSameSeed) {
  auto run_once = [] {
    sim::SimulatedChip chip(chip_config(), Rng(33));
    Scheduler scheduler(SchedulerConfig{});
    return scheduler.run(chip, assay::serial_dilution());
  };
  const ExecutionStats a = run_once();
  const ExecutionStats b = run_once();
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.synthesis_calls, b.synthesis_calls);
}

TEST(Scheduler, CycleLimitAborts) {
  sim::SimulatedChip chip(chip_config(), Rng(5));
  SchedulerConfig config;
  config.max_cycles = 5;
  Scheduler scheduler(config);
  const ExecutionStats stats = scheduler.run(chip, assay::master_mix());
  EXPECT_FALSE(stats.success);
  EXPECT_EQ(stats.failure_reason, "cycle limit exceeded");
  EXPECT_EQ(stats.cycles, 5u);
}

TEST(Scheduler, SharedLibraryServesRepeatExecutions) {
  sim::SimulatedChip chip(chip_config(), Rng(44));
  StrategyLibrary library;
  SchedulerConfig config;
  config.adaptive = false;  // digest is constant → guaranteed reuse
  Scheduler scheduler(config, &library);
  const ExecutionStats first = scheduler.run(chip, assay::covid_rat());
  ASSERT_TRUE(first.success);
  chip.clear_droplets();
  const ExecutionStats second = scheduler.run(chip, assay::covid_rat());
  ASSERT_TRUE(second.success);
  EXPECT_EQ(first.library_hits, 0);
  EXPECT_GT(second.library_hits, 0);
  EXPECT_LT(second.synthesis_calls, first.synthesis_calls);
}

TEST(Scheduler, LibraryDisabledSynthesizesEveryJob) {
  sim::SimulatedChip chip(chip_config(), Rng(44));
  SchedulerConfig config;
  config.use_library = false;
  Scheduler scheduler(config);
  const ExecutionStats stats = scheduler.run(chip, assay::covid_rat());
  ASSERT_TRUE(stats.success);
  EXPECT_EQ(stats.library_hits, 0);
}

TEST(Scheduler, SynthesisLatencyDelaysButCompletes) {
  std::uint64_t base_cycles = 0;
  for (const int latency : {0, 5}) {
    sim::SimulatedChip chip(chip_config(), Rng(55));
    SchedulerConfig config;
    config.synthesis_latency_cycles = latency;
    config.max_cycles = 3000;
    Scheduler scheduler(config);
    const ExecutionStats stats = scheduler.run(chip, assay::covid_rat());
    ASSERT_TRUE(stats.success) << stats.failure_reason;
    if (latency == 0) {
      base_cycles = stats.cycles;
    } else {
      EXPECT_GT(stats.cycles, base_cycles);
    }
  }
}

TEST(Scheduler, AdaptiveEscapesAFaultWallBaselineStalls) {
  // Kill a wall of MCs across the COVID-RAT transport corridor before the
  // run; the sensed H=0 cells force the adaptive router around it, while
  // the baseline pushes into dead cells until the cycle limit.
  auto run = [](bool adaptive) {
    sim::SimulatedChip chip(chip_config(), Rng(66));
    // Dead wall across the baseline's entire row band (the 6×5 droplet
    // travels on rows 13-17), with a gap at rows 18-20 that still lies
    // inside the routing job's hazard zone.
    for (int y = 0; y <= 17; ++y)
      for (int x = 26; x <= 27; ++x)
        chip.substrate().inject_fault(x, y, 0);
    SchedulerConfig config;
    config.adaptive = adaptive;
    config.max_cycles = 800;
    Scheduler scheduler(config);
    return scheduler.run(chip, assay::covid_rat());
  };
  const ExecutionStats adaptive = run(true);
  const ExecutionStats baseline = run(false);
  EXPECT_TRUE(adaptive.success) << adaptive.failure_reason;
  EXPECT_FALSE(baseline.success);
}

TEST(Scheduler, MoTimingsFormAValidSchedule) {
  sim::SimulatedChip chip(chip_config(), Rng(5));
  Scheduler scheduler(SchedulerConfig{});
  const assay::MoList assay_list = assay::serial_dilution();
  const ExecutionStats stats = scheduler.run(chip, assay_list);
  ASSERT_TRUE(stats.success);
  ASSERT_EQ(stats.mo_timings.size(), assay_list.ops.size());
  for (const MoTiming& t : stats.mo_timings) {
    EXPECT_TRUE(t.done) << "M" << t.mo;
    EXPECT_LE(t.activated, t.completed) << "M" << t.mo;
    EXPECT_LE(t.completed, stats.cycles) << "M" << t.mo;
    // Every MO activates only after all its predecessors completed.
    for (const assay::PreRef& ref : assay_list.op(t.mo).pre) {
      EXPECT_GE(t.activated,
                stats.mo_timings[static_cast<std::size_t>(ref.mo)].completed)
          << "M" << t.mo << " before its predecessor M" << ref.mo;
    }
    // Holds are a lower bound on the span of holding operations.
    EXPECT_GE(t.completed - t.activated,
              static_cast<std::uint64_t>(assay_list.op(t.mo).hold_cycles))
        << "M" << t.mo;
  }
}

/// Each MO's (activated, completed) cycles when @p list runs on a chip whose
/// cells never wear (τ = 1): every pull succeeds, so a route of L1 distance
/// d takes ⌈d/2⌉ commanded cycles (double steps and diagonal moves) for a
/// droplet at least 4 cells long, as every one below is.
std::vector<std::pair<std::uint64_t, std::uint64_t>> step_timings(
    const assay::MoList& list) {
  sim::SimulatedChipConfig config = chip_config();
  config.chip.degradation.tau_lo = 1.0;
  config.chip.degradation.tau_hi = 1.0;
  sim::SimulatedChip chip(config, Rng(3));
  const ExecutionStats stats = Scheduler{}.run(chip, list);
  EXPECT_TRUE(stats.success) << list.name << ": " << stats.failure_reason;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> timings;
  for (const MoTiming& t : stats.mo_timings)
    timings.emplace_back(t.activated, t.completed);
  return timings;
}

TEST(Scheduler, MoLifecycleFollowsTheStepRule) {
  // The step rule: dispense, merge, split and a route's arrival each end an
  // MO's cycle; a route is created and first advanced in the same cycle; a
  // hold counts down one cycle at a time and falls through when it reads
  // 0; a discard completes without using the cycle; and an MO finishes in
  // the cycle its last step completes, where a successor that was waiting
  // on it activates too. Every droplet has area 16 (4×4) unless noted, and
  // an MO at (x.5, 15.5) places a 4×4 droplet at x-1.5..x+1.5, 14..17.
  //
  // dis at (5.5, 15.5): dispensed at cycle 0 on the west-edge port 0..3,
  // d = 4 to its goal 4..7, so 2 commanded cycles (1, 2) and arrival at 3.
  // Its out at (25.5, 15.5) activates at 3: d = 20 takes cycles 3..12, the
  // arrival at 13 ends the cycle, and the discard completes it at 14.
  {
    assay::AssayBuilder b("step-rule-out");
    const int d = b.dispense(5.5, 15.5, 16);
    b.output({d, 0}, 25.5, 15.5);
    EXPECT_EQ(step_timings(std::move(b).build()),
              (std::vector<std::pair<std::uint64_t, std::uint64_t>>{
                  {0, 3}, {3, 14}}));
  }
  // dsc runs out's steps.
  {
    assay::AssayBuilder b("step-rule-dsc");
    const int d = b.dispense(5.5, 15.5, 16);
    b.discard({d, 0}, 25.5, 15.5);
    EXPECT_EQ(step_timings(std::move(b).build()),
              (std::vector<std::pair<std::uint64_t, std::uint64_t>>{
                  {0, 3}, {3, 14}}));
  }
  // mag at (15.5, 15.5) holding 3: d = 10 takes cycles 3..7, arrival at 8,
  // the hold counts 3 → 0 over cycles 9..11 and falls through at 12. Its
  // out at (25.5, 15.5): cycles 12..16, arrival 17, discard 18.
  {
    assay::AssayBuilder b("step-rule-mag");
    const int d = b.dispense(5.5, 15.5, 16);
    const int m = b.mag({d, 0}, 15.5, 15.5, /*hold_cycles=*/3);
    b.output({m, 0}, 25.5, 15.5);
    EXPECT_EQ(step_timings(std::move(b).build()),
              (std::vector<std::pair<std::uint64_t, std::uint64_t>>{
                  {0, 3}, {3, 12}, {12, 18}}));
  }
  // mix of A (dispensed as above) and B at (55.5, 15.5) (east port 56..59,
  // d = 2: one commanded cycle, arrival at 2), at (5.5, 15.5) holding 2. It
  // activates at 3 with A parked at the mixer, and B closes 54 → 8 in 23
  // double steps (cycles 3..25) to touch A. The merge at 26 makes a 6×5
  // droplet (area 30) at 5..10, 14..18, whose goal at the mixer is 3..8,
  // 14..18: d = 2 is cycle 27, arrival 28, hold 29..30, done at 31. Its out
  // at (5.5, 25.5) (6×5 goal 3..8, 24..28): cycles 31..35, 36, discard 37.
  {
    assay::AssayBuilder b("step-rule-mix");
    const int a = b.dispense(5.5, 15.5, 16);
    const int c = b.dispense(55.5, 15.5, 16);
    const int m = b.mix({a, 0}, {c, 0}, 5.5, 15.5, /*hold_cycles=*/2);
    b.output({m, 0}, 5.5, 25.5);
    EXPECT_EQ(step_timings(std::move(b).build()),
              (std::vector<std::pair<std::uint64_t, std::uint64_t>>{
                  {0, 3}, {0, 2}, {3, 31}, {31, 37}}));
  }
  // spt splits a droplet of area 32, a 6×5 dispensed at 3..8, 14..18 from
  // the port 0..5 (d = 3: cycles 1..2, arrival 3). At activation (cycle 3)
  // it cuts the droplet into 4×4 parts at 1..4 and 6..9, rows 15..18, using
  // the cycle. Both routes start at 4: part 0 north to (2.5, 26.5) and part
  // 1 east to (17.5, 16.5) are d = 10 each, cycles 4..8, and both arrive at
  // 9, which completes the MO. Each out moves its part another d = 10 east:
  // cycles 9..13, arrival 14, discard 15.
  {
    assay::AssayBuilder b("step-rule-spt");
    const int d = b.dispense(5.5, 15.5, 32);
    const int s = b.split({d, 0}, 2.5, 26.5, 17.5, 16.5);
    b.output({s, 0}, 12.5, 26.5);
    b.output({s, 1}, 27.5, 16.5);
    EXPECT_EQ(step_timings(std::move(b).build()),
              (std::vector<std::pair<std::uint64_t, std::uint64_t>>{
                  {0, 3}, {3, 9}, {9, 15}, {9, 15}}));
  }
  // dlt runs mix's steps (hold done at 31), then splits the 6×5 droplet at
  // 3..8 into 4×4 parts at 1..4 and 6..9, rows 15..18, in the same cycle 31.
  // Part 1 leaves first, to (7.5, 26.5) (6..9, 25..28): d = 10, cycles
  // 32..36, arrival 37. Part 0 then settles at its goal 4..7, 14..17:
  // d = 4, cycles 38..39, arrival 40 completes the MO. Each out moves its
  // part d = 20 east: cycles 40..49, 50, 51.
  {
    assay::AssayBuilder b("step-rule-dlt");
    const int a = b.dispense(5.5, 15.5, 16);
    const int c = b.dispense(55.5, 15.5, 16);
    const int l = b.dilute({a, 0}, {c, 0}, 5.5, 15.5, 7.5, 26.5,
                           /*hold_cycles=*/2);
    b.output({l, 0}, 25.5, 15.5);
    b.output({l, 1}, 27.5, 26.5);
    EXPECT_EQ(step_timings(std::move(b).build()),
              (std::vector<std::pair<std::uint64_t, std::uint64_t>>{
                  {0, 3}, {0, 2}, {3, 40}, {40, 51}, {40, 51}}));
  }
}

TEST(Scheduler, RouteRecordsTrackModelPredictions) {
  sim::SimulatedChip chip(chip_config(), Rng(5));
  Scheduler scheduler(SchedulerConfig{});
  const ExecutionStats stats = scheduler.run(chip, assay::covid_rat());
  ASSERT_TRUE(stats.success);
  ASSERT_FALSE(stats.routes.empty());
  std::uint64_t total_route_cycles = 0;
  for (const RouteRecord& r : stats.routes) {
    EXPECT_GE(r.mo, 0);
    EXPECT_GT(r.expected_cycles, 0.0);
    // On a fresh chip moves are deterministic: a route can be delayed by
    // scheduling (waiting on partners) but never finish faster than the
    // model's shortest path.
    EXPECT_GE(static_cast<double>(r.actual_cycles),
              r.expected_cycles - 1e-9);
    total_route_cycles += r.actual_cycles;
  }
  EXPECT_LE(stats.routes.size(), 8u);  // covid-rat has few routes
  EXPECT_GT(total_route_cycles, 0u);
}

TEST(Scheduler, MoTimingsMarkUnfinishedOpsOnAbort) {
  sim::SimulatedChip chip(chip_config(), Rng(5));
  SchedulerConfig config;
  config.max_cycles = 10;  // far too few for the whole assay
  Scheduler scheduler(config);
  const ExecutionStats stats = scheduler.run(chip, assay::serial_dilution());
  ASSERT_FALSE(stats.success);
  bool any_unfinished = false;
  for (const MoTiming& t : stats.mo_timings) any_unfinished |= !t.done;
  EXPECT_TRUE(any_unfinished);
}

TEST(Scheduler, ReactiveRecoveryRescuesAStuckBaseline) {
  // Same dead-wall scenario as above: the pure baseline stalls forever,
  // while the retrial-recovery variant re-routes after 8 stuck cycles.
  auto run = [](int reactive_stuck) {
    sim::SimulatedChip chip(chip_config(), Rng(66));
    for (int y = 0; y <= 17; ++y)
      for (int x = 26; x <= 27; ++x)
        chip.substrate().inject_fault(x, y, 0);
    SchedulerConfig config;
    config.adaptive = false;
    config.reactive_recovery_stuck_cycles = reactive_stuck;
    config.max_cycles = 800;
    Scheduler scheduler(config);
    return scheduler.run(chip, assay::covid_rat());
  };
  const ExecutionStats no_recovery = run(0);
  EXPECT_FALSE(no_recovery.success);
  const ExecutionStats recovered = run(8);
  EXPECT_TRUE(recovered.success) << recovered.failure_reason;
  EXPECT_GT(recovered.resyntheses, 0);
}

TEST(Scheduler, ReactiveReroutesGoThroughTheStrategyLibrary) {
  // The reactive re-route is cached under the sensed health it was
  // synthesized from, like every other strategy: on a second, identical
  // dead-wall chip sharing the library, the whole run — baseline routes
  // and the re-route alike — replays from the library.
  SchedulerConfig config;
  config.adaptive = false;
  config.reactive_recovery_stuck_cycles = 8;
  config.max_cycles = 800;
  StrategyLibrary library;
  Scheduler scheduler(config, &library);
  auto run = [&scheduler] {
    sim::SimulatedChip chip(chip_config(), Rng(66));
    for (int y = 0; y <= 17; ++y)
      for (int x = 26; x <= 27; ++x)
        chip.substrate().inject_fault(x, y, 0);
    return scheduler.run(chip, assay::covid_rat());
  };
  const ExecutionStats first = run();
  ASSERT_TRUE(first.success) << first.failure_reason;
  EXPECT_EQ(first.resyntheses, 1);
  const ExecutionStats second = run();
  ASSERT_TRUE(second.success) << second.failure_reason;
  EXPECT_EQ(second.cycles, first.cycles);
  EXPECT_EQ(second.synthesis_calls, 0);
  EXPECT_EQ(second.library_hits, first.synthesis_calls);
  EXPECT_EQ(second.resyntheses, 1);
}

TEST(Scheduler, ReactiveRecoveryIsIgnoredByTheAdaptiveRouter) {
  sim::SimulatedChip chip(chip_config(), Rng(21));
  SchedulerConfig config;
  config.adaptive = true;
  config.reactive_recovery_stuck_cycles = 4;
  Scheduler scheduler(config);
  const ExecutionStats stats = scheduler.run(chip, assay::covid_rat());
  EXPECT_TRUE(stats.success);
  EXPECT_EQ(stats.resyntheses, 0);  // nothing degraded, nothing reactive
}

TEST(Scheduler, RunsWithNonDefaultHealthBits) {
  for (const int bits : {1, 3, 4}) {
    sim::SimulatedChipConfig config = chip_config();
    config.chip.health_bits = bits;
    sim::SimulatedChip chip(config, Rng(91));
    Scheduler scheduler(SchedulerConfig{});
    const ExecutionStats stats = scheduler.run(chip, assay::covid_rat());
    EXPECT_TRUE(stats.success) << "b = " << bits << ": "
                               << stats.failure_reason;
  }
}

TEST(Scheduler, RejectsAssayThatDoesNotFitTheChip) {
  sim::SimulatedChipConfig small = chip_config();
  small.chip.width = 10;
  small.chip.height = 10;
  sim::SimulatedChip chip(small, Rng(5));
  Scheduler scheduler(SchedulerConfig{});
  EXPECT_THROW(scheduler.run(chip, assay::master_mix()), PreconditionError);
}

TEST(Scheduler, ContentionDetoursGoThroughTheStrategyLibrary) {
  // Droplet-avoiding re-syntheses are cached under a position-keyed digest
  // (the masked health view folds the avoid-rectangles into the key), so
  // every detour request must resolve to exactly one library lookup: a hit
  // or a miss, never a bypass. A four-execution NuIP lifetime with
  // replicated critical dispenses on the first end-of-life chip of
  // bench/chaos_campaign deterministically produces contention detours.
  sim::SimulatedChipConfig cc = chip_config();
  cc.chip.degradation = DegradationRange{0.5, 0.9, 40.0, 100.0};
  cc.pre_wear_max = 250;
  cc.faults.mode = FaultMode::kClustered;
  cc.faults.faulty_fraction = 0.08;
  cc.faults.fail_at_lo = 10;
  cc.faults.fail_at_hi = 100;
  sim::SimulatedChip chip(cc, Rng(4200).fork(0xC41));
  SchedulerConfig config;
  config.adaptive = true;
  config.max_cycles = 2500;
  config.filter.enabled = true;
  config.recovery.enabled = true;
  config.recovery.quarantine_after_watchdogs = 3;
  config.replicate_critical_dispenses = 2;
  StrategyLibrary library;
  Scheduler scheduler(config, &library);
  int detours = 0;
  for (int run = 0; run < 4; ++run) {
    chip.clear_droplets();
    detours += scheduler.run(chip, assay::nuip()).recovery.contention_detours;
  }
  ASSERT_GE(detours, 1);
  const LibraryClassStats& detour = library.stats().detour;
  EXPECT_EQ(detour.hits + detour.misses, static_cast<std::uint64_t>(detours));
}

TEST(Scheduler, AMergeNextToAThirdDropletWaitsInsteadOfThrowing) {
  // M3 mixes at (24.5, 11.5), within one cell of M0's droplet, which waits
  // at (24.5, 16.5) for M7 and so leaves once M6's 40-cycle hold ends.
  // Merging there would touch it and make the chip throw out of
  // Scheduler::run, so M3's partners hold in contact, logging one merge
  // wait, until the droplet has left; then M3 mixes and the assay finishes.
  const assay::MoList list = assay::parse_assay_string(
      "name MergeWaits\n"
      "M0 = dis 24.5 16.5 16\n"
      "M1 = dis 10.5 11.5 16\n"
      "M2 = dis 40.5 11.5 16\n"
      "M3 = mix M1 M2 24.5 11.5 hold=2\n"
      "M4 = out M3 24.5 3.5\n"
      "M5 = dis 50.5 25.5 16\n"
      "M6 = mag M5 50.5 20.5 hold=40\n"
      "M7 = mix M0 M6 40.5 22.5 hold=2\n"
      "M8 = out M7 54.5 22.5\n");
  for (const bool robust : {false, true}) {
    SchedulerConfig config;
    config.filter.enabled = config.recovery.enabled = robust;
    sim::SimulatedChip chip(chip_config(), Rng(1));
    ExecutionStats stats;
    ASSERT_NO_THROW(stats = Scheduler(config).run(chip, list))
        << "robust=" << robust;
    EXPECT_TRUE(stats.success) << stats.failure_reason;
    const auto wait =
        std::ranges::find_if(stats.events, [](const obs::Event& e) {
          return e.category == "merge" && e.name == "wait";
        });
    ASSERT_NE(wait, stats.events.end());
    EXPECT_EQ(wait->scope, 3);
    EXPECT_EQ(std::ranges::count_if(stats.events,
                                    [](const obs::Event& e) {
                                      return e.category == "merge";
                                    }),
              1);
    EXPECT_GT(stats.mo_timings[3].completed, wait->cycle);
    EXPECT_GT(stats.mo_timings[7].activated, wait->cycle);
  }
}

TEST(Scheduler, AMergeBlockedByAnOutputThatWaitsForItEndsTheMo) {
  // M3 mixes at (24.5, 11.5), within one cell of M0's droplet, which waits
  // at (24.5, 16.5) for M4. M4 also takes M3's output, so the droplet can
  // only leave after M3 finishes and a merge wait would last until the
  // cycle limit. The MO ends as soon as its partners touch: it aborts under
  // the ladder (and M4, M5 cascade), and the execution fails without it.
  const assay::MoList list = assay::parse_assay_string(
      "name MergeNearParked\n"
      "M0 = dis 24.5 16.5 16\n"
      "M1 = dis 10.5 11.5 16\n"
      "M2 = dis 40.5 11.5 16\n"
      "M3 = mix M1 M2 24.5 11.5 hold=2\n"
      "M4 = mix M0 M3 40.5 22.5 hold=2\n"
      "M5 = out M4 54.5 22.5\n");
  const std::string reason =
      "MO 3: merge site (22, 10, 27, 14) blocked by MO 0's output, which "
      "waits for this MO";
  for (const bool robust : {false, true}) {
    SchedulerConfig config;
    config.filter.enabled = config.recovery.enabled = robust;
    sim::SimulatedChip chip(chip_config(), Rng(1));
    const ExecutionStats stats = Scheduler(config).run(chip, list);
    EXPECT_FALSE(stats.success);
    EXPECT_EQ(stats.failure_reason,
              robust ? "3 job(s) aborted — first: " + reason : reason);
    EXPECT_LT(stats.cycles, 20u) << "robust=" << robust;
    EXPECT_EQ(stats.aborted_mos, robust ? 3 : 0);
    EXPECT_EQ(stats.completed_mos, 3);  // the three dispenses
    EXPECT_EQ(std::ranges::count_if(stats.events,
                                    [](const obs::Event& e) {
                                      return e.category == "merge";
                                    }),
              0);
  }
}

TEST(Scheduler, AMergeBesideADropletDoomedThisCycleWaitsForItToLeave) {
  // M10's partners touch at cycle 6 and wait, since the site (45, 21, 50,
  // 25) lies next to M5's droplet, parked at (47.5, 27.5) for M6. M3's
  // merge is blocked for good by M0's output, so M3 aborts, and the abort
  // cascades through M4 and M6 in the same cycle. M6 takes M5's droplet
  // and dooms it: it leaves the chip only at the end of that cycle, so M10
  // must not merge beside it then (the chip would throw out of
  // Scheduler::run); M10 merges in the next cycle. Settings of run_assay
  // --robust, seed 1.
  const assay::MoList list = assay::parse_assay_string(
      "name MergeBesideDoomed\n"
      "M0 = dis 24.5 16.5 16\n"
      "M1 = dis 10.5 11.5 16\n"
      "M2 = dis 40.5 11.5 16\n"
      "M3 = mix M1 M2 24.5 11.5 hold=2\n"
      "M4 = mix M0 M3 40.5 22.5 hold=2\n"
      "M5 = dis 47.5 27.5 16\n"
      "M6 = mix M5 M4 50.5 12.5 hold=2\n"
      "M7 = out M6 54.5 12.5\n"
      "M8 = dis 41.5 22.5 16\n"
      "M9 = dis 53.5 22.5 16\n"
      "M10 = mix M8 M9 47.5 22.5 hold=2\n"
      "M11 = out M10 54.5 22.5\n");
  SchedulerConfig config;
  config.filter.enabled = true;
  config.recovery.enabled = true;
  sim::SimulatedChipConfig cc = chip_config();
  cc.record_droplet_trace = true;
  sim::SimulatedChip chip(cc, Rng(1));
  ExecutionStats stats;
  ASSERT_NO_THROW(stats = Scheduler(config).run(chip, list));
  EXPECT_EQ(stats.aborted_mos, 4);
  EXPECT_TRUE(stats.mo_timings[10].done);
  EXPECT_TRUE(stats.mo_timings[11].done);
  const auto doomed =
      std::ranges::find_if(stats.events, [](const obs::Event& e) {
        return e.name == to_string(RecoveryAction::kJobAbort) && e.scope == 6;
      });
  ASSERT_NE(doomed, stats.events.end());
  const auto merged = [&](std::uint64_t cycle) {
    const sim::SimulatedChip::DropletSnapshot& snapshot =
        chip.droplet_trace().at(cycle);
    return std::ranges::any_of(snapshot, [](const auto& droplet) {
      return droplet.second == Rect{45, 21, 50, 25};
    });
  };
  EXPECT_FALSE(merged(doomed->cycle));
  EXPECT_TRUE(merged(doomed->cycle + 1));
}

TEST(Scheduler, AParkedOutputBlockingARouteIsContention) {
  // M0's droplet parks at (30.5, 15.5) until M2's 300-cycle hold ends and
  // M3 takes it. M6's droplet, routed east along row 15.5, stalls next to
  // it: the stall is blocked by a droplet, so the ladder detours around it
  // and quarantines none of the healthy cells it sits beside. Settings of
  // run_assay --robust: filter and recovery on, seed 1.
  const assay::MoList list = assay::parse_assay_string(
      "name ParkedOutput\n"
      "M0 = dis 30.5 15.5 16\n"
      "M1 = dis 45.5 3.5 16\n"
      "M2 = mag M1 45.5 8.5 hold=300\n"
      "M3 = mix M0 M2 38.5 22.5 hold=2\n"
      "M4 = out M3 38.5 26.5\n"
      "M5 = dis 5.5 15.5 16\n"
      "M6 = out M5 55.5 15.5\n");
  SchedulerConfig config;
  config.max_cycles = 3000;
  config.filter.enabled = true;
  config.recovery.enabled = true;
  sim::SimulatedChip chip(chip_config(), Rng(1));
  const ExecutionStats stats = Scheduler(config).run(chip, list);
  int stalls = 0;
  for (const obs::Event& e : stats.events) {
    if (e.category == "stall" && e.scope == 6) {
      ++stalls;
      EXPECT_EQ(e.name, "blocked-by-droplet") << "cycle " << e.cycle;
    }
    EXPECT_NE(e.name, to_string(RecoveryAction::kQuarantine))
        << "cycle " << e.cycle << ": " << e.detail;
  }
  EXPECT_GT(stalls, 0);
  EXPECT_GE(stats.recovery.contention_detours, 1);
  EXPECT_EQ(stats.recovery.quarantined_cells, 0);
}

}  // namespace
}  // namespace meda::core
