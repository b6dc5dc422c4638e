#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "assay/benchmarks.hpp"
#include "assay/parser.hpp"
#include "core/scheduler.hpp"
#include "obs/obs.hpp"
#include "sim/simulated_chip.hpp"
#include "json_lint.hpp"

/// Integration coverage for the observability layer: a real seeded scheduler
/// run must export a well-formed Chrome trace with properly nested spans and
/// cycle-domain counter tracks, produce byte-identical metric snapshots on
/// identical seeds, and — crucially — leave the simulation itself untouched:
/// ExecutionStats from an instrumented run must equal the null-sink run's.

namespace meda::obs {
namespace {

using meda::testing::JsonLint;

sim::SimulatedChipConfig noisy_chip_config() {
  sim::SimulatedChipConfig config;
  config.chip.width = assay::kChipWidth;
  config.chip.height = assay::kChipHeight;
  config.sensor.bit_flip_p = 0.02;
  config.sensor.stuck_fraction = 0.01;
  return config;
}

core::SchedulerConfig robust_router() {
  core::SchedulerConfig config;
  config.filter.enabled = true;
  config.recovery.enabled = true;
  config.max_cycles = 2000;
  return config;
}

core::ExecutionStats run_seeded(std::uint64_t seed) {
  sim::SimulatedChip chip(noisy_chip_config(), Rng(seed));
  core::Scheduler scheduler(robust_router());
  return scheduler.run(chip, assay::covid_rat());
}

/// The process-global context must not leak state between tests (or into the
/// rest of the suite): every test starts and ends with null sinks.
class ObsScheduler : public ::testing::Test {
 protected:
  void SetUp() override { ctx().reset(); }
  void TearDown() override { ctx().reset(); }
};

TEST_F(ObsScheduler, TraceExportsNestedSpansAndCycleTracks) {
#ifdef MEDA_OBS_DISABLED
  GTEST_SKIP() << "instrumentation compiled out (MEDA_OBS=OFF)";
#endif
  ctx().tracer().enable();
  const core::ExecutionStats stats = run_seeded(7);
  EXPECT_TRUE(stats.success) << stats.failure_reason;

  const Tracer& tracer = ctx().tracer();
  ASSERT_GT(tracer.event_count(), 0u);
  EXPECT_TRUE(JsonLint::valid(tracer.to_json()));

  // Duration spans balance per track, never dip below depth 0, and include
  // the scheduler → synthesis nesting the issue calls for.
  std::map<std::uint64_t, int> depth;
  std::map<std::string, int> begins;
  std::uint64_t async_b = 0, async_e = 0, counters = 0, cycle_events = 0;
  for (const TraceEvent& event : tracer.events()) {
    switch (event.ph) {
      case 'B':
        ++depth[event.tid];
        ++begins[event.name];
        break;
      case 'E':
        ASSERT_GT(depth[event.tid], 0) << "unbalanced E on tid " << event.tid;
        --depth[event.tid];
        break;
      case 'b': ++async_b; break;
      case 'e': ++async_e; break;
      case 'C': ++counters; break;
      default: break;
    }
    if (event.pid == TraceTrack::kCyclePid) ++cycle_events;
  }
  for (const auto& [tid, d] : depth) EXPECT_EQ(d, 0) << "tid " << tid;
  EXPECT_EQ(begins["execute"], 1);
  EXPECT_GT(begins["cycle"], 0);
  // The adaptive path synthesizes through the incremental entry point
  // ("resynthesize" spans, warm or cold); detours and the baseline keep the
  // plain "synthesize" span.
  EXPECT_GT(begins["synthesize"] + begins["resynthesize"], 0);
  EXPECT_GT(begins["mdp_build"], 0);
  // Per-job async spans pair up; every route opened also closed.
  EXPECT_GT(async_b, 0u);
  EXPECT_EQ(async_b, async_e);
  // Cycle-domain counter tracks (droplet count & co) landed on pid 2.
  EXPECT_GT(counters, 0u);
  EXPECT_GT(cycle_events, 0u);
}

TEST_F(ObsScheduler, SynthesisSpansNestInsideTheRunSpan) {
#ifdef MEDA_OBS_DISABLED
  GTEST_SKIP() << "instrumentation compiled out (MEDA_OBS=OFF)";
#endif
  ctx().tracer().enable();
  run_seeded(7);
  // Replay the B/E stream: whenever a synthesis span ("synthesize" or the
  // incremental "resynthesize") is open, the "execute" span must be open
  // too (synthesis happens inside the run).
  const auto is_synth = [](const std::string& name) {
    return name == "synthesize" || name == "resynthesize";
  };
  int execute_depth = 0, synth_depth = 0;
  std::vector<std::string> stack;
  for (const TraceEvent& event : ctx().tracer().events()) {
    if (event.tid != TraceTrack::kMainTid) continue;
    if (event.ph == 'B') {
      stack.push_back(event.name);
      if (event.name == "execute") ++execute_depth;
      if (is_synth(event.name)) {
        ++synth_depth;
        EXPECT_GT(execute_depth, 0) << "synthesize outside execute";
      }
    } else if (event.ph == 'E') {
      ASSERT_FALSE(stack.empty());
      if (stack.back() == "execute") --execute_depth;
      if (is_synth(stack.back())) --synth_depth;
      stack.pop_back();
    }
  }
  EXPECT_TRUE(stack.empty());
  EXPECT_EQ(execute_depth, 0);
  EXPECT_EQ(synth_depth, 0);
}

/// Strips `_seconds`-suffixed series (the only nondeterministic ones — see
/// metrics.hpp) from a text snapshot.
std::string strip_time_series(const std::string& snapshot) {
  std::istringstream in(snapshot);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("_seconds") == std::string::npos) out << line << '\n';
  }
  return out.str();
}

TEST_F(ObsScheduler, MetricsSnapshotsAreDeterministicForAFixedSeed) {
#ifdef MEDA_OBS_DISABLED
  GTEST_SKIP() << "instrumentation compiled out (MEDA_OBS=OFF)";
#endif
  ctx().metrics().enable();
  run_seeded(7);
  const std::string first = strip_time_series(ctx().metrics().snapshot_text());

  ctx().reset();
  ctx().metrics().enable();
  run_seeded(7);
  const std::string second =
      strip_time_series(ctx().metrics().snapshot_text());

  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // The snapshot carries the scheduler/synthesis/filter series the docs
  // promise.
  EXPECT_NE(first.find("sched.runs"), std::string::npos);
  EXPECT_NE(first.find("synth.calls"), std::string::npos);
  EXPECT_NE(first.find("filter.frames"), std::string::npos);
  EXPECT_TRUE(JsonLint::valid(ctx().metrics().snapshot_json()));
}

TEST_F(ObsScheduler, NullSinkRunMatchesInstrumentedRunExactly) {
  // Observability must be read-only: enabling the sinks cannot perturb the
  // simulation. Compare everything except wall-clock time.
  const core::ExecutionStats quiet = run_seeded(7);

  ctx().tracer().enable();
  ctx().metrics().enable();
  const core::ExecutionStats loud = run_seeded(7);

  EXPECT_EQ(quiet.success, loud.success);
  EXPECT_EQ(quiet.cycles, loud.cycles);
  EXPECT_EQ(quiet.synthesis_calls, loud.synthesis_calls);
  EXPECT_EQ(quiet.library_hits, loud.library_hits);
  EXPECT_EQ(quiet.resyntheses, loud.resyntheses);
  EXPECT_EQ(quiet.completed_mos, loud.completed_mos);
  EXPECT_EQ(quiet.aborted_mos, loud.aborted_mos);
  EXPECT_EQ(quiet.recovery, loud.recovery);
  EXPECT_EQ(quiet.events, loud.events);
  // The event log needs no sink, and a real run's log renders as JSON.
  EXPECT_TRUE(JsonLint::valid(events_json(quiet.events)));
  ASSERT_EQ(quiet.mo_timings.size(), loud.mo_timings.size());
  for (std::size_t i = 0; i < quiet.mo_timings.size(); ++i) {
    EXPECT_EQ(quiet.mo_timings[i].activated, loud.mo_timings[i].activated);
    EXPECT_EQ(quiet.mo_timings[i].completed, loud.mo_timings[i].completed);
  }
}

TEST_F(ObsScheduler, DropletCountMatchesTheSimulatorOnEveryCycle) {
#ifdef MEDA_OBS_DISABLED
  GTEST_SKIP() << "instrumentation compiled out (MEDA_OBS=OFF)";
#endif
  // The scheduler's droplets_on_chip sample at cycle t against the droplet
  // frame the simulator recorded after its step t. The two share no code:
  // one counts the scheduler's bookkeeping, the other the chip's droplets.
  // Parked outputs wait on the chip in every evaluation assay. Their
  // dispenses lie next to their ports, so each first replica arrives before
  // the next can launch; a two-replica dispense in mid-chip adds a loser
  // that leaves the chip at the end of the vote's cycle.
  std::vector<assay::MoList> lists = assay::evaluation_suite();
  lists.push_back(assay::parse_assay_string(
      "name replicated-dispense\nM0 = dis 30 15 16\nM1 = out M0 55 15\n"));
  lists.back().ops[0].replicas = 2;
  core::SchedulerConfig replicated = robust_router();
  replicated.replicate_critical_dispenses = 2;
  sim::SimulatedChipConfig chip_config = noisy_chip_config();
  chip_config.record_droplet_trace = true;
  int retired = 0;
  for (const core::SchedulerConfig& config :
       {core::SchedulerConfig{}, replicated}) {
    for (const assay::MoList& list : lists) {
      ctx().tracer().clear();
      ctx().tracer().enable();
      sim::SimulatedChip chip(chip_config, Rng(11));
      const core::ExecutionStats stats =
          core::Scheduler(config).run(chip, list);
      retired += stats.replica.retired;
      const auto& frames = chip.droplet_trace();
      ASSERT_EQ(frames.size(), stats.cycles) << list.name;
      std::uint64_t samples = 0;
      for (const TraceEvent& event : ctx().tracer().events()) {
        if (event.ph != 'C' || event.pid != TraceTrack::kCyclePid) continue;
        if (event.name != "droplets_on_chip") continue;
        const double value = std::stod(event.args.at(0).second);
        ++samples;
        ASSERT_GE(event.ts, 1u);
        ASSERT_LE(event.ts, frames.size());
        ASSERT_EQ(value, static_cast<double>(frames[event.ts - 1].size()))
            << list.name << " at cycle " << event.ts
            << (config.replicate_critical_dispenses > 1 ? " (replicated)"
                                                        : "");
      }
      EXPECT_EQ(samples, stats.cycles) << list.name;
    }
  }
  EXPECT_GT(retired, 0) << "no replica retired";
}

}  // namespace
}  // namespace meda::obs
