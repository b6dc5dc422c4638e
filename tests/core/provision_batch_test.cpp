#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "assay/benchmarks.hpp"
#include "assay/parser.hpp"
#include "core/library.hpp"
#include "core/scheduler.hpp"
#include "obs/capture.hpp"
#include "obs/obs.hpp"
#include "sim/simulated_chip.hpp"
#include "util/handoff.hpp"

/// Concurrent provisioning: when a merge's or a split's two routes start
/// together, the scheduler hands the later route's synthesis to a helper
/// thread and adopts the result only if nothing it read has changed. These
/// tests hold it to the inline path, record for record: the obs capture the
/// helper records into, a merge that fails before the handed synthesis is
/// needed, and whole lifetimes of the evaluation assays on a wearing chip,
/// against runs whose handoffs all fall back inline because every helper is
/// kept busy.

namespace meda::core {
namespace {

using namespace std::chrono_literals;

// ---- The capture --------------------------------------------------------

/// One of each record the synthesis chain makes, into @p target.
void record_sample(obs::Context& target) {
  target.metrics().add("synth.calls", 2);
  target.metrics().set("gauge", 1.5);
  target.metrics().observe("synth.total_seconds", 0.003,
                           obs::kSecondsBuckets);
  target.metrics().observe_log2("vi.sweep_count", 17.0);
  {
    obs::SpanScope span(target.tracer(), "synth", "resynthesize");
    span.arg("states", std::int64_t{42});
    obs::SpanScope inner(target.tracer(), "vi", "solve");
  }
  target.tracer().sweep_counter("vi.residual.rmin", 0.25, 3);
  target.tracer().instant("event", "marker", "detail");
}

/// The tracer's events without their wall-clock fields.
std::vector<std::string> events_without_time(const obs::Tracer& tracer) {
  std::vector<std::string> out;
  for (const obs::TraceEvent& e : tracer.events()) {
    std::ostringstream os;
    os << e.ph << ' ' << e.pid << ' ' << e.tid << ' ' << e.id << ' '
       << e.cat << '/' << e.name;
    for (const auto& [key, value] : e.args) os << ' ' << key << '=' << value;
    out.push_back(os.str());
  }
  return out;
}

/// A context with both sinks on and one record already in each.
void enable_with_history(obs::Context& c) {
  c.metrics().enable();
  c.tracer().enable();
  c.metrics().add("before", 1);
  c.tracer().instant("event", "before");
}

TEST(ProvisionBatch, ADroppedCaptureLeavesTheSinksUntouched) {
  obs::Context target;
  enable_with_history(target);
  const std::string metrics = target.metrics().snapshot_text();
  const std::string trace = target.tracer().to_json();
  {
    obs::Capture capture(target);
    std::thread helper([&] {
      const obs::Capture::Scope scope(capture);
      record_sample(target);
    });
    helper.join();
    EXPECT_FALSE(capture.empty());
    capture.drop();
    EXPECT_TRUE(capture.empty());
  }
  // The helper's track is not even named in the export.
  EXPECT_EQ(target.metrics().snapshot_text(), metrics);
  EXPECT_EQ(target.tracer().to_json(), trace);
}

TEST(ProvisionBatch, ACommittedCaptureEqualsRecordingDirectly) {
  obs::Context direct, captured;
  enable_with_history(direct);
  enable_with_history(captured);
  std::thread([&] { record_sample(direct); }).join();
  obs::Capture capture(captured);
  std::thread([&] {
    const obs::Capture::Scope scope(capture);
    record_sample(captured);
  }).join();
  // Nothing reaches the target before the commit.
  EXPECT_EQ(captured.metrics().counter("synth.calls"), 0u);
  capture.commit();
  EXPECT_TRUE(capture.empty());
  EXPECT_EQ(captured.metrics().snapshot_text(),
            direct.metrics().snapshot_text());
  // Same events in the same order, the spans on the recording thread's own
  // track (the first worker track, as when recorded directly).
  EXPECT_EQ(events_without_time(captured.tracer()),
            events_without_time(direct.tracer()));
  EXPECT_EQ(captured.tracer().to_json().find("worker-2"), std::string::npos);
  EXPECT_NE(captured.tracer().to_json().find("worker-1"), std::string::npos);
}

TEST(ProvisionBatch, ACaptureDivertsOnlyItsThreadAndItsTarget) {
  obs::Context target, other;
  target.metrics().enable();
  other.metrics().enable();
  obs::Capture capture(target);
  {
    const obs::Capture::Scope scope(capture);
    other.metrics().add("elsewhere", 1);                // another context
    std::thread([&] { target.metrics().add("other thread", 1); }).join();
    target.metrics().add("held", 1);
  }
  target.metrics().add("after the scope", 1);
  EXPECT_EQ(other.metrics().counter("elsewhere"), 1u);
  EXPECT_EQ(target.metrics().counter("other thread"), 1u);
  EXPECT_EQ(target.metrics().counter("after the scope"), 1u);
  EXPECT_EQ(target.metrics().counter("held"), 0u);
  capture.commit();
  EXPECT_EQ(target.metrics().counter("held"), 1u);
}

// ---- The scheduler against the inline path ------------------------------

/// Keeps every helper thread busy until destroyed, so that every handoff
/// the scheduler makes meanwhile finds none free and falls back inline.
class BusyHelpers {
 public:
  BusyHelpers() {
    // A helper that just finished other work may still read busy for a
    // moment: offer blocking work until every helper runs some.
    while (util::helpers_busy() < util::helper_count()) {
      blockers_.push_back(std::make_unique<util::Handoff>([this] {
        std::unique_lock<std::mutex> lock(mu_);
        released_cv_.wait(lock, [this] { return released_; });
      }));
      std::this_thread::sleep_for(1ms);
    }
  }
  ~BusyHelpers() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    released_cv_.notify_all();
    blockers_.clear();
  }

 private:
  std::mutex mu_;
  std::condition_variable released_cv_;
  bool released_ = false;
  std::vector<std::unique_ptr<util::Handoff>> blockers_;
};

/// A simulated chip that logs every command it is given: equal logs mean
/// the runs' strategies chose the same action in every state they visited.
class RecordingChip : public BiochipIo {
 public:
  RecordingChip(const sim::SimulatedChipConfig& config, std::uint64_t seed)
      : chip_(config, Rng(seed)) {}

  sim::SimulatedChip& chip() { return chip_; }
  const std::vector<std::tuple<std::uint64_t, DropletId, int, DropletId>>&
  log() const {
    return log_;
  }

  Rect bounds() const override { return chip_.bounds(); }
  int health_bits() const override { return chip_.health_bits(); }
  IntMatrix sense_health() const override { return chip_.sense_health(); }
  Rect droplet_position(DropletId id) const override {
    return chip_.droplet_position(id);
  }
  bool location_clear(const Rect& at) const override {
    return chip_.location_clear(at);
  }
  DropletId dispense(const Rect& at) override { return chip_.dispense(at); }
  void discard(DropletId id) override { chip_.discard(id); }
  DropletId merge(DropletId a, DropletId b, const Rect& merged) override {
    return chip_.merge(a, b, merged);
  }
  bool split_clear(DropletId id, const Rect& part0,
                   const Rect& part1) const override {
    return chip_.split_clear(id, part0, part1);
  }
  std::pair<DropletId, DropletId> split(DropletId id, const Rect& part0,
                                        const Rect& part1) override {
    return chip_.split(id, part0, part1);
  }
  void step(const std::vector<Command>& commands) override {
    for (const Command& c : commands)
      log_.emplace_back(chip_.cycle(), c.droplet,
                        c.action ? static_cast<int>(*c.action) : -1,
                        c.merge_partner);
    chip_.step(commands);
  }
  std::uint64_t cycle() const override { return chip_.cycle(); }

 private:
  sim::SimulatedChip chip_;
  std::vector<std::tuple<std::uint64_t, DropletId, int, DropletId>> log_;
};

/// Everything one scheduled workload leaves, wall-clock time aside.
struct Outcome {
  std::vector<ExecutionStats> stats;
  std::vector<std::tuple<std::uint64_t, DropletId, int, DropletId>> commands;
  LibraryStats library;
  std::string metrics;  ///< snapshot without `_seconds` series
  int helper_spans = 0;  ///< synthesis spans recorded on a helper's track
};

std::string without_time_series(const std::string& snapshot) {
  std::istringstream in(snapshot);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line))
    if (line.find("_seconds") == std::string::npos) out << line << '\n';
  return out.str();
}

/// Runs @p assay @p executions times on one wearing chip with one shared
/// library, with the process context's sinks on.
Outcome run_lifetime(const assay::MoList& assay, std::uint64_t seed,
                     int executions, const SchedulerConfig& config,
                     const sim::SimulatedChipConfig& chip_config) {
  obs::ctx().reset();
  obs::ctx().metrics().enable();
  obs::ctx().tracer().enable();
  Outcome out;
  RecordingChip chip(chip_config, seed);
  StrategyLibrary library;
  Scheduler scheduler(config, &library);
  for (int i = 0; i < executions; ++i) {
    const int busy = util::helpers_busy();  // BusyHelpers' blockers
    out.stats.push_back(scheduler.run(chip, assay));
    // No helper work outlives the run that handed it out.
    EXPECT_EQ(util::helpers_busy(), busy);
    chip.chip().clear_droplets();
  }
  out.commands = chip.log();
  out.library = library.stats();
  out.metrics = without_time_series(obs::ctx().metrics().snapshot_text());
  for (const obs::TraceEvent& e : obs::ctx().tracer().events())
    if (e.ph == 'B' && e.cat == "synth" && e.tid != obs::TraceTrack::kMainTid)
      ++out.helper_spans;
  obs::ctx().reset();
  return out;
}

void expect_same_stats(const ExecutionStats& a, const ExecutionStats& b) {
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.synthesis_calls, b.synthesis_calls);
  EXPECT_EQ(a.library_hits, b.library_hits);
  EXPECT_EQ(a.resyntheses, b.resyntheses);
  EXPECT_EQ(a.resyntheses_warm, b.resyntheses_warm);
  EXPECT_EQ(a.resyntheses_certified, b.resyntheses_certified);
  EXPECT_EQ(a.failure_reason, b.failure_reason);
  EXPECT_EQ(a.recovery, b.recovery);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.completed_mos, b.completed_mos);
  EXPECT_EQ(a.aborted_mos, b.aborted_mos);
  EXPECT_EQ(a.replica, b.replica);
  ASSERT_EQ(a.mo_timings.size(), b.mo_timings.size());
  for (std::size_t i = 0; i < a.mo_timings.size(); ++i) {
    EXPECT_EQ(a.mo_timings[i].activated, b.mo_timings[i].activated);
    EXPECT_EQ(a.mo_timings[i].completed, b.mo_timings[i].completed);
    EXPECT_EQ(a.mo_timings[i].done, b.mo_timings[i].done);
  }
  ASSERT_EQ(a.routes.size(), b.routes.size());
  for (std::size_t i = 0; i < a.routes.size(); ++i) {
    EXPECT_EQ(a.routes[i].mo, b.routes[i].mo);
    EXPECT_EQ(a.routes[i].expected_cycles, b.routes[i].expected_cycles);
    EXPECT_EQ(a.routes[i].actual_cycles, b.routes[i].actual_cycles);
  }
}

void expect_same(const Outcome& a, const Outcome& b) {
  ASSERT_EQ(a.stats.size(), b.stats.size());
  for (std::size_t i = 0; i < a.stats.size(); ++i) {
    SCOPED_TRACE("execution " + std::to_string(i));
    expect_same_stats(a.stats[i], b.stats[i]);
  }
  EXPECT_EQ(a.commands, b.commands);
  EXPECT_EQ(a.library, b.library);
  EXPECT_EQ(a.metrics, b.metrics);
}

sim::SimulatedChipConfig chip_config() {
  sim::SimulatedChipConfig config;
  config.chip.width = assay::kChipWidth;
  config.chip.height = assay::kChipHeight;
  return config;
}

/// A chip wearing out within a few executions (Fig. 15's c ~ U(60, 150)).
sim::SimulatedChipConfig wearing_chip() {
  sim::SimulatedChipConfig config = chip_config();
  config.chip.degradation = DegradationRange{0.5, 0.9, 60.0, 150.0};
  return config;
}

/// Runs the workload with free helpers until a run adopts a helper's
/// synthesis (a loaded host may leave every handoff to the inline path),
/// checking each run against @p inline_run.
void expect_adopting_runs_match(
    const Outcome& inline_run,
    const std::function<Outcome()>& run_with_free_helpers) {
  bool adopted = false;
  for (int attempt = 0; attempt < 5 && !adopted; ++attempt) {
    const Outcome concurrent = run_with_free_helpers();
    expect_same(concurrent, inline_run);
    adopted = concurrent.helper_spans > 0;
  }
  EXPECT_TRUE(adopted) << "no run adopted a helper's synthesis";
}

TEST(ProvisionBatch, MergesAndSplitsOnAWearingChipMatchTheInlinePath) {
  if (util::helper_count() == 0) GTEST_SKIP() << "no helper threads here";
#ifdef MEDA_OBS_DISABLED
  GTEST_SKIP() << "instrumentation compiled out (MEDA_OBS=OFF)";
#endif
  SchedulerConfig config;
  config.max_cycles = 1200;
  for (const assay::MoList& assay :
       {assay::nuip(), assay::covid_pcr(), assay::serial_dilution()}) {
    SCOPED_TRACE(assay.name);
    const auto run = [&] {
      return run_lifetime(assay, 1003, 4, config, wearing_chip());
    };
    Outcome inline_run;
    {
      const BusyHelpers busy;
      inline_run = run();
    }
    EXPECT_EQ(inline_run.helper_spans, 0);
    expect_adopting_runs_match(inline_run, run);
  }
}

/// M0's droplet parks west of a dead wall that spans the chip; the mix
/// site lies east of it. The merge's first route (M0's droplet) is
/// infeasible, and with recovery off the execution fails there, before the
/// second route asks for the synthesis a helper may be running.
assay::MoList walled_merge() {
  return assay::parse_assay_string(
      "name WalledMerge\n"
      "M0 = dis 8.5 11.5 16\n"
      "M1 = dis 50.5 11.5 16\n"
      "M2 = mix M0 M1 30.5 11.5 hold=2\n"
      "M3 = out M2 30.5 3.5\n");
}

void build_wall(sim::SimulatedChip& chip) {
  for (int y = 0; y < assay::kChipHeight; ++y)
    for (int x = 14; x <= 15; ++x) chip.substrate().inject_fault(x, y, 0);
}

TEST(ProvisionBatch, AFailedFirstPartnerDropsTheHandedSynthesis) {
  if (util::helper_count() == 0) GTEST_SKIP() << "no helper threads here";
  const assay::MoList list = walled_merge();
  const sim::SimulatedChipConfig walled = chip_config();
  const auto run = [&] {
    obs::ctx().reset();
    obs::ctx().metrics().enable();
    obs::ctx().tracer().enable();
    Outcome out;
    RecordingChip chip(walled, 7);
    build_wall(chip.chip());
    StrategyLibrary library;
    SchedulerConfig config;
    config.max_cycles = 600;
    const int busy = util::helpers_busy();
    out.stats.push_back(Scheduler(config, &library).run(chip, list));
    EXPECT_EQ(util::helpers_busy(), busy);
    out.commands = chip.log();
    out.library = library.stats();
    out.metrics = without_time_series(obs::ctx().metrics().snapshot_text());
    obs::ctx().reset();
    return out;
  };
  Outcome inline_run;
  {
    const BusyHelpers busy;
    inline_run = run();
  }
  ASSERT_FALSE(inline_run.stats[0].success);
  EXPECT_EQ(inline_run.stats[0].failure_reason,
            "no feasible routing strategy for MO 2");
  // The two dispense routes and the first partner's: the second partner's
  // synthesis never ran.
  EXPECT_EQ(inline_run.stats[0].synthesis_calls, 3);
  // Five runs with free helpers: each leaves what the inline run left, as
  // if the second synthesis never ran.
  for (int attempt = 0; attempt < 5; ++attempt) expect_same(run(), inline_run);
}

TEST(ProvisionBatch, NoHelperWorkOutlivesTheRun) {
  if (util::helper_count() == 0) GTEST_SKIP() << "no helper threads here";
  // The walled merge fails while a helper may still be synthesizing the
  // second partner's route, and a feasible assay adopts its handoffs; when
  // run returns, no helper runs anything either way.
  const assay::MoList walled = walled_merge();
  for (int i = 0; i < 10; ++i) {
    sim::SimulatedChip chip(chip_config(), Rng(7));
    build_wall(chip);
    EXPECT_FALSE(Scheduler(SchedulerConfig{}).run(chip, walled).success);
    EXPECT_EQ(util::helpers_busy(), 0);
  }
  for (const assay::MoList& assay : assay::evaluation_suite()) {
    sim::SimulatedChip chip(chip_config(), Rng(11));
    EXPECT_TRUE(Scheduler(SchedulerConfig{}).run(chip, assay).success)
        << assay.name;
    EXPECT_EQ(util::helpers_busy(), 0) << assay.name;
  }
}

}  // namespace
}  // namespace meda::core
