#include "sim/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "assay/benchmarks.hpp"
#include "util/check.hpp"

namespace meda::sim {
namespace {

/// The default single level, a perfect sensor: the plain campaign.
CampaignConfig small_campaign() {
  CampaignConfig config;
  config.chip.chip.width = assay::kChipWidth;
  config.chip.chip.height = assay::kChipHeight;
  config.chips = 2;
  config.runs_per_chip = 2;
  config.seed0 = 9;
  return config;
}

std::vector<RouterConfig> two_routers() {
  std::vector<RouterConfig> routers(2);
  routers[0].name = "baseline";
  routers[0].scheduler.adaptive = false;
  routers[1].name = "adaptive";
  return routers;
}

TEST(Campaign, GridShapeAndAccounting) {
  const std::vector<assay::MoList> assays = {assay::covid_rat(),
                                             assay::master_mix()};
  const auto cells = run_campaign(assays, two_routers(), small_campaign());
  ASSERT_EQ(cells.size(), 4u);  // 2 assays × 2 routers
  for (const CampaignCell& cell : cells) {
    EXPECT_EQ(cell.rollup.runs, 4);  // 2 chips × 2 runs
    EXPECT_EQ(cell.rollup.successes, 4);  // healthy chips: all succeed
    EXPECT_DOUBLE_EQ(cell.rollup.success_rate(), 1.0);
    EXPECT_EQ(cell.rollup.cycles.count(), 4u);
    EXPECT_GT(cell.rollup.synthesis_calls + cell.rollup.library_hits, 0);
  }
  EXPECT_EQ(cells[0].assay, "COVID-RAT");
  EXPECT_EQ(cells[0].router, "baseline");
  EXPECT_EQ(cells[1].router, "adaptive");
  EXPECT_EQ(cells[2].assay, "Master-Mix");
}

TEST(Campaign, PairedSeedingMakesRoutersComparable) {
  // On healthy chips the adaptive and baseline routers take identical
  // cycle counts (same seeds, same deterministic routes).
  const std::vector<assay::MoList> assays = {assay::covid_rat()};
  const auto cells = run_campaign(assays, two_routers(), small_campaign());
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_DOUBLE_EQ(cells[0].rollup.cycles.mean(),
                   cells[1].rollup.cycles.mean());
}

TEST(Campaign, PrintsEveryCell) {
  const std::vector<assay::MoList> assays = {assay::covid_rat()};
  const auto cells = run_campaign(assays, two_routers(), small_campaign());
  std::ostringstream os;
  print_campaign(os, cells);
  const std::string text = os.str();
  EXPECT_NE(text.find("COVID-RAT"), std::string::npos);
  EXPECT_NE(text.find("baseline"), std::string::npos);
  EXPECT_NE(text.find("adaptive"), std::string::npos);
  EXPECT_NE(text.find("±"), std::string::npos);
}

/// One chip per cell, reused for @p runs executions.
CampaignConfig one_chip(int runs) {
  CampaignConfig config = small_campaign();
  config.chips = 1;
  config.runs_per_chip = runs;
  config.seed0 = 7;
  return config;
}

TEST(Campaign, HealthyChipSucceedsEveryRun) {
  const auto cells = run_campaign({assay::covid_rat()},
                                  {RouterConfig{"adaptive", {}}}, one_chip(3));
  ASSERT_EQ(cells.size(), 1u);
  ASSERT_EQ(cells[0].runs.size(), 1u);
  ASSERT_EQ(cells[0].runs[0].size(), 3u);
  for (const core::ExecutionStats& run : cells[0].runs[0]) {
    EXPECT_TRUE(run.success);
    EXPECT_GT(run.cycles, 0u);
  }
}

TEST(Campaign, ChipDegradationPersistsAcrossRuns) {
  // With aggressive degradation, later runs take at least as long (the
  // transport corridor wears out).
  CampaignConfig config = one_chip(10);
  config.chip.chip.degradation = DegradationRange{0.5, 0.7, 60.0, 120.0};
  const auto cells = run_campaign({assay::serial_dilution()},
                                  {RouterConfig{"adaptive", {}}}, config);
  const std::vector<core::ExecutionStats>& runs = cells.at(0).runs.at(0);
  ASSERT_EQ(runs.size(), 10u);
  EXPECT_TRUE(runs.front().success);
  EXPECT_GT(runs.back().cycles + (runs.back().success ? 0 : 100000),
            runs.front().cycles);
}

/// The deterministic fields of two executions (all but the wall-clock
/// synthesis_seconds) are equal.
void expect_same_run(const core::ExecutionStats& a,
                     const core::ExecutionStats& b, const std::string& label) {
  EXPECT_EQ(a.success, b.success) << label;
  EXPECT_EQ(a.cycles, b.cycles) << label;
  EXPECT_EQ(a.completed_mos, b.completed_mos) << label;
  EXPECT_EQ(a.aborted_mos, b.aborted_mos) << label;
  EXPECT_EQ(a.synthesis_calls, b.synthesis_calls) << label;
  EXPECT_EQ(a.library_hits, b.library_hits) << label;
  EXPECT_EQ(a.resyntheses, b.resyntheses) << label;
  EXPECT_EQ(a.resyntheses_warm, b.resyntheses_warm) << label;
  EXPECT_EQ(a.resyntheses_certified, b.resyntheses_certified) << label;
  EXPECT_EQ(a.recovery, b.recovery) << label;
  EXPECT_EQ(a.replica, b.replica) << label;
}

/// Cell by cell, the names, the deterministic roll-up fields (bit for bit),
/// the channel tallies, the library counts and every execution match.
void expect_same_cells(const std::vector<CampaignCell>& got,
                       const std::vector<CampaignCell>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].assay, want[i].assay) << "cell " << i;
    EXPECT_EQ(got[i].level, want[i].level) << "cell " << i;
    EXPECT_EQ(got[i].router, want[i].router) << "cell " << i;
    const core::RunRollup& a = got[i].rollup;
    const core::RunRollup& b = want[i].rollup;
    EXPECT_EQ(a.runs, b.runs) << "cell " << i;
    EXPECT_EQ(a.successes, b.successes) << "cell " << i;
    EXPECT_EQ(a.cycles.count(), b.cycles.count()) << "cell " << i;
    if (a.cycles.count() > 0 && b.cycles.count() > 0) {
      EXPECT_EQ(a.cycles.mean(), b.cycles.mean()) << "cell " << i;
    }
    EXPECT_EQ(a.synthesis_calls, b.synthesis_calls) << "cell " << i;
    EXPECT_EQ(a.library_hits, b.library_hits) << "cell " << i;
    EXPECT_EQ(a.resyntheses, b.resyntheses) << "cell " << i;
    EXPECT_EQ(a.recovery, b.recovery) << "cell " << i;
    EXPECT_EQ(a.replica, b.replica) << "cell " << i;
    EXPECT_EQ(got[i].frames_dropped, want[i].frames_dropped) << "cell " << i;
    EXPECT_EQ(got[i].bits_flipped, want[i].bits_flipped) << "cell " << i;
    EXPECT_EQ(got[i].library, want[i].library) << "cell " << i;
    ASSERT_EQ(got[i].runs.size(), want[i].runs.size()) << "cell " << i;
    for (std::size_t c = 0; c < got[i].runs.size(); ++c) {
      ASSERT_EQ(got[i].runs[c].size(), want[i].runs[c].size());
      for (std::size_t r = 0; r < got[i].runs[c].size(); ++r)
        expect_same_run(got[i].runs[c][r], want[i].runs[c][r],
                        "cell " + std::to_string(i) + " chip " +
                            std::to_string(c) + " run " + std::to_string(r));
    }
  }
}

TEST(Campaign, ChipRunsMatchAPerChipReferenceLoop) {
  // The semantics Fig. 15 and the ablations rely on, rebuilt without the
  // campaign: chip i is SimulatedChip(Rng(seed0 + i).fork(0xC41)), reused
  // for every execution under one strategy library and one scheduler.
  CampaignConfig config = small_campaign();
  config.chip.chip.degradation = DegradationRange{0.5, 0.9, 60.0, 150.0};
  config.runs_per_chip = 3;
  config.jobs = 2;
  const assay::MoList assay_list = assay::master_mix();
  const std::vector<RouterConfig> routers = two_routers();
  const auto cells = run_campaign({assay_list}, routers, config);
  ASSERT_EQ(cells.size(), routers.size());
  int resyntheses = 0;
  for (std::size_t r = 0; r < routers.size(); ++r) {
    ASSERT_EQ(cells[r].runs.size(), 2u);
    for (int i = 0; i < config.chips; ++i) {
      SimulatedChip chip(
          config.chip,
          Rng(config.seed0 + static_cast<std::uint64_t>(i)).fork(0xC41));
      core::StrategyLibrary library;
      core::Scheduler scheduler(routers[r].scheduler, &library);
      const std::vector<core::ExecutionStats>& runs =
          cells[r].runs[static_cast<std::size_t>(i)];
      ASSERT_EQ(runs.size(), 3u);
      for (const core::ExecutionStats& run : runs) {
        chip.clear_droplets();
        const core::ExecutionStats expected = scheduler.run(chip, assay_list);
        const std::string label =
            routers[r].name + " chip " + std::to_string(i);
        EXPECT_EQ(run.success, expected.success) << label;
        EXPECT_EQ(run.cycles, expected.cycles) << label;
        EXPECT_EQ(run.synthesis_calls, expected.synthesis_calls) << label;
        EXPECT_EQ(run.library_hits, expected.library_hits) << label;
        EXPECT_EQ(run.resyntheses, expected.resyntheses) << label;
        // A cell keeps the roll-up fields only, not the per-run logs.
        EXPECT_TRUE(run.mo_timings.empty()) << label;
        EXPECT_TRUE(run.routes.empty()) << label;
        resyntheses += run.resyntheses;
      }
    }
  }
  EXPECT_GT(resyntheses, 0);  // the chips wore enough to re-synthesize
}

CampaignConfig small_chaos() {
  CampaignConfig config;
  config.chip.chip.width = assay::kChipWidth;
  config.chip.chip.height = assay::kChipHeight;
  ChaosLevel clean;
  clean.name = "clean";
  ChaosLevel noisy;
  noisy.name = "p=0.02";
  noisy.sensor.bit_flip_p = 0.02;
  noisy.sensor.stuck_fraction = 0.01;
  config.levels = {clean, noisy};
  config.chips = 1;
  config.runs_per_chip = 2;
  config.seed0 = 21;
  return config;
}

std::vector<RouterConfig> robust_router() {
  std::vector<RouterConfig> routers(1);
  routers[0].name = "robust";
  routers[0].scheduler.filter.enabled = true;
  routers[0].scheduler.recovery.enabled = true;
  return routers;
}

TEST(ChaosCampaign, GridShapeAndNoiseAccounting) {
  const std::vector<assay::MoList> assays = {assay::covid_rat()};
  const auto cells = run_campaign(assays, robust_router(), small_chaos());
  ASSERT_EQ(cells.size(), 2u);  // 1 assay × 2 levels × 1 router
  EXPECT_EQ(cells[0].level, "clean");
  EXPECT_EQ(cells[1].level, "p=0.02");
  for (const CampaignCell& cell : cells) EXPECT_EQ(cell.rollup.runs, 2);
  // Channel accounting: the clean level never corrupts a bit; the noisy
  // level (2% of thousands of bits per frame) essentially always does.
  EXPECT_EQ(cells[0].bits_flipped, 0u);
  EXPECT_GT(cells[1].bits_flipped, 0u);
}

TEST(ChaosCampaign, ReproducibleFromTheMasterSeed) {
  // The entire campaign — substrates, noise processes, recovery firings —
  // derives from seed0; two invocations must agree cell by cell.
  const std::vector<assay::MoList> assays = {assay::covid_rat()};
  expect_same_cells(run_campaign(assays, robust_router(), small_chaos()),
                    run_campaign(assays, robust_router(), small_chaos()));
}

TEST(ChaosCampaign, WritesOneCsvRowPerCell) {
  const std::vector<assay::MoList> assays = {assay::covid_rat()};
  const auto cells = run_campaign(assays, robust_router(), small_chaos());
  const std::string path =
      ::testing::TempDir() + "chaos_campaign_test.csv";
  write_chaos_csv(path, cells);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line.substr(0, 18), "assay,router,level");
  EXPECT_NE(line.find("success_rate"), std::string::npos);
  EXPECT_NE(line.find("quarantined_cells"), std::string::npos);
  int rows = 0;
  while (std::getline(in, line))
    if (!line.empty()) ++rows;
  EXPECT_EQ(rows, static_cast<int>(cells.size()));
}

TEST(ChaosCampaign, PrintsRecoveryColumns) {
  const std::vector<assay::MoList> assays = {assay::covid_rat()};
  const auto cells = run_campaign(assays, robust_router(), small_chaos());
  std::ostringstream os;
  print_chaos_campaign(os, cells);
  const std::string text = os.str();
  EXPECT_NE(text.find("noise"), std::string::npos);
  EXPECT_NE(text.find("quarantined"), std::string::npos);
  EXPECT_NE(text.find("p=0.02"), std::string::npos);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(ChaosCampaign, CsvIsByteIdenticalAtAnyJobCount) {
  // The parallel path derives every seed from the chip index and reduces
  // serially in grid order, so the CSV must match the serial one byte for
  // byte — the determinism contract of docs/performance.md.
  const std::vector<assay::MoList> assays = {assay::covid_rat()};
  CampaignConfig serial = small_chaos();
  serial.jobs = 1;
  CampaignConfig parallel = small_chaos();
  parallel.jobs = 8;
  const std::string serial_path =
      ::testing::TempDir() + "chaos_jobs1.csv";
  const std::string parallel_path =
      ::testing::TempDir() + "chaos_jobs8.csv";
  write_chaos_csv(serial_path,
                  run_campaign(assays, robust_router(), serial));
  write_chaos_csv(parallel_path,
                  run_campaign(assays, robust_router(), parallel));
  const std::string serial_csv = read_file(serial_path);
  ASSERT_FALSE(serial_csv.empty());
  EXPECT_EQ(serial_csv, read_file(parallel_path));
}

TEST(Campaign, ParallelCellsMatchTheSerialPath) {
  const std::vector<assay::MoList> assays = {assay::covid_rat()};
  CampaignConfig parallel = small_campaign();
  parallel.jobs = 4;
  const auto serial = run_campaign(assays, two_routers(), small_campaign());
  // Bit-identical accumulation, not merely statistically equal.
  expect_same_cells(run_campaign(assays, two_routers(), parallel), serial);
}

TEST(ChaosCampaign, MetricsCsvHasNameSortedColumnsAndOneRowPerCell) {
  const std::vector<assay::MoList> assays = {assay::covid_rat()};
  const auto cells = run_campaign(assays, robust_router(), small_chaos());
  const std::string path = ::testing::TempDir() + "chaos_metrics_test.csv";
  write_chaos_metrics_csv(path, cells);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  // The three identity columns, then one column per metric in name order.
  std::vector<std::string> columns;
  std::istringstream split(header);
  for (std::string field; std::getline(split, field, ',');)
    columns.push_back(field);
  ASSERT_GT(columns.size(), 3u);
  EXPECT_EQ(columns[0], "assay");
  EXPECT_EQ(columns[1], "router");
  EXPECT_EQ(columns[2], "level");
  EXPECT_TRUE(
      std::is_sorted(columns.begin() + 3, columns.end()));
  EXPECT_NE(header.find("recovery.fallback_routes"), std::string::npos);
  EXPECT_NE(header.find("sched.success_rate"), std::string::npos);
  int rows = 0;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) ++rows;
  EXPECT_EQ(rows, static_cast<int>(cells.size()));
}

CampaignConfig harsh_chaos() {
  // End-of-life chips in the spirit of bench/chaos_campaign: heavy pre-wear
  // plus a clustered fault population that keeps failing mid-run, so the
  // recovery ladder (and replica failover) actually fires.
  CampaignConfig config = small_chaos();
  config.chip.chip.degradation = DegradationRange{0.5, 0.9, 40.0, 100.0};
  config.chip.pre_wear_max = 250;
  config.chip.faults.mode = FaultMode::kClustered;
  config.chip.faults.faulty_fraction = 0.08;
  config.chip.faults.fail_at_lo = 10;
  config.chip.faults.fail_at_hi = 100;
  return config;
}

std::vector<RouterConfig> replicated_router() {
  std::vector<RouterConfig> routers = robust_router();
  routers[0].name = "robust+nmr";
  routers[0].scheduler.replicate_critical_dispenses = 2;
  return routers;
}

TEST(ChaosCampaign, AbortedMosMatchAbortedJobsWithReplicationLive) {
  // The ladder's abort invariant: every aborted MO is a graceful per-job
  // abort and vice versa. Replication must not disturb it — an abandoned
  // replica fails over silently and is NOT an aborted MO; only all-replica
  // failure escalates to the abort rung. aborted_mos counts aborted MO
  // states and aborted_jobs counts the abort rung's firings, so the two
  // are independent; five runs wear the clean-channel chip far enough that
  // MOs do abort, so the comparison is made on live aborts.
  const std::vector<assay::MoList> assays = {assay::master_mix()};
  CampaignConfig config = harsh_chaos();
  config.runs_per_chip = 5;
  const auto cells = run_campaign(assays, replicated_router(), config);
  std::uint64_t launched = 0;
  int aborted = 0;
  for (const CampaignCell& cell : cells) {
    EXPECT_EQ(cell.rollup.aborted_mos, cell.rollup.recovery.aborted_jobs)
        << cell.level;
    launched += static_cast<std::uint64_t>(cell.rollup.replica.launched);
    aborted += cell.rollup.aborted_mos;
  }
  EXPECT_GT(launched, 0u);  // replication was actually live
  EXPECT_GT(aborted, 0);    // and so was the abort rung

  // The replica counters reduce deterministically regardless of how the
  // (cell, chip) grid is spread over worker threads.
  CampaignConfig parallel = config;
  parallel.jobs = 3;
  const auto again =
      run_campaign(assays, replicated_router(), parallel);
  ASSERT_EQ(again.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].rollup.replica, again[i].rollup.replica);
    EXPECT_EQ(cells[i].rollup.aborted_mos, again[i].rollup.aborted_mos);
  }
}

TEST(ChaosCampaign, CheckpointedRunMatchesStraightThroughByteForByte) {
  const std::vector<assay::MoList> assays = {assay::covid_rat()};
  const std::string cp_path = ::testing::TempDir() + "chaos_cp.txt";
  std::remove(cp_path.c_str());

  // Both CSVs of a run, concatenated: the metrics CSV carries the library
  // block of the slot payload, which the published CSV does not.
  const auto csvs = [](const std::string& stem,
                       const std::vector<CampaignCell>& cells) {
    const std::string csv = ::testing::TempDir() + stem + ".csv";
    const std::string metrics = ::testing::TempDir() + stem + "_metrics.csv";
    write_chaos_csv(csv, cells);
    write_chaos_metrics_csv(metrics, cells);
    return read_file(csv) + read_file(metrics);
  };

  CampaignConfig plain = small_chaos();
  const std::vector<CampaignCell> cells =
      run_campaign(assays, robust_router(), plain);
  // The library block is live, so a resume that lost it would show.
  ASSERT_GT(cells.front().library.totals().misses, 0u);
  const std::string expected = csvs("chaos_plain", cells);

  CampaignConfig checkpointed = small_chaos();
  checkpointed.checkpoint.path = cp_path;
  EXPECT_EQ(expected,
            csvs("chaos_cp",
                 run_campaign(assays, robust_router(), checkpointed)));

  // Simulate a kill -9 partway through: drop the last slot lines from the
  // checkpoint, then resume at a different job count. Only the missing
  // slots recompute, and the CSV is still byte-identical.
  std::ifstream in(cp_path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  in.close();
  ASSERT_GT(lines.size(), 2u);  // header + at least two slots
  {
    std::ofstream out(cp_path, std::ios::trunc);
    for (std::size_t i = 0; i + 1 < lines.size(); ++i)
      out << lines[i] << '\n';
  }
  CampaignConfig resumed_config = small_chaos();
  resumed_config.checkpoint.path = cp_path;
  resumed_config.checkpoint.resume = true;
  resumed_config.jobs = 4;
  const std::vector<CampaignCell> resumed =
      run_campaign(assays, robust_router(), resumed_config);
  EXPECT_EQ(expected, csvs("chaos_resumed", resumed));
  expect_same_cells(resumed, cells);
}

TEST(ChaosCampaign, CheckpointDigestMismatchRecomputesEverything) {
  // A checkpoint from a different seed must never be grafted into a run:
  // the digest mismatch discards it and the results match a fresh run.
  const std::vector<assay::MoList> assays = {assay::covid_rat()};
  const std::string cp_path = ::testing::TempDir() + "chaos_cp_seed.txt";
  std::remove(cp_path.c_str());
  CampaignConfig first = small_chaos();
  first.checkpoint.path = cp_path;
  (void)run_campaign(assays, robust_router(), first);

  CampaignConfig reseeded = small_chaos();
  reseeded.seed0 = first.seed0 + 1;
  reseeded.checkpoint.path = cp_path;
  reseeded.checkpoint.resume = true;
  const auto resumed = run_campaign(assays, robust_router(), reseeded);
  CampaignConfig fresh = small_chaos();
  fresh.seed0 = reseeded.seed0;
  expect_same_cells(resumed, run_campaign(assays, robust_router(), fresh));
}

/// Sets the first hexfloat of a checkpoint slot line, its first run's
/// synthesis_seconds, to 1024: a value no recomputed run reads.
void mark_slot(std::string& line) {
  const std::size_t hex = line.find(" 0x");
  ASSERT_NE(hex, std::string::npos);
  const std::size_t hex_end = line.find(' ', hex + 1);
  line.replace(hex + 1, hex_end - hex - 1, "0x1p+10");
}

/// Marks every slot line of the checkpoint at @p path.
void mark_every_slot(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  in.close();
  ASSERT_GT(lines.size(), 1u);
  std::ofstream out(path, std::ios::trunc);
  out << lines[0] << '\n';
  for (std::size_t i = 1; i < lines.size(); ++i) {
    mark_slot(lines[i]);
    out << lines[i] << '\n';
  }
}

TEST(ChaosCampaign,
     CheckpointOfAnotherChipSensorOrSchedulerRecomputesEverything) {
  // A resume under another chip pre-wear, under another frame-drop rate
  // only, or under another scheduler setting of the same-named router (a
  // top-level one and one nested in the recovery ladder) must not graft the
  // checkpoint's slots: every slot is recomputed (no run keeps the marked
  // synthesis time) and the cells equal a fresh run of the new
  // configuration.
  const std::vector<assay::MoList> assays = {assay::covid_rat()};
  const std::string cp_path = ::testing::TempDir() + "chaos_cp_chip.txt";
  using Change = void (*)(CampaignConfig&, core::SchedulerConfig&);
  const std::vector<Change> changes = {
      [](CampaignConfig& c, core::SchedulerConfig&) {
        c.chip.pre_wear_max = 150;
      },
      [](CampaignConfig& c, core::SchedulerConfig&) {
        c.levels[1].sensor.frame_drop_p = 0.2;
      },
      [](CampaignConfig&, core::SchedulerConfig& s) { s.max_cycles = 150; },
      [](CampaignConfig&, core::SchedulerConfig& s) {
        s.recovery.quarantine_after_watchdogs = 3;
      }};
  for (const Change change : changes) {
    std::remove(cp_path.c_str());
    CampaignConfig first = small_chaos();
    first.checkpoint.path = cp_path;
    (void)run_campaign(assays, robust_router(), first);
    mark_every_slot(cp_path);

    CampaignConfig fresh = small_chaos();
    std::vector<RouterConfig> routers = robust_router();
    change(fresh, routers[0].scheduler);
    CampaignConfig resumed_config = fresh;
    resumed_config.checkpoint.path = cp_path;
    resumed_config.checkpoint.resume = true;
    const auto resumed = run_campaign(assays, routers, resumed_config);
    for (const CampaignCell& cell : resumed)
      for (const std::vector<core::ExecutionStats>& chip : cell.runs)
        for (const core::ExecutionStats& run : chip)
          EXPECT_NE(run.synthesis_seconds, 1024.0) << cell.level;
    expect_same_cells(resumed, run_campaign(assays, routers, fresh));
  }
}

TEST(Campaign, CheckpointResumeReplaysOnlyMissingSlots) {
  const std::vector<assay::MoList> assays = {assay::covid_rat()};
  const std::string cp_path = ::testing::TempDir() + "campaign_cp.txt";
  std::remove(cp_path.c_str());
  CampaignConfig checkpointed = small_campaign();
  checkpointed.checkpoint.path = cp_path;
  const auto first = run_campaign(assays, two_routers(), checkpointed);

  // Keep the header and the first cell's two chip slots, and mark slot 0:
  // its first hexfloat is the first run's synthesis_seconds.
  std::ifstream in(cp_path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  in.close();
  ASSERT_EQ(lines.size(), 5u);  // header + 2 routers × 2 chips
  ASSERT_EQ(lines[1].rfind("0 ", 0), 0u);
  ASSERT_EQ(lines[2].rfind("1 ", 0), 0u);
  mark_slot(lines[1]);
  {
    std::ofstream out(cp_path, std::ios::trunc);
    for (std::size_t i = 0; i < 3; ++i) out << lines[i] << '\n';
  }

  CampaignConfig resumed_config = small_campaign();
  resumed_config.checkpoint.path = cp_path;
  resumed_config.checkpoint.resume = true;
  resumed_config.jobs = 3;
  const auto resumed = run_campaign(assays, two_routers(), resumed_config);
  expect_same_cells(resumed, first);
  // The kept slots were read from the file, not recomputed: the edited one
  // carries the sentinel, and the other runs round-trip bit for bit.
  const std::vector<std::vector<core::ExecutionStats>>& kept =
      resumed[0].runs;
  EXPECT_EQ(kept[0][0].synthesis_seconds, 1024.0);
  EXPECT_EQ(kept[0][1].synthesis_seconds,
            first[0].runs[0][1].synthesis_seconds);
  for (std::size_t r = 0; r < kept[1].size(); ++r)
    EXPECT_EQ(kept[1][r].synthesis_seconds,
              first[0].runs[1][r].synthesis_seconds);
}

TEST(ChaosCampaign, RejectsEmptyLevels) {
  CampaignConfig config = small_chaos();
  config.levels.clear();
  EXPECT_THROW(run_campaign({assay::covid_rat()}, robust_router(),
                                  config),
               PreconditionError);
}

TEST(Campaign, RejectsEmptyInputs) {
  EXPECT_THROW(run_campaign({}, two_routers(), small_campaign()),
               PreconditionError);
  EXPECT_THROW(run_campaign({assay::covid_rat()}, {}, small_campaign()),
               PreconditionError);
  CampaignConfig bad = small_campaign();
  bad.chips = 0;
  EXPECT_THROW(run_campaign({assay::covid_rat()}, two_routers(), bad),
               PreconditionError);
}

}  // namespace
}  // namespace meda::sim
