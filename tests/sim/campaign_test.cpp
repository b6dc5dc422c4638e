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
  const auto a = run_campaign(assays, robust_router(), small_chaos());
  const auto b = run_campaign(assays, robust_router(), small_chaos());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const core::RunRollup& ra = a[i].rollup;
    const core::RunRollup& rb = b[i].rollup;
    EXPECT_EQ(ra.successes, rb.successes);
    EXPECT_EQ(ra.cycles.count(), rb.cycles.count());
    if (ra.cycles.count() > 0) {
      EXPECT_DOUBLE_EQ(ra.cycles.mean(), rb.cycles.mean());
    }
    EXPECT_EQ(ra.recovery, rb.recovery);
    EXPECT_EQ(a[i].bits_flipped, b[i].bits_flipped);
    EXPECT_EQ(a[i].frames_dropped, b[i].frames_dropped);
  }
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
  const auto cells = run_campaign(assays, two_routers(), parallel);
  ASSERT_EQ(cells.size(), serial.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].assay, serial[i].assay);
    EXPECT_EQ(cells[i].router, serial[i].router);
    EXPECT_EQ(cells[i].rollup.runs, serial[i].rollup.runs);
    EXPECT_EQ(cells[i].rollup.successes, serial[i].rollup.successes);
    // Bit-identical accumulation, not merely statistically equal.
    EXPECT_EQ(cells[i].rollup.cycles.mean(), serial[i].rollup.cycles.mean());
    EXPECT_EQ(cells[i].rollup.resyntheses, serial[i].rollup.resyntheses);
  }
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
  checkpointed.checkpoint.flush_every = 1;
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
  CampaignConfig resumed = small_chaos();
  resumed.checkpoint.path = cp_path;
  resumed.checkpoint.resume = true;
  resumed.jobs = 4;
  EXPECT_EQ(expected,
            csvs("chaos_resumed",
                 run_campaign(assays, robust_router(), resumed)));
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
  const auto expected = run_campaign(assays, robust_router(), fresh);
  ASSERT_EQ(resumed.size(), expected.size());
  for (std::size_t i = 0; i < resumed.size(); ++i) {
    EXPECT_EQ(resumed[i].rollup.successes, expected[i].rollup.successes);
    EXPECT_EQ(resumed[i].rollup.recovery, expected[i].rollup.recovery);
    EXPECT_EQ(resumed[i].bits_flipped, expected[i].bits_flipped);
  }
}

TEST(Campaign, CheckpointResumeReplaysOnlyMissingSlots) {
  const std::vector<assay::MoList> assays = {assay::covid_rat()};
  const std::string cp_path = ::testing::TempDir() + "campaign_cp.txt";
  std::remove(cp_path.c_str());
  CampaignConfig checkpointed = small_campaign();
  checkpointed.checkpoint.path = cp_path;
  checkpointed.checkpoint.flush_every = 1;
  const auto first =
      run_campaign(assays, two_routers(), checkpointed);

  CampaignConfig resumed_config = small_campaign();
  resumed_config.checkpoint.path = cp_path;
  resumed_config.checkpoint.resume = true;
  resumed_config.jobs = 3;
  const auto resumed = run_campaign(assays, two_routers(), resumed_config);
  ASSERT_EQ(resumed.size(), first.size());
  for (std::size_t i = 0; i < resumed.size(); ++i) {
    EXPECT_EQ(resumed[i].rollup.runs, first[i].rollup.runs);
    EXPECT_EQ(resumed[i].rollup.successes, first[i].rollup.successes);
    // Bit-identical: the replayed slots round-trip through the codec.
    EXPECT_EQ(resumed[i].rollup.cycles.mean(), first[i].rollup.cycles.mean());
    EXPECT_EQ(resumed[i].rollup.synthesis_seconds,
              first[i].rollup.synthesis_seconds);
    EXPECT_EQ(resumed[i].rollup.resyntheses, first[i].rollup.resyntheses);
    EXPECT_EQ(resumed[i].rollup.recovery, first[i].rollup.recovery);
  }
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
