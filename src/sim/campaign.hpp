#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "assay/mo.hpp"
#include "core/library.hpp"
#include "core/scheduler.hpp"
#include "sim/simulated_chip.hpp"

/// @file campaign.hpp
/// The chip-population runner of the evaluation (Section VII): a grid of
/// (bioassay × sensor-noise level × router configuration) evaluated over a
/// population of paired chips, each chip reused for repeated executions
/// under one strategy library and one scheduler, so its wear persists from
/// run to run. Every cell keeps each chip's executions, for per-run metrics
/// such as PoS(k_max), and rolls them up for the tables and CSVs. It runs
/// `bench/fig15_pos`, the ablations, `bench/fault_density_sweep`,
/// `bench/evaluation_summary` (all on the default single clean level) and
/// `bench/chaos_campaign` (a sensor-noise axis), and is the recommended way
/// to benchmark a custom router configuration against the built-in ones.
///
/// A chaos sweep composes sensor noise (the scan chain lies) with injected
/// faults and pre-wear (the substrate is damaged) into one grid, producing
/// the Fig. 16-style success-vs-noise curves for each router.

namespace meda::sim {

/// One named router (scheduler) configuration to evaluate.
struct RouterConfig {
  std::string name;
  core::SchedulerConfig scheduler;
};

/// Crash-safe checkpointing of the flattened (cell, chip) grid (see
/// util/checkpoint.hpp): completed slots are persisted with atomic
/// write-temp-then-rename, and a resumed run replays only the missing
/// slots. Results are identical — byte-for-byte in any CSV written from
/// the cells — whether the campaign ran straight through, was killed and
/// resumed, or resumed at a different jobs count, because each slot's
/// content depends only on its index. The file is keyed by a digest of the
/// grid identity (seeds, counts, assay/router/level names, every scheduler,
/// chip and sensor setting that reaches a result, plus the caller's salt);
/// a mismatch discards the stale file.
struct CampaignCheckpoint {
  std::string path;     ///< empty = checkpointing disabled
  bool resume = false;  ///< load compatible completed slots from the file
  std::uint64_t salt = 0;  ///< extra driver-config digest material
};

/// One point on the sensor-noise axis.
struct ChaosLevel {
  std::string name;           ///< series label (e.g. "p=0.01")
  SensorNoiseConfig sensor{};
};

/// Campaign-wide controls. The substrate configuration (faults, pre-wear)
/// comes from `chip`; its sensor field is overridden per level.
struct CampaignConfig {
  SimulatedChipConfig chip{};
  /// The sensor-noise axis; by default one level with a perfect sensor.
  std::vector<ChaosLevel> levels = {ChaosLevel{"clean", {}}};
  int chips = 5;            ///< chip instances per cell
  int runs_per_chip = 10;   ///< repeated executions per chip (reuse)
  std::uint64_t seed0 = 1;  ///< chip i uses seed0 + i (paired across
                            ///< routers and levels: same substrate)
  /// Worker threads for the (cell, chip) grid; 0 = one per CPU the process
  /// may run on. Per-chip seeding is index-derived and reduction is serial
  /// in grid order, so cells (and the CSV) are byte-identical at any job
  /// count (see docs/performance.md).
  int jobs = 1;
  CampaignCheckpoint checkpoint{};  ///< crash-safe slot persistence
};

/// Aggregated results of one (assay, level, router) cell.
struct CampaignCell {
  std::string assay;
  std::string router;
  std::string level;
  SensorNoiseConfig sensor{};
  core::RunRollup rollup;            ///< execution outcomes + ladder counters
  /// Every execution, indexed [chip][execution], holding the fields a
  /// checkpoint slot persists (the RunRollup::absorb inputs); the per-run
  /// logs (events, MO timings, routes, failure reason) are dropped, so a
  /// resumed cell equals a straight-through one field for field.
  std::vector<std::vector<core::ExecutionStats>> runs;
  std::uint64_t frames_dropped = 0;  ///< summed over all chips
  std::uint64_t bits_flipped = 0;    ///< summed over all chips
  /// Strategy-library operation counts summed over the cell's per-chip
  /// libraries (per-digest-class hits/misses/inserts/overwrites;
  /// the `library.*` columns of the metrics CSV).
  core::LibraryStats library;
};

/// Runs the (assay × level × router) grid. Substrate seeds are identical
/// across levels and routers, so each comparison is paired: the same chips,
/// differing only in sensing noise and router.
std::vector<CampaignCell> run_campaign(
    const std::vector<assay::MoList>& assays,
    const std::vector<RouterConfig>& routers, const CampaignConfig& config);

/// Prints the campaign as an aligned table (success rate ± CI over chips is
/// approximated by the binomial SE; cycles carry a t-based 95% CI).
void print_campaign(std::ostream& os,
                    const std::vector<CampaignCell>& cells);

/// Prints the chaos sweep as an aligned table with the noise level and the
/// recovery-ladder and replica counters.
void print_chaos_campaign(std::ostream& os,
                          const std::vector<CampaignCell>& cells);

/// Writes the cells to @p path as CSV: one row per cell with the noise
/// parameters, success rate, and every recovery-ladder counter.
void write_chaos_csv(const std::string& path,
                     const std::vector<CampaignCell>& cells);

/// Metrics roll-up CSV (--metrics): one row per grid cell with one
/// name-sorted column per metric derived from the cell's RunRollup (the
/// per-cell equivalent of the process-global obs metrics snapshot, which
/// cannot attribute counts to cells once the grid runs under --jobs).
void write_chaos_metrics_csv(const std::string& path,
                             const std::vector<CampaignCell>& cells);

}  // namespace meda::sim
