// Chaos campaign: success-vs-sensor-noise curves (Fig. 16-style) under the
// composed adversaries of the robustness subsystem — a lying scan chain
// (transient bit flips + stuck DFFs + dropped frames) and injected substrate
// faults with heterogeneous pre-wear.
//
// Two routers run on identical chips at every noise level:
//   - adaptive : the paper's proactive router acting on raw scan frames;
//   - robust   : the same router behind the health filter, with the
//                recovery ladder armed (watchdog → re-sense → bounded
//                retries/backoff → quarantine → per-job abort);
//   - robust+nmr : the robust router plus N-modular redundancy — every
//                dispense feeding a mix launches 2 racing replicas through
//                region-disjoint corridors (k = 1 of N vote/merge, replica
//                failover ahead of the abort rung). Buys success rate at
//                the cost of extra droplet traffic and synthesis calls,
//                both reported in the same CSV.
//
// Expected shape: both routers match on a clean channel; as noise grows the
// raw-scan router chases phantom health changes (re-synthesis storms,
// infeasible plans from phantom-dead cells) while the robust router's curve
// degrades gracefully.

// Flags:
//   --jobs N           spread the (cell, chip) grid over N worker threads
//                      (0 = all hardware threads); table and CSV are
//                      byte-identical at any job count.
//   --full             add a NuIP assay row next to CEP (slower).
//   --smoke            tiny grid (1 chip x 1 run, 2 levels) for CI.
//   --metrics          also write chaos_campaign_metrics.csv (per-cell
//                      roll-up, one name-sorted column per metric).
//   --checkpoint PATH  persist completed (cell, chip) slots to PATH.
//   --resume           reload compatible completed slots from PATH.

#include <iostream>

#include "assay/benchmarks.hpp"
#include "sim/campaign.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace meda;

int main(int argc, char** argv) {
  const bool full = util::has_flag(argc, argv, "--full");
  const bool smoke = util::has_flag(argc, argv, "--smoke");
  sim::CampaignConfig config;
  config.jobs = util::parse_jobs_flag(argc, argv);
  config.checkpoint.path = util::flag_value(argc, argv, "--checkpoint", "");
  config.checkpoint.resume = util::has_flag(argc, argv, "--resume");
  config.chip.chip.width = assay::kChipWidth;
  config.chip.chip.height = assay::kChipHeight;
  // End-of-life chips: fast degradation, heavy pre-wear, a dense clustered
  // fault population that keeps failing during the campaign. Harsh enough
  // that the curves collapse at the top of the noise axis (a full
  // Fig. 16-style success curve, not just its flat beginning).
  config.chip.chip.degradation = DegradationRange{0.5, 0.9, 40.0, 100.0};
  config.chip.pre_wear_max = 250;
  config.chip.faults.mode = FaultMode::kClustered;
  config.chip.faults.faulty_fraction = 0.08;
  config.chip.faults.fail_at_lo = 10;
  config.chip.faults.fail_at_hi = 100;
  config.chips = smoke ? 1 : 3;
  config.runs_per_chip = smoke ? 1 : 4;
  config.seed0 = 4200;

  // The noise axis now reaches deep into the failure regime: at the top
  // levels 5% of the scan chain's DFFs are stuck and a fifth of all health
  // frames never arrive, so the controller flies mostly blind.
  config.levels.clear();  // replaces the default single clean level
  for (const double p : smoke ? std::vector<double>{0.0, 0.05}
                              : std::vector<double>{0.0, 0.01, 0.02, 0.05,
                                                    0.1}) {
    sim::ChaosLevel level;
    level.name = "p=" + fmt_double(p, 3);
    level.sensor.bit_flip_p = p;
    level.sensor.stuck_fraction = p >= 0.05 ? 0.05 : (p > 0.0 ? 0.01 : 0.0);
    level.sensor.frame_drop_p = p >= 0.05 ? 0.2 : (p > 0.0 ? 0.02 : 0.0);
    config.levels.push_back(level);
  }
  // Grid-shape flags feed the checkpoint digest via the salt so a smoke
  // checkpoint can never be resumed into a full campaign (or vice versa).
  config.checkpoint.salt =
      (full ? 1ull : 0ull) | (smoke ? 2ull : 0ull);

  // Longer assays than the smoke-test default: on a collapsing chip the
  // extra routing distance is exactly what exposes the late-life failures.
  sim::RouterConfig adaptive;
  adaptive.name = "adaptive";
  adaptive.scheduler.adaptive = true;
  adaptive.scheduler.max_cycles = 2500;

  sim::RouterConfig robust = adaptive;
  robust.name = "robust";
  robust.scheduler.filter.enabled = true;
  robust.scheduler.recovery.enabled = true;
  // End-of-life cells succeed with low probability rather than failing
  // outright, so droplets crawl. The ladder's stall detector, a watchdog on
  // the EWMA of Manhattan progress per cycle, gives them that patience
  // adaptively.
  robust.scheduler.recovery.quarantine_after_watchdogs = 3;

  sim::RouterConfig nmr = robust;
  nmr.name = "robust+nmr";
  nmr.scheduler.replicate_critical_dispenses = 2;

  std::cout << "=== Chaos campaign — success vs sensor noise ===\n("
            << (full ? "CEP + NuIP" : "CEP") << ", " << config.chips
            << " end-of-life faulty chips x " << config.runs_per_chip
            << " runs; stuck DFFs + frame drops at every p > 0,\n"
               " 5% stuck / 20% dropped frames at the harshest levels)\n\n";
  std::vector<assay::MoList> assays{assay::cep()};
  if (full) assays.push_back(assay::nuip());
  const std::vector<sim::CampaignCell> cells =
      sim::run_campaign(assays, {adaptive, robust, nmr}, config);
  sim::print_chaos_campaign(std::cout, cells);
  sim::write_chaos_csv("chaos_campaign.csv", cells);
  std::cout << "\n(Series also written to chaos_campaign.csv.)\n";
  if (util::has_flag(argc, argv, "--metrics")) {
    sim::write_chaos_metrics_csv("chaos_campaign_metrics.csv", cells);
    std::cout << "(Per-cell metrics written to chaos_campaign_metrics.csv.)\n";
  }
  std::cout << "Expected: the routers tie on a clean channel; the robust\n"
               "router leads through the mid-noise band (the filter absorbs\n"
               "phantom health changes the raw router chases), robust+nmr\n"
               "sits above it (a replicated critical dispense survives one\n"
               "dead corridor) at the price of extra droplet cycles and\n"
               "synthesis calls, and every curve collapses at the harshest\n"
               "level — with the chip this degraded, flying 80%-blind\n"
               "leaves no router a good plan.\n";
  return 0;
}
