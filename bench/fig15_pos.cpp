// Reproduces Fig. 15: probability of successful bioassay completion (PoS)
// within a cycle budget k_max, for the six benchmark bioassays, comparing the
// proposed adaptive synthesis framework against the degradation-unaware
// shortest-path baseline. Chips are reused: each chip executes the bioassay
// repeatedly and keeps degrading (the CMOS-reuse scenario of Section VII-B).
//
// Expected shape: adaptive >= baseline everywhere; the gap is largest for
// long bioassays at intermediate budgets (the paper quotes Serial Dilution at
// k_max = 300: 0.8 adaptive vs 0.1 baseline on their testbed).

// Pass `--jobs N` to spread the (configuration, chip) grid over N worker
// threads (0 = all hardware threads); every chip's seed is derived from its
// index alone and the per-chip results are concatenated in chip order, so
// the tables and CSV are byte-identical at any job count.
// `--checkpoint PATH` persists completed chips; `--resume` reloads them.

#include <iostream>
#include <vector>

#include "assay/benchmarks.hpp"
#include "sim/campaign.hpp"
#include "sim/experiments.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace meda;

int main(int argc, char** argv) {
  sim::CampaignConfig config;
  config.jobs = util::parse_jobs_flag(argc, argv);
  config.checkpoint.path = util::flag_value(argc, argv, "--checkpoint", "");
  config.checkpoint.resume = util::has_flag(argc, argv, "--resume");
  config.chip.chip.width = assay::kChipWidth;
  config.chip.chip.height = assay::kChipHeight;
  // Accelerated degradation constants (c scaled down ~3x from the paper's
  // U(200, 500)) so chip wear-out falls inside 14 executions; see
  // EXPERIMENTS.md for the scaling argument.
  config.chip.chip.degradation = DegradationRange{0.5, 0.9, 60.0, 150.0};
  config.chips = 6;           // chip instances per configuration
  config.runs_per_chip = 14;  // executions per chip (reuse)
  config.seed0 = 1000;        // same chips for both routers

  std::vector<sim::RouterConfig> routers(2);
  routers[0].name = "baseline";
  routers[0].scheduler.adaptive = false;
  routers[1].name = "adaptive";
  for (sim::RouterConfig& router : routers) router.scheduler.max_cycles = 1200;

  std::cout << "=== Fig. 15 — probability of successful completion vs k_max "
               "===\n("
            << config.chips << " chips x " << config.runs_per_chip
            << " executions per configuration)\n\n";

  const std::vector<std::uint64_t> kmax_grid = {100, 140, 180, 220, 260,
                                                300, 400, 600, 1000};

  // Machine-readable copy for external plotting.
  CsvWriter csv("fig15_pos.csv", {"assay", "router", "kmax", "pos"});

  const std::vector<assay::MoList> suite = assay::evaluation_suite();
  const std::vector<sim::CampaignCell> cells =
      sim::run_campaign(suite, routers, config);
  for (std::size_t a = 0; a < suite.size(); ++a) {
    std::cout << suite[a].name << ":\n";
    std::vector<std::string> headers = {"router"};
    for (const std::uint64_t k : kmax_grid)
      headers.push_back("k<=" + std::to_string(k));
    Table table(std::move(headers));
    for (std::size_t r = 0; r < routers.size(); ++r) {
      const sim::CampaignCell& cell = cells[a * routers.size() + r];
      std::vector<core::ExecutionStats> runs;
      for (const auto& chip_runs : cell.runs)
        runs.insert(runs.end(), chip_runs.begin(), chip_runs.end());
      std::vector<std::string> row = {cell.router};
      for (const std::uint64_t k : kmax_grid) {
        const double pos = sim::probability_of_success(runs, k);
        row.push_back(fmt_prob(pos));
        csv.write_row({cell.assay, cell.router, std::to_string(k),
                       fmt_prob(pos)});
      }
      table.add_row(std::move(row));
    }
    table.print(std::cout);
    std::cout << '\n';
  }
  std::cout << "Expected: the adaptive row dominates the baseline row; the\n"
               "largest gaps appear for the longer bioassays (Serial\n"
               "Dilution, NuIP) at intermediate budgets.\n"
               "(Series also written to fig15_pos.csv.)\n";
  return 0;
}
