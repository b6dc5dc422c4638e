// Chip-reuse scenario (Section VII-B motivation): a CMOS MEDA biochip should
// survive a panel of diagnostic tests. Runs COVID-PCR repeatedly on the same
// chip with the adaptive and the baseline router and reports how many
// executions each sustains before the first failure.

#include <iostream>

#include "assay/benchmarks.hpp"
#include "core/routability.hpp"
#include "sim/campaign.hpp"
#include "util/table.hpp"

using namespace meda;

namespace {

int executions_before_first_failure(
    const std::vector<core::ExecutionStats>& runs) {
  int n = 0;
  for (const core::ExecutionStats& r : runs) {
    if (!r.success) break;
    ++n;
  }
  return n;
}

}  // namespace

int main() {
  const assay::MoList assay_list = assay::covid_pcr();
  std::cout << "Repeatedly executing " << assay_list.name
            << " on one chip (degradation persists between runs)\n\n";

  sim::CampaignConfig campaign;
  campaign.chip.chip.width = assay::kChipWidth;
  campaign.chip.chip.height = assay::kChipHeight;
  // Accelerated degradation so the lifetime difference shows in 14 runs.
  campaign.chip.chip.degradation = DegradationRange{0.5, 0.9, 60.0, 150.0};
  campaign.chips = 1;
  campaign.runs_per_chip = 14;
  campaign.seed0 = 99;  // identical chip for both routers
  std::vector<sim::RouterConfig> routers(2);
  routers[0].name = "adaptive (proposed)";
  routers[1].name = "baseline (shortest path)";
  routers[1].scheduler.adaptive = false;
  for (sim::RouterConfig& router : routers) router.scheduler.max_cycles = 1200;

  Table table({"router", "runs attempted", "successes",
               "runs before 1st failure", "mean cycles (successful)"});
  for (const sim::CampaignCell& cell :
       sim::run_campaign({assay_list}, routers, campaign)) {
    const std::vector<core::ExecutionStats>& runs = cell.runs.front();
    int successes = 0;
    double cycle_sum = 0.0;
    for (const core::ExecutionStats& r : runs) {
      if (r.success) {
        ++successes;
        cycle_sum += static_cast<double>(r.cycles);
      }
    }
    table.add_row({cell.router, std::to_string(runs.size()),
                   std::to_string(successes),
                   std::to_string(executions_before_first_failure(runs)),
                   successes > 0 ? fmt_double(cycle_sum / successes, 1)
                                 : "-"});
  }

  table.print(std::cout);
  std::cout << "\nThe adaptive router steers around worn microelectrodes and\n"
               "sustains more executions of the panel on the same chip.\n";

  // End-of-life analytics: sample routability of comparable chips at three
  // points in their life (fresh / mid-life / end-of-life wear).
  std::cout << "\nRoutability vs chip age (sampled 4x4 routing jobs):\n";
  Table health_table({"chip age", "feasible jobs", "mean E[cycles]",
                      "stretch vs fresh"});
  for (const std::uint64_t wear : {0ull, 150ull, 400ull}) {
    sim::SimulatedChipConfig config;
    config.chip.width = assay::kChipWidth;
    config.chip.height = assay::kChipHeight;
    config.chip.degradation = DegradationRange{0.5, 0.9, 60.0, 150.0};
    config.pre_wear_max = wear;
    sim::SimulatedChip chip(config, Rng(99));
    Rng sampler(4);
    const core::RoutabilityReport report = core::assess_routability(
        chip.sense_health(), chip.health_bits(), 40, sampler);
    health_table.add_row(
        {wear == 0 ? "fresh" : "pre-wear <= " + std::to_string(wear),
         fmt_prob(report.feasible_fraction),
         fmt_double(report.mean_expected_cycles, 1),
         fmt_double(report.mean_stretch, 2)});
  }
  health_table.print(std::cout);
  std::cout << "\nRetire the chip when the feasible fraction drops or the\n"
               "stretch factor makes time-to-result unacceptable.\n";
  return 0;
}
