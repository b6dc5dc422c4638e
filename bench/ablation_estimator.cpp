// Ablation: how the health-code → force estimator (DESIGN.md §5) affects
// adaptive routing on worn chips. The paper substitutes H for D directly;
// kScaled maps the top 2-bit code to full health and the bottom code to a
// dead MC. The bucket-based estimators (midpoint/lower/upper) mis-calibrate
// healthy cells (H=3 → force < 1), which makes the synthesizer over-avoid
// mildly worn cells and pay real detour cycles.

#include <iostream>

#include "assay/benchmarks.hpp"
#include "sim/campaign.hpp"
#include "util/table.hpp"

using namespace meda;

int main() {
  sim::CampaignConfig config;
  config.chip.chip.width = assay::kChipWidth;
  config.chip.chip.height = assay::kChipHeight;
  config.chip.chip.degradation = DegradationRange{0.5, 0.9, 60.0, 150.0};
  config.chips = 5;
  config.runs_per_chip = 10;
  config.seed0 = 300;

  const struct {
    const char* name;
    HealthEstimator estimator;
  } rows[] = {
      {"scaled  H/(2^b-1)  [default]", HealthEstimator::kScaled},
      {"midpoint (H+0.5)/2^b", HealthEstimator::kMidpoint},
      {"lower    H/2^b", HealthEstimator::kLower},
      {"upper    (H+1)/2^b", HealthEstimator::kUpper},
  };
  std::vector<sim::RouterConfig> routers;
  for (const auto& row : rows) {
    sim::RouterConfig router{row.name, {}};
    router.scheduler.adaptive = true;
    router.scheduler.synthesis.estimator = row.estimator;
    router.scheduler.max_cycles = 1200;
    routers.push_back(router);
  }

  std::cout << "=== Ablation — health-code force estimator ===\n(Serial "
               "Dilution, "
            << config.chips << " worn chips x " << config.runs_per_chip
            << " runs)\n\n";
  Table table({"estimator", "D-hat per code {0,1,2,3}", "success rate",
               "mean cycles (successful)"});
  const std::vector<sim::CampaignCell> cells =
      sim::run_campaign({assay::serial_dilution()}, routers, config);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::string codes;
    for (int h = 0; h <= 3; ++h) {
      codes += fmt_double(estimate_degradation(h, 2, rows[i].estimator), 2);
      if (h < 3) codes += " ";
    }
    const core::RunRollup& r = cells[i].rollup;
    table.add_row({cells[i].router, codes, fmt_prob(r.success_rate()),
                   fmt_double(r.cycles.count() > 0 ? r.cycles.mean() : 0.0,
                              1)});
  }
  table.print(std::cout);
  std::cout << "\nExpected: the scaled estimator dominates — it synthesizes\n"
               "true shortest paths on healthy regions and hard-avoids dead\n"
               "cells; bucket estimators under-rate healthy MCs and detour\n"
               "unnecessarily.\n";
  return 0;
}
