// Reproduces Fig. 16: mean number of cycles (±SD) required to repeatedly
// execute each bioassay on one chip under fault injection. A trial runs
// until five successful executions or until the cumulative cycle budget is
// exhausted (abort). Faulty MCs suffer sudden failure at a random actuation
// count; they are placed uniformly or as 2×2 clusters.
//
// Expected shape: the adaptive router needs fewer cycles with a smaller SD;
// the gap widens under clustered faults (clusters act as roadblocks); the
// baseline can fail as early as the first execution, while the adaptive
// router's mean executions-to-first-failure exceeds the five-success target.

// Pass `--jobs N` to run the trials of each configuration on N worker
// threads (0 = one per CPU the process may run on); trial seeds are
// index-derived and the per-trial results are folded in trial order, so the
// table and CSV are byte-identical at any job count.
// `--checkpoint PATH` persists completed trials; `--resume` reloads them.

#include <exception>
#include <iostream>
#include <sstream>
#include <vector>

#include "assay/benchmarks.hpp"
#include "sim/experiments.hpp"
#include "util/checkpoint.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/handoff.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace meda;

namespace {

constexpr int kTrials = 8;
constexpr std::uint64_t kBudget = 2000;  // cumulative trial budget (cycles)

struct Summary {
  double mean_cycles = 0.0;
  double sd_cycles = 0.0;
  double mean_successes = 0.0;
  int aborted = 0;
  double mean_first_failure = 0.0;  // executions before the first failure
};

std::string encode_trial(const sim::TrialResult& r) {
  std::ostringstream os;
  sim::TrialResult::for_each_field(util::PutField{os}, r);
  return os.str();
}

bool decode_trial(const std::string& payload, sim::TrialResult& out) {
  std::istringstream is(payload);
  sim::TrialResult r;
  sim::TrialResult::for_each_field(util::GetField{is}, r);
  if (!is) return false;
  out = r;
  return true;
}

Summary run_config(const assay::MoList& assay_list, bool adaptive,
                   FaultMode mode, int jobs,
                   util::SlotCheckpoint& checkpoint, std::size_t slot_base) {
  std::vector<sim::TrialResult> results(kTrials);
  util::parallel_for(jobs, results.size(), [&](std::size_t t) {
    const std::size_t slot = slot_base + t;
    if (const std::string* payload = checkpoint.restored(slot))
      if (decode_trial(*payload, results[t])) return;
    sim::TrialConfig config;
    config.chip.chip.width = assay::kChipWidth;
    config.chip.chip.height = assay::kChipHeight;
    // Mid-life chips (heterogeneous pre-wear) with accelerated degradation;
    // the injected faults trip within the first executions of the trial.
    config.chip.chip.degradation = DegradationRange{0.5, 0.9, 60.0, 150.0};
    config.chip.pre_wear_max = 150;
    config.chip.faults.mode = mode;
    config.chip.faults.faulty_fraction = 0.08;
    config.chip.faults.fail_at_lo = 15;
    config.chip.faults.fail_at_hi = 120;
    config.scheduler.adaptive = adaptive;
    config.scheduler.max_cycles = 1200;
    config.kmax_total = kBudget;
    config.seed = 7000 + static_cast<std::uint64_t>(t);  // same chips/faults
    results[t] = sim::run_trial(assay_list, config);
    if (checkpoint.active()) checkpoint.record(slot, encode_trial(results[t]));
  });
  stats::RunningStats cycles, successes, first_failure;
  int aborted = 0;
  for (const sim::TrialResult& r : results) {
    cycles.add(static_cast<double>(r.total_cycles));
    successes.add(static_cast<double>(r.successes));
    first_failure.add(r.first_failure_execution == 0
                          ? static_cast<double>(r.executions)
                          : static_cast<double>(r.first_failure_execution - 1));
    if (r.aborted) ++aborted;
  }
  return Summary{cycles.mean(), cycles.stddev(), successes.mean(), aborted,
                 first_failure.mean()};
}

}  // namespace

int main(int argc, char** argv) try {
  const int jobs = util::parse_jobs_flag(argc, argv);
  std::cout << "=== Fig. 16 — trial cycles under fault injection ===\n("
            << kTrials << " trials; 5 successes or " << kBudget
            << "-cycle abort)\n\n";
  CsvWriter csv("fig16_fault_injection.csv",
                {"fault_mode", "assay", "router", "mean_cycles", "sd_cycles",
                 "mean_successes", "aborted_trials",
                 "mean_execs_before_first_failure"});
  // Global slot grid: (mode, assay, router) configurations in iteration
  // order, kTrials slots each.
  const std::vector<assay::MoList> suite = assay::evaluation_suite();
  util::SlotCheckpoint checkpoint;
  const std::string checkpoint_path =
      util::flag_value(argc, argv, "--checkpoint", "");
  if (!checkpoint_path.empty()) {
    util::DigestBuilder digest;
    digest.mix(std::string("fig16-v1"));
    sim::TrialResult::for_each_field(util::MixFieldName{digest});
    digest.mix(kTrials).mix(static_cast<std::uint64_t>(kBudget)).mix(7000);
    for (const assay::MoList& assay_list : suite) digest.mix(assay_list.name);
    checkpoint.open(checkpoint_path, digest.value(),
                    util::has_flag(argc, argv, "--resume"),
                    2 * suite.size() * 2 * kTrials);
  }
  std::size_t slot_base = 0;
  for (const FaultMode mode :
       {FaultMode::kUniform, FaultMode::kClustered}) {
    std::cout << (mode == FaultMode::kUniform ? "Uniform" : "Clustered")
              << " fault injection:\n";
    Table table({"bioassay", "router", "mean cycles", "SD", "mean successes",
                 "aborted trials", "mean execs before 1st failure"});
    for (const assay::MoList& assay_list : suite) {
      for (const bool adaptive : {false, true}) {
        const Summary s = run_config(assay_list, adaptive, mode, jobs,
                                     checkpoint, slot_base);
        slot_base += kTrials;
        table.add_row({assay_list.name, adaptive ? "adaptive" : "baseline",
                       fmt_double(s.mean_cycles, 1),
                       fmt_double(s.sd_cycles, 1),
                       fmt_double(s.mean_successes, 1),
                       std::to_string(s.aborted),
                       fmt_double(s.mean_first_failure, 1)});
        csv.write_row({mode == FaultMode::kUniform ? "uniform" : "clustered",
                       assay_list.name, adaptive ? "adaptive" : "baseline",
                       fmt_double(s.mean_cycles, 2),
                       fmt_double(s.sd_cycles, 2),
                       fmt_double(s.mean_successes, 2),
                       std::to_string(s.aborted),
                       fmt_double(s.mean_first_failure, 2)});
      }
    }
    table.print(std::cout);
    std::cout << '\n';
  }
  checkpoint.flush();
  std::cout << "Expected: adaptive rows complete the five executions in\n"
               "fewer cycles with smaller SD; baseline aborts dominate under\n"
               "clustered faults.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 2;
}
