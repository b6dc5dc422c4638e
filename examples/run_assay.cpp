// Command-line bioassay runner: executes any benchmark bioassay on a
// configurable simulated MEDA biochip and reports execution statistics.
//
// Usage:
//   run_assay [assay] [options]
//
//   assay                 master-mix | cep | serial-dilution | nuip |
//                         covid-rat | covid-pcr | chip-ip | multiplex |
//                         gene-expression        (default: serial-dilution)
//   --file PATH           load a custom bioassay in the assay text format
//                         (see src/assay/parser.hpp) instead of a benchmark
//   --baseline            degradation-unaware shortest-path router
//   --reactive N          baseline + retrial recovery after N stuck cycles
//   --runs N              repeated executions on the same chip (default 1)
//   --seed S              master RNG seed (default 1)
//   --prewear N           mid-life chip: up to N prior actuations per MC
//   --faults MODE FRAC    inject faults: uniform|clustered, fraction (0-1)
//   --degradation LO HI   per-MC constant c ~ U(LO, HI) (default 200 500)
//   --max-cycles N        per-execution abort bound (default 3000)
//   --trace PATH          write a Chrome trace_event JSON file (load in
//                         chrome://tracing or https://ui.perfetto.dev):
//                         nested scheduler/job/synthesis spans plus
//                         cycle-domain counter tracks
//   --metrics PATH        write a metrics-registry snapshot (.json for
//                         JSON, anything else for the text format)
//   --ascii-trace N       print an ASCII chip frame every N cycles
//   --report PATH         write a self-contained HTML execution report
//   --health-bits B       health-sensor resolution (default 2)
//   --sensor-noise P      noisy scan chain: per-bit flip probability P,
//                         plus 1% stuck DFFs and 2% frame drops
//   --robust              health filter + recovery ladder (watchdog,
//                         re-sense, quarantine, bounded retries, abort)

#include <cstring>
#include <iostream>
#include <string>

#include "assay/benchmarks.hpp"
#include "assay/parser.hpp"
#include "assay/registry.hpp"
#include "core/scheduler.hpp"
#include "obs/obs.hpp"
#include "sim/report.hpp"
#include "sim/simulated_chip.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace meda;

namespace {

assay::MoList pick_assay(const std::string& name) {
  return assay::make_benchmark(name);
}

[[noreturn]] void usage() {
  std::cerr << "usage: run_assay [assay] [--file PATH] [--baseline] "
               "[--reactive N] [--runs N] [--seed S]\n                 "
               "[--prewear N] [--faults uniform|clustered FRAC]\n"
               "                 [--degradation LO HI] [--max-cycles N] "
               "[--report PATH] [--health-bits B]\n"
               "                 [--sensor-noise P] [--robust] "
               "[--trace PATH] [--metrics PATH] [--ascii-trace N]\n"
               "benchmarks:\n";
  for (const auto& info : assay::list_benchmarks())
    std::cerr << "  " << info.key << " — " << info.description << "\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string assay_name = "serial-dilution";
  std::string assay_file;
  sim::SimulatedChipConfig chip_config;
  chip_config.chip.width = assay::kChipWidth;
  chip_config.chip.height = assay::kChipHeight;
  core::SchedulerConfig sched;
  sched.max_cycles = 3000;
  std::uint64_t seed = 1;
  int runs = 1;
  int trace_every = 0;
  std::string report_path;
  std::string trace_path;
  std::string metrics_path;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> std::string {
        if (++i >= argc) usage();
        return argv[i];
      };
      if (arg == "--file") {
        assay_file = next();
      } else if (arg == "--baseline") {
        sched.adaptive = false;
      } else if (arg == "--reactive") {
        sched.adaptive = false;
        sched.reactive_recovery_stuck_cycles = util::parse_flag<int>(arg, next());
      } else if (arg == "--runs") {
        runs = util::parse_flag<int>(arg, next(), 1);
      } else if (arg == "--seed") {
        seed = util::parse_flag<std::uint64_t>(arg, next());
      } else if (arg == "--prewear") {
        chip_config.pre_wear_max = util::parse_flag<std::uint64_t>(arg, next());
      } else if (arg == "--faults") {
        const std::string mode = next();
        if (mode == "uniform") chip_config.faults.mode = FaultMode::kUniform;
        else if (mode == "clustered")
          chip_config.faults.mode = FaultMode::kClustered;
        else usage();
        chip_config.faults.faulty_fraction = util::parse_flag<double>(arg, next());
        chip_config.faults.fail_at_lo = 15;
        chip_config.faults.fail_at_hi = 150;
      } else if (arg == "--degradation") {
        chip_config.chip.degradation.c_lo = util::parse_flag<double>(arg, next());
        chip_config.chip.degradation.c_hi = util::parse_flag<double>(arg, next());
      } else if (arg == "--max-cycles") {
        sched.max_cycles = util::parse_flag<std::uint64_t>(arg, next());
      } else if (arg == "--trace") {
        trace_path = next();
      } else if (arg == "--metrics") {
        metrics_path = next();
      } else if (arg == "--ascii-trace") {
        trace_every = util::parse_flag<int>(arg, next());
        chip_config.record_droplet_trace = true;
      } else if (arg == "--report") {
        report_path = next();
        chip_config.record_droplet_trace = true;
      } else if (arg == "--health-bits") {
        chip_config.chip.health_bits = util::parse_flag<int>(arg, next());
      } else if (arg == "--sensor-noise") {
        chip_config.sensor.bit_flip_p = util::parse_flag<double>(arg, next());
        chip_config.sensor.stuck_fraction = 0.01;
        chip_config.sensor.frame_drop_p = 0.02;
      } else if (arg == "--robust") {
        sched.filter.enabled = true;
        sched.recovery.enabled = true;
      } else if (!arg.empty() && arg[0] == '-') {
        usage();
      } else {
        assay_name = arg;
      }
    }

    const assay::MoList assay_list = assay_file.empty()
                                         ? pick_assay(assay_name)
                                         : assay::load_assay_file(assay_file);
    if (!trace_path.empty()) obs::ctx().tracer().enable();
    if (!metrics_path.empty()) obs::ctx().metrics().enable();
    // Flushes on every exit from this scope — including the exception path
    // below — so an aborted run still leaves valid --trace/--metrics files.
    obs::FlushGuard obs_flush(trace_path, metrics_path);
    sim::SimulatedChip chip(chip_config, Rng(seed));
    core::StrategyLibrary library;
    core::Scheduler scheduler(sched, &library);

    const char* router = sched.adaptive ? "adaptive (proposed)"
                         : sched.reactive_recovery_stuck_cycles > 0
                             ? "baseline + reactive recovery"
                             : "baseline (shortest path)";
    std::cout << assay_list.name << " on a " << chip_config.chip.width << "x"
              << chip_config.chip.height << " MEDA biochip — " << router
              << "\n\n";

    Table table({"run", "result", "cycles", "synth calls", "lib hits",
                 "re-syntheses", "synth ms"});
    int successes = 0;
    for (int run = 0; run < runs; ++run) {
      chip.clear_droplets();
      const core::ExecutionStats stats = scheduler.run(chip, assay_list);
      successes += stats.success;
      if (!report_path.empty() && run == 0) {
        sim::write_html_report(report_path, assay_list, stats, chip);
        std::cout << "report written to " << report_path << "\n\n";
      }
      table.add_row(
          {std::to_string(run + 1),
           stats.success ? "success" : "FAILED (" + stats.failure_reason + ")",
           std::to_string(stats.cycles), std::to_string(stats.synthesis_calls),
           std::to_string(stats.library_hits),
           std::to_string(stats.resyntheses),
           fmt_double(stats.synthesis_seconds * 1e3, 2)});

      if (run == 0 && !stats.events.empty()) {
        std::cout << "event log (run 1):\n"
                  << obs::format_events(stats.events) << "\n";
      }
      if (trace_every > 0 && run == 0) {
        const auto& frames = chip.droplet_trace();
        for (std::size_t f = 0; f < frames.size();
             f += static_cast<std::size_t>(trace_every)) {
          std::cout << "cycle " << f << ":\n"
                    << render_frame(chip, frames[f]) << '\n';
        }
      }
    }
    table.print(std::cout);
    std::cout << "\n" << successes << "/" << runs << " executions succeeded; "
              << "total MC actuations "
              << chip.substrate().total_actuations() << "\n";
    if (!trace_path.empty()) {
      obs::ctx().tracer().write_json(trace_path);
      std::cout << "trace written to " << trace_path << " ("
                << obs::ctx().tracer().event_count()
                << " events; load in chrome://tracing or Perfetto)\n";
    }
    if (!metrics_path.empty()) {
      obs::ctx().metrics().write_snapshot(metrics_path);
      std::cout << "metrics snapshot written to " << metrics_path << "\n";
    }
    obs_flush.disarm();  // the normal-path writes above already happened
    return successes == runs ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}
