// Reproduces Table V: model size and synthesis runtime per routing job.
// Twelve rows — RJ area 10×10 / 20×20 / 30×30 × square droplets 3..6 — each
// synthesized from a seeded worst-case health matrix (every cell degraded to
// 2-bit code 1 or 2, none dead, so the positional state space is complete)
// with morphing off, as in the paper's positional-state counts.
//
// Columns: states / transitions / choices beside the paper's counts (the
// paper's PRISM encoding carries two extra absorbing bookkeeping states, so
// ours are the paper's minus 2), then the median over --reps syntheses of
// the construction, solve and extract times as SynthesisResult reports them
// (extract = total − construction − solve) and the construction share.
//
// Flags: --reps N (default 15) syntheses per row; --seed S health seed.
// The rows also go to tablev_synthesis_runtime.csv.

#include <algorithm>
#include <cstdint>
#include <exception>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "core/synthesizer.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace meda;

namespace {

/// One Table V row with the paper's counts (0 where the paper's text does
/// not give the number).
struct Row {
  int area;
  int droplet;
  long long paper_states;
  long long paper_transitions;
  long long paper_choices;
};

constexpr Row kRows[] = {
    {10, 3, 67, 1913, 697}, {10, 4, 52, 0, 0},  {10, 5, 39, 0, 0},
    {10, 6, 28, 0, 0},      {20, 3, 327, 0, 0}, {20, 4, 292, 0, 0},
    {20, 5, 259, 0, 0},     {20, 6, 228, 0, 0}, {30, 3, 787, 26720, 0},
    {30, 4, 732, 0, 0},     {30, 5, 679, 0, 0}, {30, 6, 628, 0, 0}};

std::string paper_count(long long v) { return v > 0 ? fmt_int(v) : "-"; }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

int main(int argc, char** argv) try {
  const int reps = util::parse_flag<int>(
      "--reps", util::flag_value(argc, argv, "--reps", "15"), 1);
  const auto seed = util::parse_flag<std::uint64_t>(
      "--seed", util::flag_value(argc, argv, "--seed", "2021"));

  core::SynthesisConfig config;
  config.rules.enable_morphing = false;  // positional states, as in Table V

  std::cout << "=== Table V — model size and synthesis runtime ===\n(worst-"
               "case no-zero H, seed "
            << seed << "; median of " << reps << " syntheses per row)\n\n";
  Table table({"RJ area", "droplet", "states", "paper", "transitions",
               "paper", "choices", "paper", "construct ms", "solve ms",
               "extract ms", "construct %"});
  CsvWriter csv("tablev_synthesis_runtime.csv",
                {"area", "droplet", "states", "paper_states", "transitions",
                 "paper_transitions", "choices", "paper_choices",
                 "construction_ms", "solve_ms", "extract_ms"});

  Rng rng(seed);
  for (std::size_t i = 0; i < std::size(kRows); ++i) {
    const Row& row = kRows[i];
    const Rect chip{0, 0, row.area - 1, row.area - 1};
    assay::RoutingJob rj;
    rj.start = Rect::from_size(0, 0, row.droplet, row.droplet);
    rj.goal = Rect::from_size(row.area - row.droplet, row.area - row.droplet,
                              row.droplet, row.droplet);
    rj.hazard = chip;
    IntMatrix health(row.area, row.area, 2);
    Rng row_rng = rng.fork(i);
    for (int& h : health.data()) h = row_rng.uniform_int(1, 2);

    const core::Synthesizer synth(chip, config);
    std::vector<double> construct, solve, extract;
    core::ModelStats stats;
    bool feasible = true;
    for (int r = 0; r < reps; ++r) {
      const core::SynthesisResult result = synth.synthesize(rj, health, 2);
      stats = result.stats;
      feasible = feasible && result.feasible;
      construct.push_back(1e3 * result.construction_seconds);
      solve.push_back(1e3 * result.solve_seconds);
      extract.push_back(1e3 * (result.total_seconds -
                               result.construction_seconds -
                               result.solve_seconds));
    }
    if (!feasible) {
      std::cerr << "row " << row.area << "/" << row.droplet
                << " synthesized infeasible\n";
      return 1;
    }
    const double c_ms = median(construct);
    const double s_ms = median(solve);
    const double e_ms = median(extract);
    const std::string area =
        std::to_string(row.area) + "x" + std::to_string(row.area);
    const std::string droplet =
        std::to_string(row.droplet) + "x" + std::to_string(row.droplet);
    table.add_row({area, droplet,
                   fmt_int(static_cast<long long>(stats.states)),
                   paper_count(row.paper_states),
                   fmt_int(static_cast<long long>(stats.transitions)),
                   paper_count(row.paper_transitions),
                   fmt_int(static_cast<long long>(stats.choices)),
                   paper_count(row.paper_choices), fmt_double(c_ms, 3),
                   fmt_double(s_ms, 3), fmt_double(e_ms, 3),
                   fmt_double(100.0 * c_ms / (c_ms + s_ms + e_ms), 1)});
    csv.write_row({std::to_string(row.area), std::to_string(row.droplet),
                   std::to_string(stats.states),
                   std::to_string(row.paper_states),
                   std::to_string(stats.transitions),
                   std::to_string(row.paper_transitions),
                   std::to_string(stats.choices),
                   std::to_string(row.paper_choices), fmt_double(c_ms, 4),
                   fmt_double(s_ms, 4), fmt_double(e_ms, 4)});
  }
  table.print(std::cout);
  std::cout << "\n(paper = PRISM-games counts; '-' where the paper's text "
               "gives none. Ours are the paper's states minus 2.)\n"
               "(Series also written to tablev_synthesis_runtime.csv.)\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 2;
}
