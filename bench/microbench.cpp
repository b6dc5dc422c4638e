// Google-benchmark microbenchmarks of the synthesis engine's hot kernels:
// model construction (fused compiled build and the explicit-form adapter),
// MDP compilation, the value-iteration queries on a compiled model,
// outcome-distribution evaluation, a strategy-library hit,
// campaign-cell throughput, and health sensing (the per-cycle read, the
// noisy scan-chain read, its random-draw floor, the health filter's update
// and the health-to-force map). Complements Table V's end-to-end timings
// with per-kernel numbers.
//
// Refresh the committed perf record with:
//   ./build/bench/microbench --benchmark_out=BENCH_synthesis.json
//       --benchmark_out_format=json
// (see docs/performance.md for how to read the file).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "assay/benchmarks.hpp"
#include "assay/helper.hpp"
#include "chip/biochip.hpp"
#include "core/compiled_mdp.hpp"
#include "core/health_filter.hpp"
#include "core/library.hpp"
#include "core/mdp.hpp"
#include "core/synthesizer.hpp"
#include "core/value_iteration.hpp"
#include "model/outcomes.hpp"
#include "obs/obs.hpp"
#include "sim/campaign.hpp"
#include "sim/simulated_chip.hpp"
#include "util/rng.hpp"

namespace {

using namespace meda;

assay::RoutingJob corner_job(int area, int droplet) {
  assay::RoutingJob rj;
  rj.start = Rect::from_size(0, 0, droplet, droplet);
  rj.goal =
      Rect::from_size(area - droplet, area - droplet, droplet, droplet);
  rj.hazard = Rect{0, 0, area - 1, area - 1};
  return rj;
}

ActionRules bench_rules() {
  ActionRules rules;
  rules.enable_morphing = false;
  return rules;
}

void BM_BuildRoutingMdp(benchmark::State& state) {
  const int area = static_cast<int>(state.range(0));
  const assay::RoutingJob rj = corner_job(area, 4);
  const DoubleMatrix force(area, area, 0.6);
  const Rect chip{0, 0, area - 1, area - 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::build_routing_mdp(rj, force, chip, bench_rules()));
  }
  state.SetLabel(std::to_string(area) + "x" + std::to_string(area));
}
BENCHMARK(BM_BuildRoutingMdp)->Arg(10)->Arg(20)->Arg(30);

// The production build: one fused exploration straight into compiled form
// (BM_BuildRoutingMdp above times the explicit-form adapter on top of it).
void BM_BuildCompiledMdp(benchmark::State& state) {
  const int area = static_cast<int>(state.range(0));
  const assay::RoutingJob rj = corner_job(area, 4);
  const DoubleMatrix force(area, area, 0.6);
  const Rect chip{0, 0, area - 1, area - 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::build_compiled_mdp(rj, force, chip, bench_rules()));
  }
  state.SetLabel(std::to_string(area) + "x" + std::to_string(area));
}
BENCHMARK(BM_BuildCompiledMdp)->Arg(10)->Arg(20)->Arg(30);

// A seeded 2-bit health matrix of the 60×30 reference chip, mostly healthy
// with 3% dead cells.
IntMatrix worn_health() {
  IntMatrix health(assay::kChipWidth, assay::kChipHeight, 3);
  Rng rng(0x3017u);
  for (int& code : health.data()) {
    const double u = rng.uniform(0.0, 1.0);
    code = u < 0.03 ? 0 : u < 0.10 ? 1 : u < 0.30 ? 2 : 3;
  }
  return health;
}

// The production build on a worn reference chip under the default rules: a
// seeded 2-bit health matrix with every code 0-3 present (dead cells drop
// outcomes) and a non-square droplet, so the build meets both of its morph
// shapes and the double steps of each. BM_BuildCompiledMdp above meets one
// shape on a uniform field.
void BM_BuildCompiledMdpWorn(benchmark::State& state) {
  const int width = assay::kChipWidth, height = assay::kChipHeight;
  const IntMatrix health = worn_health();
  for (int code = 0; code <= 3; ++code) {
    if (std::count(health.data().begin(), health.data().end(), code) == 0) {
      state.SkipWithError("health matrix misses a code");
      return;
    }
  }
  const DoubleMatrix force =
      force_from_health(health, 2, HealthEstimator::kScaled);
  assay::RoutingJob rj;
  rj.start = Rect::from_size(1, 1, 4, 3);
  rj.goal = Rect::from_size(width - 5, height - 5, 4, 4);
  rj.hazard = Rect{0, 0, width - 1, height - 1};
  std::size_t states = 0;
  for (auto _ : state) {
    const core::CompiledModel model =
        core::build_compiled_mdp(rj, force, rj.hazard, ActionRules{});
    states = model.mdp.num_droplet_states;
    benchmark::DoNotOptimize(model.mdp.probability.data());
  }
  state.SetLabel(std::to_string(states) + " states, 60x30 worn");
}
BENCHMARK(BM_BuildCompiledMdpWorn);

void BM_CompileMdp(benchmark::State& state) {
  const int area = static_cast<int>(state.range(0));
  const assay::RoutingJob rj = corner_job(area, 4);
  const DoubleMatrix force(area, area, 0.6);
  const Rect chip{0, 0, area - 1, area - 1};
  const core::RoutingMdp mdp =
      core::build_routing_mdp(rj, force, chip, bench_rules());
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compile_mdp(mdp));
  }
  state.SetLabel(std::to_string(mdp.state_count()) + " states");
}
BENCHMARK(BM_CompileMdp)->Arg(10)->Arg(20)->Arg(30);

/// The corner job's compiled model at a uniform force of 0.6: the input of
/// the solver benchmarks, built once outside their timing loops.
core::CompiledMdp solver_input(int area) {
  const DoubleMatrix force(area, area, 0.6);
  return core::build_compiled_mdp(corner_job(area, 4), force,
                                  Rect{0, 0, area - 1, area - 1},
                                  bench_rules())
      .mdp;
}

void BM_SolvePmax(benchmark::State& state) {
  const core::CompiledMdp mdp =
      solver_input(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_pmax(mdp));
  }
}
BENCHMARK(BM_SolvePmax)->Arg(20);

// The scheduler's actual query on a compiled model: the exact winning region,
// then rmin over it (numeric pmax runs only when rmin leaves the start at ∞,
// which it never does here).
void BM_SolveReachAvoid(benchmark::State& state) {
  const core::CompiledMdp mdp =
      solver_input(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_reach_avoid(mdp));
  }
  state.SetLabel(std::to_string(mdp.state_count()) + " states");
}
BENCHMARK(BM_SolveReachAvoid)->Arg(10)->Arg(20)->Arg(30);

// The Prob1E graph pass every combined solve starts with, on its own.
void BM_AlmostSureWinning(benchmark::State& state) {
  const core::CompiledMdp mdp =
      solver_input(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::almost_sure_winning(mdp));
  }
  state.SetLabel(std::to_string(mdp.state_count()) + " states");
}
BENCHMARK(BM_AlmostSureWinning)->Arg(10)->Arg(20)->Arg(30);

// The scheduler's hot re-synthesis kernel: patch the retained compiled
// model for a k-cell health delta and re-solve it with the same
// solve_reach_avoid a fresh build gets (what Synthesizer::resynthesize does
// when the patch holds). Deltas are a compact wear cluster (the realistic
// shape: cells degrade along the route). BM_SolveReachAvoidColdResolve keeps
// its name so it still lines up with earlier records.
constexpr int kWarmWidth = assay::kChipWidth;    // the reference chip,
constexpr int kWarmHeight = assay::kChipHeight;  // not a toy grid

assay::RoutingJob warm_job() {
  assay::RoutingJob rj;
  rj.start = Rect::from_size(0, 0, 4, 4);
  rj.goal = Rect::from_size(kWarmWidth - 4, kWarmHeight - 4, 4, 4);
  rj.hazard = Rect{0, 0, kWarmWidth - 1, kWarmHeight - 1};
  return rj;
}

std::vector<Vec2i> wear_cluster(int delta) {
  // A near-square block centred on the chip.
  int w = 1;
  while (w * w < delta) ++w;
  const int x0 = (kWarmWidth - w) / 2, y0 = (kWarmHeight - w) / 2;
  std::vector<Vec2i> cells;
  cells.reserve(static_cast<std::size_t>(delta));
  for (int i = 0; i < delta; ++i)
    cells.push_back(Vec2i{x0 + i % w, y0 + i / w});
  return cells;
}

void BM_SolveReachAvoidColdResolve(benchmark::State& state) {
  const int delta = static_cast<int>(state.range(0));
  const assay::RoutingJob rj = warm_job();
  const Rect chip = rj.hazard;
  DoubleMatrix force(kWarmWidth, kWarmHeight, 0.6);
  core::CompiledModel model =
      core::build_compiled_mdp(rj, force, chip, bench_rules());
  core::CompiledMdp& compiled = model.mdp;
  core::CompiledGeometry& geometry = model.geometry;
  const std::vector<Vec2i> cells = wear_cluster(delta);
  bool flip = false;
  for (auto _ : state) {
    flip = !flip;
    for (const Vec2i& c : cells) force(c.x, c.y) = flip ? 0.5 : 0.6;
    const core::MdpPatch patch = core::patch_compiled_mdp(
        compiled, geometry, force, rj.hazard, chip, bench_rules(), cells);
    benchmark::DoNotOptimize(patch.choices_changed);
    benchmark::DoNotOptimize(core::solve_reach_avoid(compiled));
  }
  state.SetLabel(std::to_string(compiled.num_droplet_states) + " states, " +
                 std::to_string(delta) + "-cell delta");
}
BENCHMARK(BM_SolveReachAvoidColdResolve)->Arg(2)->Arg(16)->Arg(120);

// Certify before re-solving: one accepted certificate for a one-code wear
// step on the droplet's path, on BM_SolveReachAvoidColdResolve's job — what
// Synthesizer::certify costs where the scheduler would otherwise patch and
// re-solve. Health codes are seeded at 1–3, so the route has no ties for
// the certificate to refuse. Each iteration restores the context's checked
// view outside the timed region, so every certificate re-checks the step.
void BM_CertifyResynthesis(benchmark::State& state) {
  constexpr int kBits = 2;
  const assay::RoutingJob rj = warm_job();
  core::SynthesisConfig config;
  config.rules = bench_rules();
  const core::Synthesizer synth(rj.hazard, config);
  Rng rng(0xce50);  // a seed whose route is certifiable from the start
  IntMatrix health(kWarmWidth, kWarmHeight, 3);
  for (int y = 0; y < kWarmHeight; ++y)
    for (int x = 0; x < kWarmWidth; ++x) health(x, y) = rng.uniform_int(1, 3);
  core::ResynthesisContext ctx;
  synth.resynthesize(rj, health, kBits, ctx);
  const core::Strategy path = synth.certify(rj, health, kBits, ctx).strategy;

  // The first cell of a droplet on the path whose wear step is certified.
  IntMatrix worn = health;
  bool found = false;
  for (const Rect& droplet : ctx.geometry.droplets) {
    if (found || !path.action(droplet)) continue;
    for (int y = droplet.ya; y <= droplet.yb && !found; ++y) {
      for (int x = droplet.xa; x <= droplet.xb && !found; ++x) {
        if (health(x, y) == 1) continue;
        worn(x, y) = health(x, y) - 1;
        found = synth.certify(rj, worn, kBits, ctx).certified;
        ctx.checked = health;
        ctx.certifiable = true;
        if (!found) worn(x, y) = health(x, y);
      }
    }
  }
  if (!found) {
    state.SkipWithError("no certified wear step on the path");
    return;
  }
  std::size_t covered = 0;
  for (auto _ : state) {
    state.PauseTiming();
    ctx.checked = health;
    state.ResumeTiming();
    const core::SynthesisResult skip = synth.certify(rj, worn, kBits, ctx);
    covered = skip.strategy.size();
    benchmark::DoNotOptimize(skip.certified);
  }
  state.SetLabel(std::to_string(ctx.compiled.num_droplet_states) +
                 " states, " + std::to_string(covered) + " certified");
}
BENCHMARK(BM_CertifyResynthesis);

void BM_FullSynthesis(benchmark::State& state) {
  const int area = static_cast<int>(state.range(0));
  core::SynthesisConfig config;
  config.rules = bench_rules();
  const core::Synthesizer synth(Rect{0, 0, area - 1, area - 1}, config);
  const assay::RoutingJob rj = corner_job(area, 4);
  const IntMatrix health(area, area, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth.synthesize(rj, health, 2));
  }
}
BENCHMARK(BM_FullSynthesis)->Arg(10)->Arg(20)->Arg(30);

// A strategy-library hit as the scheduler serves one: look up the stored
// result of BM_FullSynthesis/30, copy it out, then probe its strategy at
// every state of the model (a route reads one state per cycle).
void BM_StrategyLibraryHit(benchmark::State& state) {
  constexpr int kArea = 30;
  const Rect chip{0, 0, kArea - 1, kArea - 1};
  core::SynthesisConfig config;
  config.rules = bench_rules();
  const core::Synthesizer synth(chip, config);
  const assay::RoutingJob rj = corner_job(kArea, 4);
  const IntMatrix health(kArea, kArea, 2);
  core::StrategyLibrary library;
  library.store(rj, 1, synth.synthesize(rj, health, 2));
  const std::vector<Rect> states =
      core::build_compiled_mdp(
          rj, force_from_health(health, 2, HealthEstimator::kScaled), chip,
          bench_rules())
          .geometry.droplets;
  for (auto _ : state) {
    const core::SynthesisResult hit = *library.lookup(rj, 1);
    std::size_t covered = 0;
    for (const Rect& droplet : states)
      covered += hit.strategy.action(droplet).has_value() ? 1 : 0;
    benchmark::DoNotOptimize(covered);
  }
  state.SetLabel(std::to_string(states.size()) + " states probed");
}
BENCHMARK(BM_StrategyLibraryHit);

// One campaign cell end to end (COVID-RAT assay, adaptive router, one chip,
// one run): the unit of work the parallel campaign drivers distribute.
void BM_CampaignCell(benchmark::State& state) {
  const std::vector<assay::MoList> assays = {assay::covid_rat()};
  std::vector<sim::RouterConfig> routers(1);
  routers[0].name = "adaptive";
  sim::CampaignConfig config;
  config.chip.chip.width = assay::kChipWidth;
  config.chip.chip.height = assay::kChipHeight;
  config.chips = 1;
  config.runs_per_chip = 1;
  config.seed0 = 11;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_campaign(assays, routers, config));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("COVID-RAT, 1 chip x 1 run");
}
BENCHMARK(BM_CampaignCell);

void BM_ActionOutcomes(benchmark::State& state) {
  const Rect droplet{8, 8, 12, 11};
  const DoubleMatrix force(30, 30, 0.7);
  for (auto _ : state) {
    for (const Action a : kAllActions)
      benchmark::DoNotOptimize(action_outcomes(droplet, a, force));
  }
}
BENCHMARK(BM_ActionOutcomes);

// Observability overhead, measured instead of asserted. One "site" is a
// span plus a counter bump and two histogram observations — denser than any
// real hot path. BM_ObsSitesNull measures the null-sink cost (one predicted
// branch per macro; rebuild with -DMEDA_OBS=OFF and the same bench measures
// the compiled-out cost, which should be indistinguishable from an empty
// loop). BM_ObsSitesEnabled measures full recording, including the periodic
// tracer clear a long-running instrumented process needs.
constexpr int kObsBatch = 256;

void obs_site_batch() {
  for (int i = 0; i < kObsBatch; ++i) {
    MEDA_OBS_SPAN(span, "bench", "site");
    MEDA_OBS_COUNT("bench.counter", 1);
    MEDA_OBS_OBSERVE("bench.histogram", static_cast<double>(i),
                     obs::kPow2Buckets);
    MEDA_OBS_OBSERVE_LOG2("bench.log2", static_cast<double>(i));
  }
}

void BM_ObsSitesNull(benchmark::State& state) {
  obs::ctx().reset();  // both sinks disabled: every macro is one branch
  for (auto _ : state) {
    obs_site_batch();
  }
  state.SetItemsProcessed(state.iterations() * kObsBatch);
  state.SetLabel("span+count+2 observes per site, sinks disabled");
}
BENCHMARK(BM_ObsSitesNull);

void BM_ObsSitesEnabled(benchmark::State& state) {
  obs::ctx().reset();
  obs::ctx().tracer().enable();
  obs::ctx().metrics().enable();
  for (auto _ : state) {
    obs_site_batch();
    obs::ctx().tracer().clear();  // bound the event buffer, cost included
  }
  state.SetItemsProcessed(state.iterations() * kObsBatch);
  state.SetLabel("span+count+2 observes per site, both sinks recording");
  obs::ctx().reset();  // leave the global context quiet for later benches
}
BENCHMARK(BM_ObsSitesEnabled);

// End-to-end check on a real kernel: BM_SolveReachAvoid (above) runs with
// null sinks; this is the identical solve with both sinks recording.
void BM_SolveReachAvoidInstrumented(benchmark::State& state) {
  const core::CompiledMdp mdp =
      solver_input(static_cast<int>(state.range(0)));
  obs::ctx().reset();
  obs::ctx().tracer().enable();
  obs::ctx().metrics().enable();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_reach_avoid(mdp));
    obs::ctx().tracer().clear();
  }
  state.SetLabel(std::to_string(mdp.state_count()) +
                 " states, sinks recording");
  obs::ctx().reset();
}
BENCHMARK(BM_SolveReachAvoidInstrumented)->Arg(20);

// One per-cycle read of a pre-worn 60×30 chip on a perfect channel: a 3×3
// block walks the chip and is actuated before each read, so a few codes are
// re-quantized per cycle as under a moving droplet, and sense_health() copies
// out the chip's live code matrix.
void BM_HealthSensing(benchmark::State& state) {
  sim::SimulatedChipConfig config;
  config.chip.width = 60;
  config.chip.height = 30;
  config.pre_wear_max = 150;
  sim::SimulatedChip chip(config, Rng(1));
  int step = 0;
  for (auto _ : state) {
    const int x = step % 58;
    const int y = (step / 58) % 28;
    const Rect block[] = {Rect{x, y, x + 2, y + 2}};
    chip.substrate().actuate(block);
    benchmark::DoNotOptimize(chip.sense_health());
    ++step;
  }
  state.SetLabel("60x30 scan, 3x3 actuated per read");
}
BENCHMARK(BM_HealthSensing);

// The controller's health-to-force map, run on every synthesis call: the
// worn 60×30 matrix of BM_BuildCompiledMdpWorn with its codes 0-3 spread
// over the argument's bit depth. At 16 bits there are more codes than cells.
void BM_ForceFromHealth(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  IntMatrix health = worn_health();
  for (int& code : health.data()) code = code * ((1 << bits) - 1) / 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        force_from_health(health, bits, HealthEstimator::kScaled));
  }
  state.SetLabel("60x30, " + std::to_string(bits) + " bits");
}
BENCHMARK(BM_ForceFromHealth)->Arg(2)->Arg(16);

// One per-cycle read of a pre-worn 60×30 chip behind the hybrid_noisy
// workload's scan chain (bit flips p = 1e-3, 2% dropped frames): the health
// matrix plus the noisy readout, about 4.6 flip-gap draws per fresh frame
// of 3600 bits (one per flip plus one). A 3×3 block walks the chip and is
// actuated before each read, so a few cells change per cycle as under a
// moving droplet.
void BM_SenseHealthNoisy(benchmark::State& state) {
  sim::SimulatedChipConfig config;
  config.chip.width = 60;
  config.chip.height = 30;
  config.pre_wear_max = 150;
  config.sensor.bit_flip_p = 0.001;
  config.sensor.frame_drop_p = 0.02;
  sim::SimulatedChip chip(config, Rng(1));
  int step = 0;
  for (auto _ : state) {
    const int x = step % 58;
    const int y = (step / 58) % 28;
    const Rect block[] = {Rect{x, y, x + 2, y + 2}};
    chip.substrate().actuate(block);
    benchmark::DoNotOptimize(chip.sense_health());
    ++step;
  }
  state.SetLabel("60x30x2 bits, flip 1e-3, drop 0.02");
}
BENCHMARK(BM_SenseHealthNoisy);

// The hybrid scheme's per-cycle filter update: a default HealthFilter fed,
// round-robin, 64 frames read from BM_SenseHealthNoisy's pre-worn chip and
// channel (flip 1e-3, 2% drops) while a 3×3 block walks and wears it. The
// frames are recorded before timing, so the loop times observe() alone.
void BM_HealthFilterObserve(benchmark::State& state) {
  sim::SimulatedChipConfig config;
  config.chip.width = 60;
  config.chip.height = 30;
  config.pre_wear_max = 150;
  config.sensor.bit_flip_p = 0.001;
  config.sensor.frame_drop_p = 0.02;
  sim::SimulatedChip chip(config, Rng(1));
  std::vector<IntMatrix> frames;
  for (int step = 0; step < 64; ++step) {
    const int x = step % 58;
    const int y = (step / 58) % 28;
    const Rect block[] = {Rect{x, y, x + 2, y + 2}};
    chip.substrate().actuate(block);
    frames.push_back(chip.sense_health());
  }
  core::HealthFilter filter;
  std::size_t next = 0;
  for (auto _ : state) {
    filter.observe(frames[next]);
    benchmark::DoNotOptimize(filter.estimate().data().data());
    benchmark::ClobberMemory();
    next = (next + 1) % frames.size();
  }
  state.SetLabel("60x30, flip 1e-3, drop 0.02");
}
BENCHMARK(BM_HealthFilterObserve);

// Rng's raw stream: 3600 next_u64() draws, the stream the simulator's
// outcome sampling and the scan chain's frame-drop and flip-gap draws use.
void BM_RngDraws(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (int i = 0; i < 3600; ++i) acc ^= rng.next_u64();
    benchmark::DoNotOptimize(acc);
  }
  state.SetLabel("3600 draws");
}
BENCHMARK(BM_RngDraws);

}  // namespace

BENCHMARK_MAIN();
