#include "core/synthesizer.hpp"

#include <cmath>
#include <cstdint>
#include <utility>

#include "model/outcomes.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"

namespace meda::core {

namespace {

/// The action behind local choice @p c of state @p s.
Action action_of(const CompiledMdp& mdp, const CompiledGeometry& geometry,
                 std::size_t s, int c) {
  return geometry
      .choice_action[mdp.choice_offset[s] + static_cast<std::uint32_t>(c)];
}

/// Extracts the strategy a solver run recorded over the compiled model.
Strategy extract_strategy(const CompiledMdp& mdp,
                          const CompiledGeometry& geometry,
                          const Solution& sol) {
  Strategy strategy;
  for (std::size_t s = 0; s < geometry.droplets.size(); ++s) {
    const int c = sol.chosen[s];
    if (c < 0) continue;
    strategy.set(geometry.droplets[s], action_of(mdp, geometry, s, c));
  }
  return strategy;
}

/// The φ_p query reads pmax at every state, so the combined solve must
/// solve it even where rmin alone would do.
bool needs_pmax(const SynthesisConfig& config) {
  return config.query == Query::kPmaxReachability;
}

/// Strategy extraction and value read-out shared by every synthesis entry
/// point: fills strategy/expected_cycles/reach_probability/feasible from a
/// combined solution of @p mdp.
void extract_result(const SynthesisConfig& config,
                    const ReachAvoidSolution& sol, const CompiledMdp& mdp,
                    const CompiledGeometry& geometry,
                    SynthesisResult& result) {
  const Solution& pmax = sol.pmax;
  const Solution& rmin = sol.rmin;
  const bool start_is_goal = mdp.is_goal[mdp.start] != 0;
  if (std::isfinite(rmin.values[mdp.start])) {
    // rmin is finite only on the almost-sure winning region, so the reach
    // probability is exactly 1, whether or not numeric pmax also ran.
    result.reach_probability = 1.0;
  } else {
    result.reach_probability = pmax.values[mdp.start];
    // Why numeric pmax had to run: the start is losing, or it is winning
    // but rmin never gave it a finite value (the rmin stall).
    MEDA_OBS_COUNT(sol.winning[mdp.start] ? "synth.pmax_fallback.rmin_stalled"
                                          : "synth.pmax_fallback.losing",
                   1);
  }

  if (config.query == Query::kPmaxReachability) {
    if (result.reach_probability > 0.0) {
      // A pure argmax strategy is degenerate wherever many actions tie at
      // the same reach probability (on a healthy chip, all of them), so
      // extract lexicographically: inside the almost-sure-winning region
      // follow the Rmin strategy (fewest expected cycles among the
      // Pmax-optimal choices); elsewhere fall back to the Pmax argmax.
      MEDA_OBS_SPAN(extract_span, "synth", "extract");
      result.strategy = extract_strategy(mdp, geometry, pmax);
      for (std::size_t s = 0; s < geometry.droplets.size(); ++s) {
        if (rmin.chosen[s] >= 0)
          result.strategy.set(geometry.droplets[s],
                              action_of(mdp, geometry, s, rmin.chosen[s]));
      }
      result.expected_cycles = rmin.values[mdp.start];
      result.feasible = !result.strategy.empty() || start_is_goal;
    }
    return;
  }

  result.expected_cycles = rmin.values[mdp.start];
  MEDA_OBS_SPAN(extract_span, "synth", "extract");
  if (std::isfinite(result.expected_cycles)) {
    result.strategy = extract_strategy(mdp, geometry, rmin);
    result.feasible = !result.strategy.empty() || start_is_goal;
  } else if (result.reach_probability > 0.0) {
    // PRISM semantics give (π, k) = (∅, ∞) here; for runtime robustness we
    // fall back to the best-effort Pmax strategy.
    result.strategy = extract_strategy(mdp, geometry, pmax);
    result.feasible = !result.strategy.empty() || start_is_goal;
  }
}

void record_model_metrics([[maybe_unused]] const ModelStats& stats) {
  MEDA_OBS_COUNT("synth.calls", 1);
  MEDA_OBS_OBSERVE("synth.mdp_states", static_cast<double>(stats.states),
                   obs::kStateCountBuckets);
  MEDA_OBS_OBSERVE("synth.mdp_transitions",
                   static_cast<double>(stats.transitions),
                   obs::kStateCountBuckets);
}

/// Shared metrics/span tail of every synthesis entry point; the caller has
/// already set total_seconds.
template <typename Span>
void record_synthesis(Span& span, const SynthesisResult& result) {
  record_model_metrics(result.stats);
  MEDA_OBS_OBSERVE("synth.total_seconds", result.total_seconds,
                   obs::kSecondsBuckets);
  if (!result.feasible) MEDA_OBS_COUNT("synth.infeasible", 1);
  span.arg("states", static_cast<std::int64_t>(result.stats.states));
  span.arg("feasible", static_cast<std::int64_t>(result.feasible ? 1 : 0));
  span.arg("reach_probability", result.reach_probability);
}

/// The cold model build of every synthesis path, under the synth/mdp_build
/// span; fills result.stats.
CompiledModel build_model(const assay::RoutingJob& rj,
                          const DoubleMatrix& force, const Rect& chip,
                          const SynthesisConfig& config,
                          SynthesisResult& result) {
  MEDA_OBS_SPAN(build_span, "synth", "mdp_build");
  CompiledModel model = build_compiled_mdp(rj, force, chip, config.rules,
                                           config.wear_penalty_lambda);
  result.stats = model.stats;
  build_span.arg("states", static_cast<std::int64_t>(result.stats.states));
  build_span.arg("transitions",
                 static_cast<std::int64_t>(result.stats.transitions));
  build_span.arg("choices", static_cast<std::int64_t>(result.stats.choices));
  return model;
}

}  // namespace

std::vector<Vec2i> health_delta_cells(const IntMatrix& before,
                                      const IntMatrix& after) {
  MEDA_REQUIRE(before.width() == after.width() &&
                   before.height() == after.height(),
               "health matrices differ in shape");
  std::vector<Vec2i> cells;
  for (int y = 0; y < after.height(); ++y)
    for (int x = 0; x < after.width(); ++x)
      if (before(x, y) != after(x, y)) cells.push_back({x, y});
  return cells;
}

Synthesizer::Synthesizer(Rect chip_bounds, SynthesisConfig config)
    : chip_bounds_(chip_bounds), config_(config) {
  MEDA_REQUIRE(chip_bounds.valid(), "invalid chip bounds");
}

SynthesisResult Synthesizer::synthesize(const assay::RoutingJob& rj,
                                        const IntMatrix& health,
                                        int health_bits) const {
  MEDA_REQUIRE(health.width() == chip_bounds_.width() &&
                   health.height() == chip_bounds_.height(),
               "health matrix must be chip-sized");
  return synthesize_with_force(
      rj, force_from_health(health, health_bits, config_.estimator));
}

SynthesisResult Synthesizer::synthesize_with_force(
    const assay::RoutingJob& rj, const DoubleMatrix& force) const {
  SynthesisResult result;
  MEDA_OBS_SPAN(span, "synth", "synthesize");
  obs::Stopwatch watch;

  const CompiledModel model =
      build_model(rj, force, chip_bounds_, config_, result);
  result.construction_seconds = watch.lap_seconds();
  // One combined solve answers both queries: the exact winning region, rmin
  // over it, and numeric pmax only where its values are read.
  const ReachAvoidSolution sol =
      solve_reach_avoid(model.mdp, config_.solver, needs_pmax(config_));
  result.solve_seconds = watch.lap_seconds();
  extract_result(config_, sol, model.mdp, model.geometry, result);

  result.total_seconds = watch.total_seconds();
  record_synthesis(span, result);
  return result;
}

SynthesisResult Synthesizer::resynthesize(const assay::RoutingJob& rj,
                                          const IntMatrix& health,
                                          int health_bits,
                                          ResynthesisContext& ctx) const {
  MEDA_REQUIRE(health.width() == chip_bounds_.width() &&
                   health.height() == chip_bounds_.height(),
               "health matrix must be chip-sized");

  // Patch eligibility: the retained model must cover the same (goal, hazard)
  // anchor, and the (possibly re-anchored) start must be a state it already
  // explored. A different goal or hazard changes the reachable state space
  // outright; an unexplored start means the droplet drifted somewhere the
  // prior model considered unreachable.
  std::uint32_t start_state = 0;
  bool eligible = ctx.valid && rj.goal == ctx.anchor.goal &&
                  rj.hazard == ctx.anchor.hazard;
  if (eligible) {
    start_state = ctx.geometry.state_index.find(rj.start);
    eligible = start_state != StateIndex::kAbsent;
  }

  const DoubleMatrix force =
      force_from_health(health, health_bits, config_.estimator);

  SynthesisResult result;
  MEDA_OBS_SPAN(span, "synth", "resynthesize");
  obs::Stopwatch watch;

  bool patched = false;
  if (eligible) {
    const std::vector<Vec2i> delta = health_delta_cells(ctx.health, health);
    const MdpPatch patch = patch_compiled_mdp(
        ctx.compiled, ctx.geometry, force, ctx.anchor.hazard, chip_bounds_,
        config_.rules, delta, config_.wear_penalty_lambda);
    patched = patch.patched;
    if (patched) {
      ctx.compiled.start = start_state;
      // Self-loop branches the patch added or dropped change the PRISM
      // transition count even though the off-state topology held.
      ctx.stats.transitions = static_cast<std::size_t>(
          static_cast<std::int64_t>(ctx.stats.transitions) +
          patch.transitions_delta);
      MEDA_OBS_COUNT("synth.warm.patched", 1);
      MEDA_OBS_OBSERVE_LOG2("synth.warm.delta_cells",
                            static_cast<double>(delta.size()));
    } else {
      // A cell died or revived inside the model's footprint: the transition
      // topology changed (quarantine/parole) and the retained arrays are
      // partially rewritten — rebuild from scratch below.
      MEDA_OBS_COUNT("synth.warm.topology_cold", 1);
      ctx.valid = false;
    }
  }
  if (!patched) {
    CompiledModel model =
        build_model(rj, force, chip_bounds_, config_, result);
    ctx.compiled = std::move(model.mdp);
    ctx.geometry = std::move(model.geometry);
    ctx.stats = result.stats;
  }
  result.stats = ctx.stats;
  result.construction_seconds = watch.lap_seconds();

  const ReachAvoidSolution sol =
      solve_reach_avoid(ctx.compiled, config_.solver, needs_pmax(config_));
  result.solve_seconds = watch.lap_seconds();
  extract_result(config_, sol, ctx.compiled, ctx.geometry, result);
  result.warm = patched;
  ctx.valid = true;
  ctx.anchor = rj;
  ctx.health = health;
  result.total_seconds = watch.total_seconds();
  record_synthesis(span, result);
  span.arg("warm", static_cast<std::int64_t>(result.warm ? 1 : 0));
  return result;
}

}  // namespace meda::core
