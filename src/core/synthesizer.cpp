#include "core/synthesizer.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "model/action_table.hpp"
#include "model/outcomes.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"

namespace meda::core {

namespace {

/// Extracts the strategy a solver run recorded over the compiled model:
/// each state's chosen choice, mapped through the geometry's per-choice
/// actions.
Strategy extract_strategy(const CompiledMdp& mdp,
                          const CompiledGeometry& geometry,
                          const Solution& sol) {
  std::vector<std::uint8_t> actions(geometry.droplets.size(),
                                    Strategy::kNoAction);
  for (std::size_t s = 0; s < actions.size(); ++s) {
    const int c = sol.chosen[s];
    if (c < 0) continue;
    actions[s] = static_cast<std::uint8_t>(
        geometry.choice_action[mdp.choice_offset[s] +
                               static_cast<std::uint32_t>(c)]);
  }
  return Strategy(geometry.state_index, std::move(actions));
}

/// Strategy extraction and value read-out shared by every synthesis entry
/// point: fills strategy/expected_cycles/reach_probability/feasible from a
/// combined solution of @p mdp.
void extract_result(const ReachAvoidSolution& sol, const CompiledMdp& mdp,
                    const CompiledGeometry& geometry,
                    SynthesisResult& result) {
  const Solution& pmax = sol.pmax;
  const Solution& rmin = sol.rmin;
  const bool start_is_goal = mdp.is_goal[mdp.start] != 0;
  if (std::isfinite(rmin.values[mdp.start])) {
    // rmin is finite only on the almost-sure winning region, so the reach
    // probability is exactly 1 and numeric pmax did not run.
    result.reach_probability = 1.0;
  } else {
    result.reach_probability = pmax.values[mdp.start];
    // Why numeric pmax had to run: the start is losing, or it is winning
    // but rmin never gave it a finite value (the rmin stall).
    MEDA_OBS_COUNT(sol.winning[mdp.start] ? "synth.pmax_fallback.rmin_stalled"
                                          : "synth.pmax_fallback.losing",
                   1);
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

// ---- Certify before re-solving (Synthesizer::certify) ----------------------

/// Relative slack of the lower-bound check: the solve stops once a sweep
/// moves no value by SolveConfig::tolerance, so V₀ meets the Bellman
/// equation only about that closely.
constexpr double kLowerBoundSlack = 1e-9;
/// η: once the check holds, V₀ − η lower-bounds the new optimum.
constexpr double kLowerBoundEta = 1e-6;
/// Relative margin by which every alternative must lose to σ: far above the
/// solve's tolerance, so a fresh solve cannot settle on another choice.
constexpr double kAlternativeMargin = 1e-6;
/// The largest reach set R a certificate proves σ on.
constexpr std::size_t kMaxCertifiedStates = 512;

/// Why a certificate was refused (kNone: it was not).
enum class Refusal { kNone, kLowerBound, kReach, kAlternative };

/// The scale of a relative tolerance at value @p v.
double scale(double v) { return std::max(1.0, v); }

/// The proof of Synthesizer::certify over one retained model, one step per
/// method. Every choice is derived under the current force by choice_params,
/// as a fresh build derives it, and an outcome maps to a retained state, the
/// hazard sink, or kUnexplored: a rect the model never explored.
class Certificate {
 public:
  Certificate(const ResynthesisContext& ctx, const DoubleMatrix& force,
              const Rect& chip, const SynthesisConfig& config)
      : ctx_(ctx),
        mdp_(ctx.compiled),
        geo_(ctx.geometry),
        force_(force),
        chip_(chip),
        lambda_(config.wear_penalty_lambda),
        table_(config.rules) {}

  /// Step 1: no choice that reads a cell of @p changed values below V₀ at
  /// its state, successors at V₀ (the sink ∞, an unexplored rect 0). Every
  /// other choice is as it was when it last met the check or the solve.
  bool lower_bound_holds(const std::vector<Vec2i>& changed) {
    for (const std::uint32_t s : influenced_states(mdp_, geo_, changed)) {
      const Rect droplet = geo_.droplets[s];
      const double v0 = ctx_.values[s];
      const double floor = v0 - kLowerBoundSlack * scale(v0);
      for (const ActionEntry& entry :
           table_.actions(droplet.width(), droplet.height())) {
        if (!entry.enabled_at(droplet, chip_) ||
            !choice_reads(entry, droplet, lambda_, changed))
          continue;
        const ChoiceParams params = choice_params(entry, droplet, force_,
                                                  chip_, lambda_, buffer_);
        if (params.inv_one_minus_q == 0.0) continue;  // never chosen
        double rest = 0.0;
        for (const Outcome& o : params.outcomes) {
          if (o.droplet == droplet) continue;
          const std::uint32_t t = target_of(o.droplet);
          rest += o.probability * (t == kUnexplored ? 0.0 : ctx_.values[t]);
        }
        if ((params.cost + rest) * params.inv_one_minus_q < floor)
          return false;
      }
    }
    return true;
  }

  /// Step 2: R, the states reachable from @p start under σ, breadth-first,
  /// with every enabled choice of each recorded. Fails when a σ branch
  /// leaves the retained states, σ is a pure self-loop somewhere, or R
  /// outgrows kMaxCertifiedStates.
  bool explore(std::uint32_t start) {
    const std::uint32_t n = mdp_.num_droplet_states;
    position_.assign(n, kOutside);
    position_[start] = 0;
    reach_.assign(1, start);
    for (std::size_t i = 0; i < reach_.size(); ++i) {
      const std::uint32_t s = reach_[i];
      first_row_.push_back(static_cast<std::uint32_t>(rows_.size()));
      sigma_row_.push_back(kNoRow);
      if (mdp_.is_goal[s]) continue;
      const Rect droplet = geo_.droplets[s];
      const Action sigma = sigma_at(s);
      for (const ActionEntry& entry :
           table_.actions(droplet.width(), droplet.height())) {
        if (!entry.enabled_at(droplet, chip_)) continue;
        const ChoiceParams params = choice_params(entry, droplet, force_,
                                                  chip_, lambda_, buffer_);
        Row row{static_cast<std::uint32_t>(branches_.size()), 0, params.cost,
                params.inv_one_minus_q};
        for (const Outcome& o : params.outcomes)
          if (o.droplet != droplet)
            branches_.push_back({target_of(o.droplet), o.probability});
        row.end = static_cast<std::uint32_t>(branches_.size());
        if (entry.action == sigma) {
          if (row.inv_one_minus_q == 0.0) return false;
          for (std::uint32_t b = row.begin; b < row.end; ++b) {
            const std::uint32_t t = branches_[b].state;
            if (t >= n) return false;  // the hazard sink or unexplored
            if (position_[t] != kOutside) continue;
            if (reach_.size() == kMaxCertifiedStates)
              return false;
            position_[t] = static_cast<std::uint32_t>(reach_.size());
            reach_.push_back(t);
          }
          sigma_row_.back() = static_cast<std::uint32_t>(rows_.size());
        }
        rows_.push_back(row);
      }
      MEDA_ASSERT(sigma_row_.back() != kNoRow,
                  "the solve's choice is not enabled at its state");
    }
    first_row_.push_back(static_cast<std::uint32_t>(rows_.size()));
    return true;
  }

  /// Step 3: σ's exact expected cost V_σ on R. Fails unless σ's branches
  /// on R form no cycle: a state joins once every state its σ branches
  /// reach has joined, from R's goals outward, and all of R must join. Then
  /// σ is proper on R and one pass in that order evaluates it exactly. It
  /// also keeps the rmin stall off R: a fresh solve gives each state of R a
  /// finite value the sweep after its σ successors got theirs.
  bool evaluate() {
    const std::size_t m = reach_.size();
    std::vector<std::uint32_t> order;
    std::vector<std::uint8_t> joined(m, 0);
    for (std::uint32_t i = 0; i < m; ++i) {
      if (sigma_row_[i] != kNoRow) continue;
      joined[i] = 1;
      order.push_back(i);
    }
    for (bool grew = true; grew;) {
      grew = false;
      for (std::uint32_t i = 0; i < m; ++i) {
        if (joined[i]) continue;
        const Row& row = rows_[sigma_row_[i]];
        bool ready = true;
        for (std::uint32_t b = row.begin; b < row.end && ready; ++b)
          ready = joined[position_[branches_[b].state]] != 0;
        if (!ready) continue;
        joined[i] = 1;
        order.push_back(i);
        grew = true;
      }
    }
    if (order.size() != m) return false;

    value_.assign(m, 0.0);  // goals stay at 0
    for (const std::uint32_t i : order) {
      if (sigma_row_[i] == kNoRow) continue;
      value_[i] = one_step(rows_[sigma_row_[i]], [this](std::uint32_t t) {
        return value_[position_[t]];
      });
    }
    return true;
  }

  /// Step 4: at every state of R, every other choice that can leave the
  /// state loses to σ by kAlternativeMargin, successors at V_σ inside R and
  /// at max(0, V₀ − η) outside (the sink ∞, an unexplored rect 0).
  bool alternatives_lose() const {
    for (std::size_t i = 0; i < reach_.size(); ++i) {
      if (sigma_row_[i] == kNoRow) continue;
      const double threshold =
          value_[i] + kAlternativeMargin * scale(value_[i]);
      for (std::uint32_t r = first_row_[i]; r < first_row_[i + 1]; ++r) {
        const Row& row = rows_[r];
        if (r == sigma_row_[i] || row.inv_one_minus_q == 0.0) continue;
        const double q =
            one_step(row, [this](std::uint32_t t) { return bound(t); });
        if (!(q > threshold)) return false;
      }
    }
    return true;
  }

  /// σ restricted to R: its action at every non-goal state of R.
  Strategy strategy() const {
    std::vector<std::pair<Rect, Action>> states;
    for (std::size_t i = 0; i < reach_.size(); ++i)
      if (sigma_row_[i] != kNoRow)
        states.emplace_back(geo_.droplets[reach_[i]], sigma_at(reach_[i]));
    return Strategy(states);
  }

  /// V_σ at the start, R's first state.
  double start_value() const { return value_.front(); }
  std::size_t reach_size() const { return reach_.size(); }

 private:
  static constexpr std::uint32_t kUnexplored = StateIndex::kAbsent;
  static constexpr std::uint32_t kNoRow = 0xffffffffu;
  static constexpr std::uint32_t kOutside = 0xffffffffu;  ///< not in R
  /// One enabled choice of a state of R: its off-state branches
  /// [begin, end) in branches_.
  struct Row {
    std::uint32_t begin;
    std::uint32_t end;
    double cost;
    double inv_one_minus_q;
  };
  struct Branch {
    std::uint32_t state;  ///< retained state, hazard sink, or kUnexplored
    double probability;
  };

  /// The one-step value of @p row, each successor state t at value(t).
  template <typename Value>
  double one_step(const Row& row, Value&& value) const {
    double rest = 0.0;
    for (std::uint32_t b = row.begin; b < row.end; ++b)
      rest += branches_[b].probability * value(branches_[b].state);
    return (row.cost + rest) * row.inv_one_minus_q;
  }
  std::uint32_t target_of(const Rect& droplet) const {
    if (!ctx_.anchor.hazard.contains(droplet)) return mdp_.hazard_sink();
    return geo_.state_index.find(droplet);
  }
  Action sigma_at(std::uint32_t s) const {
    return geo_.choice_action[mdp_.choice_offset[s] +
                              static_cast<std::uint32_t>(ctx_.chosen[s])];
  }
  /// Step 4's successor value (see alternatives_lose).
  double bound(std::uint32_t t) const {
    if (t == kUnexplored) return 0.0;
    if (t < mdp_.num_droplet_states && position_[t] != kOutside)
      return value_[position_[t]];
    return std::max(0.0, ctx_.values[t] - kLowerBoundEta);  // sink: ∞
  }

  const ResynthesisContext& ctx_;
  const CompiledMdp& mdp_;
  const CompiledGeometry& geo_;
  const ClampedForce force_;
  const Rect chip_;
  const double lambda_;
  ActionTable table_;
  OutcomeSet buffer_;  // one buffer, refilled per choice
  std::vector<std::uint32_t> reach_;     ///< R in discovery order
  /// Per retained state: its index in R, or kOutside.
  std::vector<std::uint32_t> position_;
  std::vector<std::uint32_t> first_row_;  ///< per R state, plus one past
  std::vector<std::uint32_t> sigma_row_;  ///< per R state; kNoRow at a goal
  std::vector<Row> rows_;
  std::vector<Branch> branches_;
  std::vector<double> value_;  ///< V_σ per R state
};

}  // namespace

std::vector<Vec2i> health_delta_cells(const IntMatrix& before,
                                      const IntMatrix& after) {
  MEDA_REQUIRE(before.width() == after.width() &&
                   before.height() == after.height(),
               "health matrices differ in shape");
  const auto width = static_cast<std::size_t>(after.width());
  std::vector<Vec2i> cells;
  for_each_difference(before, after, [&](std::size_t i) {
    cells.push_back({static_cast<int>(i % width), static_cast<int>(i / width)});
  });
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
  // One combined solve: the exact winning region, rmin over it, and
  // numeric pmax only where rmin leaves the start at ∞.
  const ReachAvoidSolution sol = solve_reach_avoid(model.mdp, config_.solver);
  result.solve_seconds = watch.lap_seconds();
  extract_result(sol, model.mdp, model.geometry, result);

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

  ReachAvoidSolution sol = solve_reach_avoid(ctx.compiled, config_.solver);
  result.solve_seconds = watch.lap_seconds();
  extract_result(sol, ctx.compiled, ctx.geometry, result);
  result.warm = patched;
  ctx.valid = true;
  ctx.anchor = rj;
  ctx.health = health;
  // What certify reads: a solve that left some droplet state at ∞ (a losing
  // state, or the rmin stall) proves nothing about that state.
  ctx.values = std::move(sol.rmin.values);
  ctx.chosen = std::move(sol.rmin.chosen);
  ctx.checked = health;
  ctx.certifiable = std::all_of(
      ctx.values.begin(), ctx.values.begin() + ctx.compiled.num_droplet_states,
      [](double v) { return std::isfinite(v); });
  result.total_seconds = watch.total_seconds();
  record_synthesis(span, result);
  span.arg("warm", static_cast<std::int64_t>(result.warm ? 1 : 0));
  return result;
}

SynthesisResult Synthesizer::certify(const assay::RoutingJob& rj,
                                     const IntMatrix& health, int health_bits,
                                     ResynthesisContext& ctx) const {
  MEDA_REQUIRE(health.width() == chip_bounds_.width() &&
                   health.height() == chip_bounds_.height(),
               "health matrix must be chip-sized");
  SynthesisResult result;
  if (!ctx.valid || !ctx.certifiable || rj.goal != ctx.anchor.goal ||
      rj.hazard != ctx.anchor.hazard)
    return result;

  MEDA_OBS_SPAN(span, "synth", "certify");
  obs::Stopwatch watch;
  Certificate certificate(
      ctx, force_from_health(health, health_bits, config_.estimator),
      chip_bounds_, config_);
  const Refusal refusal = [&] {
    // Only the states a change since the last passed check can reach need
    // the check again; the others passed it, or met the solve itself.
    const std::vector<Vec2i> changed = health_delta_cells(ctx.checked, health);
    if (!certificate.lower_bound_holds(changed)) {
      ctx.certifiable = false;
      return Refusal::kLowerBound;
    }
    if (!changed.empty()) ctx.checked = health;
    const std::uint32_t start = ctx.geometry.state_index.find(rj.start);
    if (start == StateIndex::kAbsent || !certificate.explore(start) ||
        !certificate.evaluate())
      return Refusal::kReach;
    if (!certificate.alternatives_lose()) return Refusal::kAlternative;
    return Refusal::kNone;
  }();

  MEDA_OBS_COUNT("synth.certify.attempts", 1);
  switch (refusal) {
    case Refusal::kNone:
      result.strategy = certificate.strategy();
      result.expected_cycles = certificate.start_value();
      result.reach_probability = 1.0;
      result.feasible = true;  // R holds rj.start, and σ reaches the goal
      result.certified = true;
      result.stats = ctx.stats;
      MEDA_OBS_COUNT("synth.certify.skips", 1);
      break;
    case Refusal::kLowerBound:
      MEDA_OBS_COUNT("synth.certify.refused.lower_bound", 1);
      break;
    case Refusal::kReach:
      MEDA_OBS_COUNT("synth.certify.refused.reach", 1);
      break;
    case Refusal::kAlternative:
      MEDA_OBS_COUNT("synth.certify.refused.alternative", 1);
      break;
  }
  result.total_seconds = watch.total_seconds();
  span.arg("certified", static_cast<std::int64_t>(result.certified ? 1 : 0));
  span.arg("reach_states",
           static_cast<std::int64_t>(certificate.reach_size()));
  return result;
}

}  // namespace meda::core
