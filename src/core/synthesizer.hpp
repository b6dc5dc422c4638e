#pragma once

#include <limits>
#include <vector>

#include "assay/helper.hpp"
#include "chip/degradation.hpp"
#include "core/compiled_mdp.hpp"
#include "core/mdp.hpp"
#include "core/strategy.hpp"
#include "core/value_iteration.hpp"
#include "geometry/point.hpp"
#include "model/guards.hpp"
#include "util/matrix.hpp"

/// @file synthesizer.hpp
/// Algorithm 2 — SYNTH(RJ, H): builds the routing-job MDP from the current
/// health matrix and synthesizes an optimal routing strategy with the
/// model-checking engine (our PRISM-games substitute). The strategy is
/// φ_r's: Rmin=? [□¬hazard ∧ ◇goal]. Where rmin leaves the start at ∞, the
/// best-effort fallback is the argmax strategy of numeric pmax (φ_p).
/// Across health changes, resynthesize patches a retained model instead of
/// rebuilding it, and certify proves, where it can, that a fresh synthesis
/// would return the strategy already in hand, with no build or solve.

namespace meda::core {

/// Synthesis configuration.
struct SynthesisConfig {
  ActionRules rules{};
  HealthEstimator estimator = HealthEstimator::kScaled;
  SolveConfig solver{};
  /// Wear-aware synthesis extension: λ ≥ 0 weighting the wear imposed on
  /// degraded cells against pure cycle count in the Rmin reward. 0 (the
  /// default) is the paper's r_k reward; positive values make routes spread
  /// wear proactively (see bench/wear_leveling).
  double wear_penalty_lambda = 0.0;

  /// The field list, nested configs flattened in place (see
  /// SchedulerConfig::for_each_field).
  template <typename F, typename... C>
  static void for_each_field(F&& f, C&&... c) {
    ActionRules::for_each_field(f, c.rules...);
    f("estimator", c.estimator...);
    SolveConfig::for_each_field(f, c.solver...);
    f("wear_penalty_lambda", c.wear_penalty_lambda...);
  }
};

/// Result of one synthesis call.
struct SynthesisResult {
  Strategy strategy;  ///< empty when infeasible
  double expected_cycles =
      std::numeric_limits<double>::infinity();  ///< E[r_k] at δ_s
  /// Pmax at δ_s: exactly 1 whenever Rmin is finite there (the start is
  /// then almost-surely winning), the numeric pmax value otherwise.
  double reach_probability = 0.0;
  ModelStats stats;
  double construction_seconds = 0.0;
  double solve_seconds = 0.0;
  /// Wall time of the whole synthesize call, measured once around it (the
  /// single source of truth for ExecutionStats::synthesis_seconds; covers
  /// construction + solve + strategy extraction, so it is not exactly the
  /// sum of the two phase fields above).
  double total_seconds = 0.0;
  bool feasible = false;  ///< a usable strategy was produced
  /// Served by patching the retained model in place instead of rebuilding
  /// it (resynthesize). Never true for a rebuilt result.
  bool warm = false;
  /// Served by Synthesizer::certify: the last full solve's strategy, proved
  /// to be what a fresh synthesis returns on every state the droplet can
  /// reach. No model was built, patched or solved.
  bool certified = false;
};

/// Cells whose sensed health level differs between two chip-sized matrices,
/// ascending row-major (y, then x) — the delta fed to patch_compiled_mdp.
std::vector<Vec2i> health_delta_cells(const IntMatrix& before,
                                      const IntMatrix& after);

/// Model retained between consecutive syntheses of one routing job lineage
/// (same MO; the start may re-anchor as the droplet advances).
/// Owned by the caller — the scheduler keeps one per active route task — and
/// handed to Synthesizer::resynthesize, which patches the compiled model in
/// place for the sensed health delta and writes the refreshed state back.
/// `valid` is false until the first synthesis primes the context; a caller
/// clears it to force the next call to rebuild.
///
/// Each solve also leaves what Synthesizer::certify reads: its rmin values
/// V₀ and chosen choices σ, and the view V₀ last passed the certificate's
/// lower-bound check against.
struct ResynthesisContext {
  bool valid = false;
  assay::RoutingJob anchor;   ///< job the retained model was built for
  CompiledMdp compiled;       ///< patched in place across health deltas
  CompiledGeometry geometry;  ///< side table for patching + extraction
  IntMatrix health;           ///< sensed health the model currently reflects
  ModelStats stats;           ///< shape of the retained model
  std::vector<double> values;  ///< V₀: the last solve's rmin values
  std::vector<int> chosen;     ///< σ: its chosen choice per droplet state
  /// The view V₀ last passed the lower-bound check against; the solved
  /// view (`health`) right after a solve.
  IntMatrix checked;
  /// The last solve left every droplet state at a finite V₀, and no
  /// lower-bound check has failed since: certify may try this context.
  bool certifiable = false;
};

/// The routing-strategy synthesizer for a fixed chip.
class Synthesizer {
 public:
  explicit Synthesizer(Rect chip_bounds, SynthesisConfig config = {});

  const SynthesisConfig& config() const { return config_; }
  const Rect& chip_bounds() const { return chip_bounds_; }

  /// Algorithm 2: synthesize from the sensed b-bit health matrix (the
  /// controller's information). @p health must be chip-sized.
  SynthesisResult synthesize(const assay::RoutingJob& rj,
                             const IntMatrix& health, int health_bits) const;

  /// Synthesize from an explicit per-MC relative-force matrix. Used by the
  /// degradation-unaware baseline (full-health force) and by analyses that
  /// bypass quantization.
  SynthesisResult synthesize_with_force(const assay::RoutingJob& rj,
                                        const DoubleMatrix& force) const;

  /// Incremental Algorithm 2: like synthesize, but reuses the model @p ctx
  /// retains when it was built for the same (goal, hazard) anchor. The
  /// sensed-health delta against ctx.health is patched into the retained
  /// CompiledMdp (patch_compiled_mdp), whose arrays then equal a fresh
  /// build's; any topology change, anchor mismatch, or start outside the
  /// retained state space falls back to a fresh build that re-primes ctx.
  /// Either way the model gets the solve synthesize() runs, so the result
  /// equals synthesize()'s bit for bit while the start is the one the model
  /// was built from (a re-anchored start keeps the model's state numbering,
  /// which can move values by rounding).
  SynthesisResult resynthesize(const assay::RoutingJob& rj,
                               const IntMatrix& health, int health_bits,
                               ResynthesisContext& ctx) const;

  /// Certify before re-solving: proves, without building, patching or
  /// solving, that the strategy σ of @p ctx's last solve is what
  /// resynthesize would return under @p health on every state the droplet
  /// at rj.start can reach, and then returns it (SynthesisResult::certified).
  /// The proof, on the retained model's states, each choice derived under
  /// the current force as a fresh build derives it (choice_params):
  ///  1. V₀ − η lower-bounds the new optimum: no choice that reads a cell
  ///     changed since ctx.checked (choice_reads) has a one-step value under
  ///     V₀ below V₀ at its state (up to the solve's tolerance), so V₀ is a
  ///     sub-solution of the new Bellman operator. A failure clears
  ///     ctx.certifiable until the next solve.
  ///  2. R, the states reachable from rj.start under σ, holds at most 512
  ///     retained states, and no σ branch leaves them.
  ///  3. σ's branches on R form no cycle, so σ reaches the goal from every
  ///     state of R, and one pass evaluates V_σ, its exact expected cost
  ///     there. No cycle also means a fresh solve's rmin cannot stall on R.
  ///  4. At every state of R, every other choice that can leave the state
  ///     loses to σ by a relative margin, with V_σ inside R and
  ///     max(0, V₀ − η) outside. Then V_σ is the new optimum on R and a
  ///     fresh solve picks σ there.
  /// The result holds σ restricted to R (a droplet outside R asks for a new
  /// strategy) and expected_cycles = V_σ(rj.start). The retained model is
  /// not patched and ctx.health stays the solved view, so the next
  /// resynthesize patches the accumulated delta.
  ///
  /// A refused result has certified == false and no strategy; its
  /// total_seconds is the attempt's time. A context that is invalid, not
  /// certifiable, or built for another goal or hazard is refused without an
  /// attempt. Counts `synth.certify.attempts`, `.skips` and
  /// `.refused.{lower_bound,reach,alternative}`.
  SynthesisResult certify(const assay::RoutingJob& rj,
                          const IntMatrix& health, int health_bits,
                          ResynthesisContext& ctx) const;

 private:
  Rect chip_bounds_;
  SynthesisConfig config_;
};

}  // namespace meda::core
