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
/// model-checking engine (our PRISM-games substitute).

namespace meda::core {

/// Which synthesis query drives strategy extraction.
enum class Query : unsigned char {
  kRminExpectedCycles,  ///< φ_r: Rmin=? [□¬hazard ∧ ◇goal] (Algorithm 2)
  kPmaxReachability,    ///< φ_p: Pmax=? [□¬hazard ∧ ◇goal]
};

/// Synthesis configuration.
struct SynthesisConfig {
  ActionRules rules{};
  Query query = Query::kRminExpectedCycles;
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
    f("query", c.query...);
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
};

/// Cells whose sensed health level differs between two chip-sized matrices,
/// ascending row-major (y, then x) — the delta fed to patch_compiled_mdp.
std::vector<Vec2i> health_delta_cells(const IntMatrix& before,
                                      const IntMatrix& after);

/// Model retained between consecutive syntheses of one routing job lineage
/// (same MO and query; the start may re-anchor as the droplet advances).
/// Owned by the caller — the scheduler keeps one per active route task — and
/// handed to Synthesizer::resynthesize, which patches the compiled model in
/// place for the sensed health delta and writes the refreshed state back.
/// `valid` is false until the first synthesis primes the context; a caller
/// clears it to force the next call to rebuild.
struct ResynthesisContext {
  bool valid = false;
  assay::RoutingJob anchor;   ///< job the retained model was built for
  CompiledMdp compiled;       ///< patched in place across health deltas
  CompiledGeometry geometry;  ///< side table for patching + extraction
  IntMatrix health;           ///< sensed health the model currently reflects
  ModelStats stats;           ///< shape of the retained model
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

 private:
  Rect chip_bounds_;
  SynthesisConfig config_;
};

}  // namespace meda::core
