#pragma once

#include <cstdint>
#include <vector>

#include "assay/helper.hpp"
#include "core/mdp.hpp"
#include "core/state_index.hpp"
#include "geometry/point.hpp"
#include "geometry/rect.hpp"
#include "model/action.hpp"
#include "model/guards.hpp"
#include "util/matrix.hpp"

/// @file compiled_mdp.hpp
/// Compiled sparse form of a routing-job MDP: the solver-facing
/// representation behind the synthesis fast path.
///
/// build_compiled_mdp explores the routing job forward once and writes
/// CSR-style contiguous arrays directly:
///
///  - per-state choice ranges (`choice_offset`),
///  - per-choice transition ranges (`trans_offset`) over flat
///    `target`/`probability` arrays with the self-loop branch *factored
///    out* — a choice with stay-probability q keeps only its off-state
///    branches and carries the precomputed committed-value scale
///    `1/(1−q)` (0 marks a pure self-loop),
///  - a goal-anchored sweep order: droplet states in reverse-BFS distance
///    from the goal set, so Gauss-Seidel value updates propagate from the
///    goal outward and converge in a near-constant number of sweeps
///    instead of O(diameter).
///
/// States are numbered in BFS intern order and the choices of a state
/// follow kAllActions order, exactly as in the explicit RoutingMdp
/// (build_routing_mdp is an expansion of this build), so a choice's local
/// index (`c - choice_offset[s]`) is the RoutingMdp choice index and
/// compile_mdp of the explicit form reproduces these arrays bit for bit —
/// Solution::chosen indexes the explicit form's choice lists as well.

namespace meda {
struct ActionEntry;  // model/action_table.hpp
class ClampedForce;  // model/outcomes.hpp
class OutcomeSet;    // model/outcomes.hpp
}  // namespace meda

namespace meda::core {

/// Flattened CSR view of one routing-job MDP (see file comment).
struct CompiledMdp {
  /// Droplet-state count (states 0..n-1; the hazard sink is index n).
  std::uint32_t num_droplet_states = 0;
  std::uint32_t start = 0;

  // CSR ranges: choices of state s are [choice_offset[s], choice_offset[s+1]),
  // off-state transitions of choice c are [trans_offset[c], trans_offset[c+1]).
  std::vector<std::uint32_t> choice_offset;  ///< size n+1
  std::vector<std::uint32_t> trans_offset;   ///< size choices+1

  // Per-choice precomputations.
  std::vector<double> cost;             ///< reward charged per attempt
  std::vector<double> inv_one_minus_q;  ///< 1/(1−q); 0.0 ⇒ pure self-loop

  // Per-transition flat arrays (self-loop branches removed).
  std::vector<std::uint32_t> target;
  std::vector<double> probability;

  std::vector<std::uint8_t> is_goal;  ///< per droplet state

  /// Goal-anchored Gauss-Seidel sweep order over the droplet states:
  /// reverse-BFS layers from the goal set first, then any states the goal
  /// cannot be reached from (in index order; they keep value 0/∞ anyway).
  std::vector<std::uint32_t> sweep_order;
  /// Number of leading sweep_order entries reached by the reverse BFS.
  std::uint32_t goal_reachable = 0;

  /// Reverse adjacency, CSR-style: the source states with an off-state edge
  /// into s are pred_state[pred_offset[s]..pred_offset[s+1]), in ascending
  /// source order (one entry per edge, so multiplicity is preserved). The
  /// compile-time reverse BFS that builds sweep_order, the winning-region
  /// pass and rmin's stale marking walk this index.
  std::vector<std::uint32_t> pred_offset;  ///< size n+1
  std::vector<std::uint32_t> pred_state;   ///< size = edges into droplet states

  std::uint32_t hazard_sink() const { return num_droplet_states; }
  std::size_t state_count() const { return num_droplet_states + 1u; }
  std::size_t choice_count() const { return cost.size(); }
};

/// Geometry side table of a CompiledMdp: the per-state droplet rectangles,
/// the action and outcome count behind every flat choice, and the rect →
/// state index of the exploration. In-place health patching, start
/// re-anchoring and strategy extraction read it; it is kept separate from
/// CompiledMdp so the solver's hot arrays stay lean.
struct CompiledGeometry {
  std::vector<Rect> droplets;        ///< per droplet state
  std::vector<Action> choice_action; ///< per flat choice (CompiledMdp order)
  /// Per flat choice: its outcome count with the self-loop branch, the
  /// choice's share of ModelStats::transitions. The patch keeps it current.
  std::vector<std::uint8_t> choice_outcomes;
  StateIndex state_index;            ///< over the job's hazard bounds
};

/// What build_compiled_mdp produces for one routing job.
struct CompiledModel {
  CompiledMdp mdp;
  CompiledGeometry geometry;
  /// PRISM-style model counts (Table V columns); transitions include the
  /// self-loop branches the compiled arrays factor out.
  ModelStats stats;
};

/// Builds the routing-job MDP straight into compiled form by one forward
/// exploration from the job's start droplet over all enabled actions under
/// @p rules (see build_routing_mdp for the model and the parameters). Emits
/// a `vi.compile` span and compile-shape metrics when observability is
/// enabled.
CompiledModel build_compiled_mdp(const assay::RoutingJob& rj,
                                 const DoubleMatrix& force, const Rect& chip,
                                 const ActionRules& rules,
                                 double wear_penalty_lambda = 0.0);

/// Flattens an explicit @p mdp into the compiled form (one pass over the
/// graph plus one reverse BFS). Emits a `vi.compile` span and compile-shape
/// metrics when observability is enabled.
CompiledMdp compile_mdp(const RoutingMdp& mdp);

/// One choice as the fused builder, the in-place patch and the synthesizer's
/// certificate derive it from the shared outcome kernel and a resolved
/// table entry: its outcome set (a reference to the caller's buffer, valid
/// until the next fill), the committed-value scale 1/(1−q) with the
/// self-loop mass q summed in outcome order (0 marks a pure self-loop), and
/// its cost. Deriving every reader through here is what makes a
/// topology-preserving patch reproduce a fresh build bit for bit, and the
/// certificate read the choices a fresh build would.
struct ChoiceParams {
  const OutcomeSet& outcomes;
  double inv_one_minus_q;
  double cost;
};

/// The parameters of the enabled action behind @p entry at @p droplet under
/// @p force; @p outcomes is refilled. @p wear_penalty_lambda as in
/// build_compiled_mdp.
ChoiceParams choice_params(const ActionEntry& entry, const Rect& droplet,
                           const ClampedForce& force, const Rect& chip,
                           double wear_penalty_lambda, OutcomeSet& outcomes);

/// Whether choice_params of @p entry at @p droplet reads a cell of @p cells:
/// one in a pulling frontier, or with a wear penalty one in the target
/// pattern. A choice that reads none of a force change's cells derives the
/// same parameters before and after it.
bool choice_reads(const ActionEntry& entry, const Rect& droplet,
                  double wear_penalty_lambda, const std::vector<Vec2i>& cells);

/// The non-goal droplet states of a model whose choices a force change on
/// @p changed_cells can reach: those whose influence box (the droplet
/// inflated by 2, which covers every frontier and target pattern an action
/// can read) holds a changed cell, ascending. The patch rescans exactly
/// these states, and the certificate re-checks them.
std::vector<std::uint32_t> influenced_states(
    const CompiledMdp& mdp, const CompiledGeometry& geometry,
    const std::vector<Vec2i>& changed_cells);

/// Outcome of patch_compiled_mdp.
struct MdpPatch {
  /// The delta was probability/cost-only and the model was updated in
  /// place. false ⇒ the delta changed the transition topology (a cell died
  /// or revived, adding/removing outcomes or reachable states — the
  /// quarantine/parole case); the model is left partially written and must
  /// be rebuilt from scratch.
  bool patched = false;
  /// Number of droplet states whose choice parameters actually changed.
  std::size_t dirty_states = 0;
  std::size_t states_rescanned = 0;  ///< states whose choices were recomputed
  std::size_t choices_changed = 0;   ///< choices with any param delta
  /// Change in the model's PRISM-style transition count: self-loop branches
  /// that appeared (a pull fell below probability 1) or vanished (a pull
  /// reached it) while the off-state topology held.
  std::int64_t transitions_delta = 0;
};

/// Patches @p mdp in place for a localized force change instead of a full
/// rebuild: recomputes the outcome distributions only for states whose
/// influence box (droplet inflated by 2, covering every frontier and target
/// pattern an action can touch) contains a changed cell, and rewrites their
/// choice costs / probabilities / self-loop scales. The transition targets
/// must be unchanged — any added, removed, or retargeted outcome (possible
/// because zero-probability branches are omitted from the model) aborts the
/// patch with patched == false. Topology-preserving patches keep sweep_order
/// and the predecessor index valid, and leave the arrays byte-identical to a
/// fresh build of the same job under @p force: the patch walks the
/// builder's per-shape action table and derives every choice through the
/// builder's own outcome kernel. It also keeps @p geometry's per-choice
/// outcome counts current (see MdpPatch::transitions_delta).
///
/// @param geometry   side table from build_compiled_mdp for the same model
/// @param force      chip-sized force matrix the model should now reflect
/// @param hazard     the routing job's hazard bounds used at build time
/// @param chip       chip bounds
/// @param rules      the action rules the model was built with
/// @param changed_cells  cells whose force changed (health_delta_cells)
/// @param wear_penalty_lambda  λ the model was built with
MdpPatch patch_compiled_mdp(CompiledMdp& mdp, CompiledGeometry& geometry,
                            const DoubleMatrix& force, const Rect& hazard,
                            const Rect& chip, const ActionRules& rules,
                            const std::vector<Vec2i>& changed_cells,
                            double wear_penalty_lambda = 0.0);

}  // namespace meda::core
