#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/compiled_mdp.hpp"

/// @file value_iteration.hpp
/// The model-checking engine standing in for PRISM-games (Section VI-C).
/// Solves the two synthesis queries of the paper on a routing MDP:
///
///   φ_p: Pmax=? [ □(¬hazard) ∧ ◇goal ]  — maximum probability of reaching a
///        goal state while never entering the hazard sink;
///   φ_r: Rmin=? [ □(¬hazard) ∧ ◇goal ]  — minimum expected number of cycles
///        (reward 1 per action) to reach goal, with PRISM reward semantics:
///        states from which goal is not almost-surely reachable get ∞.
///
/// As in PRISM, φ_r's almost-sure winning region is a graph property and is
/// computed exactly by a Prob1E precomputation over the compiled model's
/// support graph (almost_sure_winning), before any numeric iteration. A
/// combined solve then runs rmin over that region, and numeric pmax only
/// when rmin leaves the start at ∞ (the best-effort pmax fallback); φ_p's
/// value at every state is solve_pmax's.
///
/// Failed pulls self-loop, so plain value iteration converges geometrically
/// slowly; the solvers therefore eliminate per-choice self-loops
/// algebraically (a choice with stay-probability q and off-state mass rest
/// has committed value rest/(1−q), or (cost + rest)/(1−q) for rewards).
///
/// Every solve runs Gauss-Seidel sweeps over a CompiledMdp's flat CSR arrays
/// in goal-anchored order, with the self-loop scale 1/(1−q) precomputed per
/// choice (see compiled_mdp.hpp). Value ties break to the lowest choice
/// index: among choices within `kTieEps` of the optimum, the lowest action
/// index wins, since a state's choices follow kAllActions order.
/// Policies are therefore stable across sweep orders. The tests check the
/// solvers against exact policy evaluation and a textbook Prob1E, which
/// share no code with them.

namespace meda::core {

/// Tie-break window: a choice must beat the incumbent by more than this to
/// replace it, so exact ties (and sub-noise differences) resolve to the
/// lowest action index in pmax and rmin alike.
inline constexpr double kTieEps = 1e-15;

/// Iteration controls.
struct SolveConfig {
  double tolerance = 1e-9;
  int max_iterations = 200000;

  /// The field list (see SchedulerConfig::for_each_field).
  template <typename F, typename... C>
  static void for_each_field(F&& f, C&&... c) {
    f("tolerance", c.tolerance...);
    f("max_iterations", c.max_iterations...);
  }
};

/// Why a solve stopped (Solution::termination).
enum class SolveTermination {
  kConverged,   ///< residual fell below SolveConfig::tolerance
  kSweepLimit,  ///< ran out of max_iterations
};

/// Stable lower-case label ("converged" / "sweep_limit"),
/// used in span args, metric names, and CSV cells.
const char* to_string(SolveTermination termination);

/// Per-sweep max-residual history kept on every Solution: the last
/// kResidualRingCapacity sweeps, chronological. Bounded so a pathological
/// 200k-sweep solve cannot bloat its Solution; 64 sweeps is an order of
/// magnitude past a typical converged solve, so the ring usually holds the
/// whole residual curve.
inline constexpr std::size_t kResidualRingCapacity = 64;

/// Solver output: per-state values and the optimizing choice per state.
struct Solution {
  std::vector<double> values;  ///< indexed like the MDP (incl. hazard sink)
  std::vector<int> chosen;     ///< choice index per droplet state; -1 if none
  int iterations = 0;          ///< Bellman sweeps performed
  double final_residual = 0.0; ///< max value change in the last sweep
  SolveTermination termination = SolveTermination::kSweepLimit;
  /// State-value updates actually performed (goal/non-winning/choiceless
  /// states a sweep skips are not counted, nor rmin states none of whose
  /// successors changed since their last backup) — the solver's real work
  /// metric, at most sweeps × active states.
  std::uint64_t states_touched = 0;
  /// Max residual of each of the last kResidualRingCapacity sweeps, oldest
  /// first; entry i belongs to sweep iterations - size + i + 1 (1-based).
  std::vector<double> sweep_residuals;
};

/// Both synthesis queries answered from one compiled model.
struct ReachAvoidSolution {
  /// Almost-sure winning region, indexed like the MDP (the hazard sink is
  /// never winning): the states rmin is solved over.
  std::vector<std::uint8_t> winning;
  Solution rmin;
  /// Numeric pmax; empty (no values, zero sweeps) unless rmin left the
  /// start at ∞.
  Solution pmax;
};

/// Exact almost-sure winning region of φ_r (PRISM's Prob1E precomputation):
/// the states from which some strategy reaches a goal state with probability
/// 1 without entering the hazard sink. Computed as the nested fixpoint
/// νU. μR. goal ∪ {s ∈ U | ∃c: post(c) ⊆ U ∧ post(c) ∩ R ≠ ∅} over the
/// support graph — no numeric iteration, no tolerance. A choice the compiled
/// form marks as a pure self-loop (inv_one_minus_q == 0) makes no progress,
/// exactly as in the solvers. Sized state_count(); emits a `vi/winning` span.
std::vector<std::uint8_t> almost_sure_winning(const CompiledMdp& mdp);

/// Maximum reach-avoid probability on the compiled form (Gauss-Seidel in
/// goal-anchored sweep order). Goal states have value 1, the hazard sink 0.
Solution solve_pmax(const CompiledMdp& mdp, const SolveConfig& config = {});

/// Both queries from one compiled model: the exact winning region, then
/// rmin over it, then numeric pmax only when rmin left the start at ∞ (the
/// synthesizer's best-effort fallback). A finite rmin at the start means the
/// start is winning, i.e. reach probability exactly 1.
ReachAvoidSolution solve_reach_avoid(const CompiledMdp& mdp,
                                     const SolveConfig& config = {});

}  // namespace meda::core
