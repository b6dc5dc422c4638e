#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/compiled_mdp.hpp"
#include "core/mdp.hpp"
#include "util/deadline.hpp"

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
/// when its values are read: when rmin leaves the start at ∞ (the best-effort
/// pmax fallback) or for the φ_p query.
///
/// Failed pulls self-loop, so plain value iteration converges geometrically
/// slowly; both solvers therefore eliminate per-choice self-loops
/// algebraically (a choice with stay-probability q and off-state mass rest
/// has committed value rest/(1−q), or (cost + rest)/(1−q) for rewards).
///
/// Two solver paths share this interface:
///
///  - the **compiled fast path** (the default): Gauss-Seidel sweeps over a
///    CompiledMdp's flat CSR arrays in goal-anchored order, with the
///    self-loop scale 1/(1−q) precomputed per choice (see compiled_mdp.hpp);
///  - the **legacy reference path** (`solve_*_legacy`): the original sweeps
///    over the pointer-based RoutingMdp in state-index order, whose rmin
///    takes its winning region from a numeric pmax thresholded at 1 − 1e-6.
///    Kept as the equivalence oracle for tests and the baseline for
///    microbenchmarks.
///
/// Both paths break value ties identically: among choices within `kTieEps`
/// of the optimum, the lowest choice index — i.e. the lowest action index,
/// since the model builder enumerates kAllActions in order — wins. Policies
/// are therefore stable across the two paths and across sweep orders.

namespace meda::core {

/// Tie-break window shared by every solver path: a choice must beat the
/// incumbent by more than this to replace it, so exact ties (and sub-noise
/// differences) resolve to the lowest action index in pmax and rmin alike.
inline constexpr double kTieEps = 1e-15;

/// Iteration controls.
struct SolveConfig {
  double tolerance = 1e-9;
  int max_iterations = 200000;
  /// Cooperative deadline polled once per Gauss-Seidel sweep (never per
  /// state). On expiry the solver stops early with converged = false and
  /// deadline_expired = true; partial values are still returned but must
  /// not be used for strategy extraction. A default token never expires.
  util::Deadline deadline{};
};

/// Why a solve stopped (Solution::termination).
enum class SolveTermination {
  kConverged,   ///< residual fell below SolveConfig::tolerance
  kSweepLimit,  ///< ran out of max_iterations
  kDeadline,    ///< SolveConfig::deadline expired mid-solve
};

/// Stable lower-case label ("converged" / "sweep_limit" / "deadline"),
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
  bool converged = false;
  bool deadline_expired = false;  ///< stopped by SolveConfig::deadline
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
  /// Numeric pmax; empty (no values, zero sweeps) unless it was solved —
  /// rmin left the start at ∞, or the caller asked for it (the φ_p query).
  Solution pmax;
};

// Compiled fast path --------------------------------------------------------

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
/// rmin over it, then numeric pmax only where its values are read — when
/// the caller reads it at every state (@p need_pmax, the φ_p query) or when
/// rmin finished and left the start at ∞ (the synthesizer's best-effort
/// fallback). A finite rmin at the start means the start is winning, i.e.
/// reach probability exactly 1.
ReachAvoidSolution solve_reach_avoid(const CompiledMdp& mdp,
                                     const SolveConfig& config = {},
                                     bool need_pmax = false);

/// Compiles @p mdp once and runs the combined solve on it.
ReachAvoidSolution solve_reach_avoid(const RoutingMdp& mdp,
                                     const SolveConfig& config = {});

// RoutingMdp entry points (thin wrappers over the compiled path) ------------

/// Maximum reach-avoid probability. Compiles the model and runs the fast
/// path; values and the chosen policy match the legacy solver.
Solution solve_pmax(const RoutingMdp& mdp, const SolveConfig& config = {});

/// Minimum expected cycles to goal under the almost-sure-reachability
/// restriction; excluded states get +∞. Compiles once and solves rmin over
/// the exact winning region.
Solution solve_rmin(const RoutingMdp& mdp, const SolveConfig& config = {});

// Legacy reference path -----------------------------------------------------

/// Original state-index-order Jacobi/Gauss-Seidel pmax on the pointer-based
/// representation. Reference implementation for equivalence tests and the
/// compiled-vs-legacy microbenchmarks.
Solution solve_pmax_legacy(const RoutingMdp& mdp,
                           const SolveConfig& config = {});

/// Original rmin (internally re-runs a full legacy pmax for the winning
/// region — the double-solve the compiled path eliminates).
Solution solve_rmin_legacy(const RoutingMdp& mdp,
                           const SolveConfig& config = {});

}  // namespace meda::core
