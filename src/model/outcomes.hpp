#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <vector>

#include "chip/degradation.hpp"
#include "geometry/rect.hpp"
#include "model/action.hpp"
#include "model/action_table.hpp"
#include "util/check.hpp"
#include "util/matrix.hpp"

/// @file outcomes.hpp
/// The probabilistic actuation model of Section V-B: given the per-MC
/// relative EWOD forces, each action induces a distribution over resulting
/// droplet rectangles. Success of a pull in direction d has probability
///
///   p = F̄(δ; a, d) / |Fr(δ; a, d)|,   F̄(δ; a, d) = Σ_{(i,j)∈Fr} F̄_ij,
///
/// i.e. the mean relative force over the frontier (every frontier MC
/// contributes equally). Event spaces:
///
///   cardinal a_d : {d, ε}
///   double a_dd  : {dd, d, ε}    (second step conditioned on the first)
///   ordinal a_dd': {dd', d, d', ε}
///   morph a_↓/a_↑: {morphed, ε}

namespace meda {

/// One possible result of executing an action.
struct Outcome {
  Rect droplet;        ///< resulting droplet δ^(k+1)
  double probability;  ///< event probability (outcomes sum to 1)
};

/// Per-MC relative-force source F̄_ij; must be defined for every cell an
/// enabled action's frontier can touch. Values are clamped to [0, 1].
using ForceFn = std::function<double(int x, int y)>;

namespace detail {

/// The one frontier mean: sums cell(x, y) over @p fr row by row, then
/// divides by its area. Every force accessor goes through it, so they agree
/// bit for bit on equal cell values. Requires a valid @p fr; the accessors
/// check it, which keeps the throw path out of this loop so it inlines.
template <typename Cell>
double frontier_mean(const Rect& fr, Cell&& cell) {
  double total = 0.0;
  for (int y = fr.ya; y <= fr.yb; ++y)
    for (int x = fr.xa; x <= fr.xb; ++x) total += cell(x, y);
  return total / static_cast<double>(fr.area());
}

}  // namespace detail

/// Mean relative force over a frontier rectangle.
double mean_frontier_force(const ForceFn& force, const Rect& fr);

/// Mean relative force over a frontier rectangle. Requires the frontier to
/// lie within the force matrix. Values are clamped to [0, 1].
double mean_frontier_force(const DoubleMatrix& force, const Rect& fr);

/// Frontier-mean accessor over a chip-sized force matrix for outcome_set:
/// each frontier is bounds-checked against the matrix once.
struct MatrixForce {
  const DoubleMatrix& force;
  double operator()(const Rect& fr) const {
    return mean_frontier_force(force, fr);
  }
};

/// A chip-sized force matrix clamped to [0, 1] once, for model builders,
/// which read each cell many times. Its frontier means run the same
/// frontier_mean as mean_frontier_force over the raw matrix, on the same
/// clamped values, so both return the same double (NaN included) without a
/// clamp per read.
class ClampedForce {
 public:
  explicit ClampedForce(const DoubleMatrix& force);

  /// Mean relative force over frontier @p fr. Requires the frontier to lie
  /// within the force matrix.
  double operator()(const Rect& fr) const {
    MEDA_REQUIRE(fr.valid() && fr.xa >= 0 && fr.ya >= 0 &&
                     fr.xb < clamped_.width() && fr.yb < clamped_.height(),
                 "frontier empty or outside the force matrix");
    return detail::frontier_mean(
        fr, [this](int x, int y) { return clamped_(x, y); });
  }

 private:
  DoubleMatrix clamped_;
};

/// The outcomes of one action in a fixed-size buffer: the largest event
/// space (ordinal a_dd') has four outcomes, so model builders can enumerate
/// outcomes without a heap allocation per choice. A builder keeps one set
/// and refills it per choice (see the filling outcome_set), so the buffer
/// is initialised once per build rather than once per choice.
class OutcomeSet {
 public:
  static constexpr std::size_t kCapacity = 4;

  const Outcome* begin() const { return items_.data(); }
  const Outcome* end() const { return items_.data() + size_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Drops every outcome; the buffer is kept for the next fill.
  void clear() { size_ = 0; }

  /// Appends an outcome; zero-probability outcomes are omitted.
  void push(const Rect& droplet, double p) {
    if (p <= 0.0) return;
    MEDA_ASSERT(size_ < kCapacity, "outcome buffer overflow");
    items_[size_++] = Outcome{droplet, p};
  }

 private:
  std::array<Outcome, kCapacity> items_{};
  std::size_t size_ = 0;
};

/// The Section V-B event spaces, implemented once: the outcome distribution
/// of the action behind @p entry on @p droplet, a droplet of the entry's
/// shape. @p mean_force maps a frontier rectangle to its mean relative
/// force (MatrixForce, ClampedForce or a mean_frontier_force wrapper). The
/// compiled model builder and its in-place health patch call this kernel
/// with entries of their ActionTable; the per-call overload below resolves
/// the entry of its one action and runs the same code, so every caller
/// agrees bit for bit.
///
/// The caller must have established that the action is enabled
/// (action_enabled or ActionEntry::enabled_at), so all frontiers index
/// valid cells. Zero-probability outcomes are omitted; the remaining
/// probabilities sum to 1. This form refills the caller's @p out, so a
/// builder can reuse one buffer for every choice; the forms below return a
/// fresh set through it.
template <typename MeanForce>
void outcome_set(const ActionEntry& entry, const Rect& droplet,
                 MeanForce&& mean_force, OutcomeSet& out) {
  // Success probability of pull i.
  const auto pull = [&](int i) {
    return mean_force(placed(entry.pull[i], droplet));
  };
  out.clear();
  switch (entry.action_class) {
    case ActionClass::kCardinal:
    case ActionClass::kWiden:
    case ActionClass::kHeighten: {
      const double s = pull(0);
      out.push(placed(entry.success, droplet), s);
      out.push(droplet, 1.0 - s);
      break;
    }
    case ActionClass::kDouble: {
      // p(dd) = s1·s2, p(d) = s1·(1−s2), p(ε) = 1−s1 (second step is
      // conditioned on the first succeeding).
      const double s1 = pull(0);
      const double s2 = pull(1);
      out.push(placed(entry.success, droplet), s1 * s2);
      out.push(placed(entry.partial[0], droplet), s1 * (1.0 - s2));
      out.push(droplet, 1.0 - s1);
      break;
    }
    case ActionClass::kOrdinal: {
      const double sv = pull(0);
      const double sh = pull(1);
      out.push(placed(entry.success, droplet), sv * sh);             // dd'
      out.push(placed(entry.partial[0], droplet), sv * (1.0 - sh));  // d
      out.push(placed(entry.partial[1], droplet), (1.0 - sv) * sh);  // d'
      out.push(droplet, (1.0 - sv) * (1.0 - sh));                    // ε
      break;
    }
  }
  MEDA_ASSERT(!out.empty(), "action produced no outcomes");
}

/// The kernel above into a fresh set.
template <typename MeanForce>
OutcomeSet outcome_set(const ActionEntry& entry, const Rect& droplet,
                       MeanForce&& mean_force) {
  OutcomeSet out;
  outcome_set(entry, droplet, mean_force, out);
  return out;
}

/// Per-call form of the kernel: resolves action @p a for the shape of
/// @p droplet and evaluates it there. Both action_outcomes overloads and
/// build_routing_mdp's re-expansion go through here.
template <typename MeanForce>
OutcomeSet outcome_set(const Rect& droplet, Action a, MeanForce&& mean_force) {
  MEDA_REQUIRE(droplet.valid(), "outcomes of an invalid droplet");
  return outcome_set(resolve_action(a, droplet.width(), droplet.height()),
                     droplet, mean_force);
}

/// Full outcome distribution of action @p a on @p droplet under the per-MC
/// relative-force field @p force (outcome_set as a vector).
std::vector<Outcome> action_outcomes(const Rect& droplet, Action a,
                                     const ForceFn& force);

/// Overload reading forces from a chip-sized matrix; every frontier is
/// bounds-checked against it once.
std::vector<Outcome> action_outcomes(const Rect& droplet, Action a,
                                     const DoubleMatrix& force);

/// Builds the relative-force matrix F̄ = D² from a true degradation matrix
/// (simulator view; full information).
DoubleMatrix force_from_degradation(const DoubleMatrix& degradation);

/// Builds the relative-force matrix from a sensed b-bit health matrix
/// (controller view): F̄ = D̂² with D̂ = estimate_degradation(H).
DoubleMatrix force_from_health(const IntMatrix& health, int bits,
                               HealthEstimator estimator);

/// A force field with every MC at full health (used by the
/// degradation-unaware baseline router).
DoubleMatrix full_health_force(int width, int height);

}  // namespace meda
