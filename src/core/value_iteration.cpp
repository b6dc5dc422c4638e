#include "core/value_iteration.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "obs/obs.hpp"
#include "util/check.hpp"

namespace meda::core {

const char* to_string(SolveTermination termination) {
  switch (termination) {
    case SolveTermination::kConverged: return "converged";
    case SolveTermination::kSweepLimit: return "sweep_limit";
    case SolveTermination::kDeadline: return "deadline";
  }
  return "unknown";
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Fixed-capacity ring for the per-sweep residual history; drained in
/// chronological order into Solution::sweep_residuals.
class ResidualRing {
 public:
  void push(double residual) {
    if (buf_.size() < kResidualRingCapacity) {
      buf_.push_back(residual);
    } else {
      buf_[next_] = residual;  // next_ is the oldest entry once full
      next_ = (next_ + 1) % kResidualRingCapacity;
    }
  }
  std::vector<double> take_chronological() {
    std::rotate(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(next_),
                buf_.end());
    next_ = 0;
    return std::move(buf_);
  }

 private:
  std::vector<double> buf_;
  std::size_t next_ = 0;
};

/// Shared solver telemetry: per-solve sweep count, residual curve, states
/// touched, and termination cause — as span args, registry metrics, and
/// (when tracing) sweep-domain counter samples.
template <typename Span>
void record_solve(Span& span, const Solution& sol, const char* query) {
  if (!MEDA_OBS_ACTIVE()) return;  // skip the name formatting entirely
  span.arg("sweeps", static_cast<std::int64_t>(sol.iterations));
  span.arg("residual", sol.final_residual);
  const bool converged = sol.termination == SolveTermination::kConverged;
  span.arg("converged", static_cast<std::int64_t>(converged ? 1 : 0));
  span.arg("termination", to_string(sol.termination));
  span.arg("states_touched", static_cast<std::int64_t>(sol.states_touched));
  MEDA_OBS_COUNT(std::string("vi.") + query + ".solves", 1);
  MEDA_OBS_COUNT(std::string("vi.") + query + ".sweeps",
                 static_cast<std::uint64_t>(sol.iterations));
  MEDA_OBS_COUNT(std::string("vi.") + query + ".states_touched",
                 sol.states_touched);
  MEDA_OBS_OBSERVE(std::string("vi.") + query + ".sweeps_per_solve",
                   static_cast<double>(sol.iterations), obs::kPow2Buckets);
  // Cross-query sweep-count distribution (one observation per solve).
  MEDA_OBS_OBSERVE_LOG2("vi.sweep_count", static_cast<double>(sol.iterations));
  MEDA_OBS_COUNT(std::string("vi.term.") + to_string(sol.termination), 1);
  // Residual curve: the ring's sweeps feed the convergence histogram and,
  // when the tracer is on, a sweep-domain counter track per query.
  const std::size_t ring = sol.sweep_residuals.size();
  const bool traced = obs::ctx().tracer().enabled();
  for (std::size_t i = 0; i < ring; ++i) {
    const double residual = sol.sweep_residuals[i];
    MEDA_OBS_OBSERVE("vi.sweep_residual", residual, obs::kResidualBuckets);
    if (traced) {
      const std::uint64_t sweep =
          static_cast<std::uint64_t>(sol.iterations) - ring + i + 1;
      obs::ctx().tracer().sweep_counter(std::string("vi.residual.") + query,
                                        residual, sweep);
    }
  }
  if (!converged) MEDA_OBS_COUNT("vi.nonconverged", 1);
  if (sol.termination == SolveTermination::kDeadline)
    MEDA_OBS_COUNT("vi.deadline_expired", 1);
}

void require_valid(const SolveConfig& config) {
  MEDA_REQUIRE(config.tolerance > 0.0 && config.max_iterations > 0,
               "invalid solve configuration");
}

/// One Bellman backup at a state: the optimizing value and local choice
/// index.
struct Backup {
  double value;
  int choice;
};

Backup pmax_backup(const CompiledMdp& m, const std::vector<double>& values,
                   std::uint32_t s) {
  const std::uint32_t cb = m.choice_offset[s];
  const std::uint32_t ce = m.choice_offset[s + 1];
  double best = 0.0;
  int best_choice = -1;
  for (std::uint32_t c = cb; c < ce; ++c) {
    double rest = 0.0;
    const std::uint32_t te = m.trans_offset[c + 1];
    for (std::uint32_t i = m.trans_offset[c]; i < te; ++i)
      rest += m.probability[i] * values[m.target[i]];
    // Pure self-loops carry inv_one_minus_q == 0 (and no off-state
    // branches), so their committed value is 0: never reaches goal.
    const double value = rest * m.inv_one_minus_q[c];
    if (value > best + kTieEps || best_choice < 0) {
      best = value;
      best_choice = static_cast<int>(c - cb);
    }
  }
  return {std::min(best, 1.0), best_choice};  // numeric slack
}

Backup rmin_backup(const CompiledMdp& m, const std::vector<double>& values,
                   const std::vector<std::uint8_t>& winning, std::uint32_t s) {
  const std::uint32_t cb = m.choice_offset[s];
  const std::uint32_t ce = m.choice_offset[s + 1];
  double best = kInf;
  int best_choice = -1;
  for (std::uint32_t c = cb; c < ce; ++c) {
    const double inv = m.inv_one_minus_q[c];
    if (inv == 0.0) continue;  // pure self-loop: no progress possible
    // Admissible only if every off-state branch stays inside the
    // winning region (the self-loop stays in s, which is winning).
    bool safe = true;
    double rest = 0.0;
    const std::uint32_t te = m.trans_offset[c + 1];
    for (std::uint32_t i = m.trans_offset[c]; i < te; ++i) {
      const std::uint32_t t = m.target[i];
      if (m.probability[i] > 0.0 && !winning[t]) {
        safe = false;
        break;
      }
      rest += m.probability[i] * values[t];
    }
    if (!safe) continue;
    const double value = (m.cost[c] + rest) * inv;
    if (value < best - kTieEps) {
      best = value;
      best_choice = static_cast<int>(c - cb);
    }
  }
  return {best, best_choice};
}

/// Goal-anchored Gauss-Seidel pmax sweeps from goals at 1 and every other
/// state at 0, until convergence, the sweep limit, or the deadline.
Solution run_pmax(const CompiledMdp& m, const SolveConfig& config) {
  const std::size_t n = m.num_droplet_states;
  Solution sol;
  sol.values.assign(m.state_count(), 0.0);
  sol.chosen.assign(n, -1);
  for (std::size_t s = 0; s < n; ++s)
    if (m.is_goal[s]) sol.values[s] = 1.0;

  ResidualRing residuals;
  while (sol.iterations < config.max_iterations) {
    // Deadline poll once per sweep: coarse enough to be free, fine enough
    // that a stuck solve stops within one sweep of the budget.
    if (config.deadline.expired()) {
      sol.termination = SolveTermination::kDeadline;
      break;
    }
    double delta = 0.0;
    std::uint64_t touched = 0;
    for (const std::uint32_t s : m.sweep_order) {
      if (m.is_goal[s]) continue;
      if (m.choice_offset[s] == m.choice_offset[s + 1]) continue;
      const Backup b = pmax_backup(m, sol.values, s);
      delta = std::max(delta, std::abs(b.value - sol.values[s]));
      sol.values[s] = b.value;
      sol.chosen[s] = b.choice;
      ++touched;
    }
    ++sol.iterations;
    sol.final_residual = delta;
    sol.states_touched += touched;
    residuals.push(delta);
    if (delta < config.tolerance) {
      sol.termination = SolveTermination::kConverged;
      break;
    }
  }
  sol.sweep_residuals = residuals.take_chronological();
  return sol;
}

/// Goal-anchored rmin sweeps over @p winning from winning goals at 0 and
/// every other state at ∞, as run_pmax. A state is backed up only while it
/// is stale: some successor's value changed since its last backup (every
/// state starts stale). A backup reads nothing but its successors' values
/// and the fixed winning set, so a skipped backup would reproduce the
/// state's value and choice bit for bit: residuals, sweep counts, values and
/// choices are those of backing up every state, and only states_touched
/// falls.
Solution run_rmin(const CompiledMdp& m, const SolveConfig& config,
                  const std::vector<std::uint8_t>& winning) {
  const std::size_t n = m.num_droplet_states;
  Solution sol;
  sol.values.assign(m.state_count(), kInf);
  sol.chosen.assign(n, -1);
  for (std::size_t s = 0; s < n; ++s)
    if (m.is_goal[s] && winning[s]) sol.values[s] = 0.0;

  ResidualRing residuals;
  std::vector<std::uint8_t> stale(n, 1);
  while (sol.iterations < config.max_iterations) {
    if (config.deadline.expired()) {
      sol.termination = SolveTermination::kDeadline;
      break;
    }
    double delta = 0.0;
    std::uint64_t touched = 0;
    for (const std::uint32_t s : m.sweep_order) {
      if (m.is_goal[s] || !winning[s] || !stale[s]) continue;
      stale[s] = 0;
      const Backup b = rmin_backup(m, sol.values, winning, s);
      // Keep ∞: every admissible choice still has a branch at ∞. This can
      // outlast the solve at winning states — a sweep that changes nothing
      // counts as converged — and the synthesizer's pmax fallback then
      // covers the start.
      if (b.choice < 0) continue;
      const double prev = sol.values[s];
      const double diff = std::isinf(prev) ? 1.0 : std::abs(b.value - prev);
      delta = std::max(delta, diff);
      if (b.value != prev) {
        for (std::uint32_t i = m.pred_offset[s]; i < m.pred_offset[s + 1]; ++i)
          stale[m.pred_state[i]] = 1;
      }
      sol.values[s] = b.value;
      sol.chosen[s] = b.choice;
      ++touched;
    }
    ++sol.iterations;
    sol.final_residual = delta;
    sol.states_touched += touched;
    residuals.push(delta);
    if (delta < config.tolerance) {
      sol.termination = SolveTermination::kConverged;
      break;
    }
  }
  sol.sweep_residuals = residuals.take_chronological();
  return sol;
}

}  // namespace

std::vector<std::uint8_t> almost_sure_winning(const CompiledMdp& m) {
  MEDA_OBS_SPAN(span, "vi", "winning");
  const std::uint32_t n = m.num_droplet_states;
  // in_u: the outer candidate set U, in_r: the inner attractor R. Both are
  // sized state_count() so a branch into the hazard sink reads "outside".
  std::vector<std::uint8_t> in_u(m.state_count(), 1);
  in_u[m.hazard_sink()] = 0;
  std::vector<std::uint8_t> in_r(m.state_count(), 0);
  std::vector<std::uint32_t> queue;
  queue.reserve(n);

  // ∃c: post(c) ⊆ U ∧ post(c) ∩ R ≠ ∅. The self-loop branch is factored
  // out and s ∉ R when this is asked, so only the off-state branches count.
  auto joins_r = [&m, &in_u, &in_r](std::uint32_t s) {
    for (std::uint32_t c = m.choice_offset[s]; c < m.choice_offset[s + 1];
         ++c) {
      if (m.inv_one_minus_q[c] == 0.0) continue;  // pure self-loop
      bool inside = true;
      bool hits_r = false;
      for (std::uint32_t i = m.trans_offset[c]; i < m.trans_offset[c + 1];
           ++i) {
        if (m.probability[i] <= 0.0) continue;  // not in the support
        const std::uint32_t t = m.target[i];
        if (!in_u[t]) {
          inside = false;
          break;
        }
        hits_r = hits_r || in_r[t] != 0;
      }
      if (inside && hits_r) return true;
    }
    return false;
  };

  std::size_t u_size = n;
  for (;;) {
    // μR: a backward search from the goal states; a predecessor's choices
    // are (re)checked whenever one of its successors joins R.
    std::fill(in_r.begin(), in_r.end(), 0);
    queue.clear();
    for (std::uint32_t s = 0; s < n; ++s) {
      if (!m.is_goal[s]) continue;
      in_r[s] = 1;
      queue.push_back(s);
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::uint32_t t = queue[head];
      for (std::uint32_t i = m.pred_offset[t]; i < m.pred_offset[t + 1]; ++i) {
        const std::uint32_t p = m.pred_state[i];
        if (in_r[p] || !in_u[p] || !joins_r(p)) continue;
        in_r[p] = 1;
        queue.push_back(p);
      }
    }
    // νU: R ⊆ U always, so equal sizes mean nothing more fell out.
    if (queue.size() == u_size) break;
    u_size = queue.size();
    in_u.swap(in_r);
  }

  const std::uint64_t losing = n - u_size;
  MEDA_OBS_COUNT("vi.winning.calls", 1);
  MEDA_OBS_COUNT("vi.winning.losing_states", losing);
  span.arg("states", static_cast<std::int64_t>(n));
  span.arg("losing_states", static_cast<std::int64_t>(losing));
  return in_u;
}

Solution solve_pmax(const CompiledMdp& mdp, const SolveConfig& config) {
  require_valid(config);
  MEDA_OBS_SPAN(span, "vi", "pmax");
  Solution sol = run_pmax(mdp, config);
  record_solve(span, sol, "pmax");
  return sol;
}

ReachAvoidSolution solve_reach_avoid(const CompiledMdp& mdp,
                                     const SolveConfig& config,
                                     bool need_pmax) {
  require_valid(config);
  ReachAvoidSolution out;
  out.winning = almost_sure_winning(mdp);
  {
    MEDA_OBS_SPAN(span, "vi", "rmin");
    out.rmin = run_rmin(mdp, config, out.winning);
    record_solve(span, out.rmin, "rmin");
  }
  // Numeric pmax only where its values are read: the caller reads it at
  // every state, or rmin finished and left the start at ∞ (the
  // synthesizer's best-effort fallback).
  if (out.rmin.termination != SolveTermination::kDeadline &&
      (need_pmax || !std::isfinite(out.rmin.values[mdp.start])))
    out.pmax = solve_pmax(mdp, config);
  return out;
}

}  // namespace meda::core
