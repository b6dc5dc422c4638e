#include "core/compiled_mdp.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>

#include "model/action_table.hpp"
#include "model/outcomes.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"

namespace meda::core {

ChoiceParams choice_params(const ActionEntry& entry, const Rect& droplet,
                           const ClampedForce& force, const Rect& chip,
                           double wear_penalty_lambda, OutcomeSet& outcomes) {
  outcome_set(entry, droplet, force, outcomes);
  double q = 0.0;
  for (const Outcome& o : outcomes)
    if (o.droplet == droplet) q += o.probability;
  double cost = 1.0;
  if (wear_penalty_lambda > 0.0) {
    // Wear-aware reward: penalize actuating already-degraded cells. The
    // actuated cells are the move's target pattern a(δ).
    const Rect target =
        placed(entry.success, droplet).intersection_with(chip);
    cost = 1.0 + wear_penalty_lambda * (1.0 - force(target));
  }
  return {outcomes, q >= 1.0 - 1e-12 ? 0.0 : 1.0 / (1.0 - q), cost};
}

bool choice_reads(const ActionEntry& entry, const Rect& droplet,
                  double wear_penalty_lambda,
                  const std::vector<Vec2i>& cells) {
  const auto reads = [&cells](const Rect& rect) {
    return std::ranges::any_of(
        cells, [&rect](const Vec2i cell) { return rect.contains(cell); });
  };
  for (int i = 0; i < entry.pulls; ++i)
    if (reads(placed(entry.pull[i], droplet))) return true;
  return wear_penalty_lambda > 0.0 && reads(placed(entry.success, droplet));
}

namespace {

/// Placeholder for the hazard sink while the state count is still growing;
/// remapped to the final sink index after exploration.
constexpr std::uint32_t kHazardSentinel =
    std::numeric_limits<std::uint32_t>::max();

/// The shared tail of both compiled-form producers, run once the forward
/// arrays (offsets, targets, is_goal) are final: the reverse adjacency and
/// the goal-anchored sweep order.
void index_compiled_mdp(CompiledMdp& out) {
  const std::size_t n = out.num_droplet_states;
  // Reverse adjacency over the off-state edges, built CSR-style (counting
  // pass + placement pass) to stay allocation-light. Kept on the compiled
  // model: the reverse BFS below anchors sweep_order on it, and the
  // winning-region pass and rmin's stale marking walk it on every solve.
  std::vector<std::uint32_t> pred_count(n, 0);
  for (std::size_t i = 0; i < out.target.size(); ++i) {
    const std::uint32_t t = out.target[i];
    if (t < n) ++pred_count[t];
  }
  out.pred_offset.assign(n + 1, 0);
  for (std::size_t s = 0; s < n; ++s)
    out.pred_offset[s + 1] = out.pred_offset[s] + pred_count[s];
  out.pred_state.resize(out.pred_offset[n]);
  std::vector<std::uint32_t> fill(out.pred_offset.begin(),
                                  out.pred_offset.end() - 1);
  for (std::size_t s = 0; s < n; ++s) {
    const std::uint32_t tb = out.trans_offset[out.choice_offset[s]];
    const std::uint32_t te = out.trans_offset[out.choice_offset[s + 1]];
    for (std::uint32_t i = tb; i < te; ++i) {
      const std::uint32_t t = out.target[i];
      if (t < n) out.pred_state[fill[t]++] = static_cast<std::uint32_t>(s);
    }
  }

  // Goal-anchored sweep order: reverse BFS from the goal set.
  out.sweep_order.reserve(n);
  std::vector<std::uint8_t> seen(n, 0);
  for (std::size_t s = 0; s < n; ++s) {
    if (out.is_goal[s]) {
      seen[s] = 1;
      out.sweep_order.push_back(static_cast<std::uint32_t>(s));
    }
  }
  for (std::size_t head = 0; head < out.sweep_order.size(); ++head) {
    const std::uint32_t s = out.sweep_order[head];
    for (std::uint32_t i = out.pred_offset[s]; i < out.pred_offset[s + 1];
         ++i) {
      const std::uint32_t p = out.pred_state[i];
      if (!seen[p]) {
        seen[p] = 1;
        out.sweep_order.push_back(p);
      }
    }
  }
  out.goal_reachable = static_cast<std::uint32_t>(out.sweep_order.size());
  for (std::size_t s = 0; s < n; ++s)
    if (!seen[s]) out.sweep_order.push_back(static_cast<std::uint32_t>(s));
}

/// Compile-shape span args and the vi.compile.* metrics.
template <typename Span>
void record_compile(Span& span, const CompiledMdp& out) {
  if (!MEDA_OBS_ACTIVE()) return;
  span.arg("states", static_cast<std::int64_t>(out.state_count()));
  span.arg("choices", static_cast<std::int64_t>(out.choice_count()));
  span.arg("transitions", static_cast<std::int64_t>(out.target.size()));
  span.arg("goal_reachable", static_cast<std::int64_t>(out.goal_reachable));
  MEDA_OBS_COUNT("vi.compile.calls", 1);
  MEDA_OBS_OBSERVE("vi.compile.states", static_cast<double>(out.state_count()),
                   obs::kStateCountBuckets);
  // States the reverse BFS could not anchor to a goal (they keep their
  // initial value, so an increase here flags degenerate models).
  MEDA_OBS_COUNT("vi.compile.unanchored_states",
                 static_cast<std::uint64_t>(out.num_droplet_states) -
                     out.goal_reachable);
}

}  // namespace

CompiledModel build_compiled_mdp(const assay::RoutingJob& rj,
                                 const DoubleMatrix& force, const Rect& chip,
                                 const ActionRules& rules,
                                 double wear_penalty_lambda) {
  MEDA_REQUIRE(wear_penalty_lambda >= 0.0,
               "wear penalty must be non-negative");
  MEDA_REQUIRE(rj.start.valid(), "routing job start must be a valid droplet");
  MEDA_REQUIRE(rj.goal.valid() && rj.hazard.valid(),
               "routing job goal/hazard must be valid");
  MEDA_REQUIRE(chip.contains(rj.start), "start droplet must be on the chip");
  MEDA_REQUIRE(rj.hazard.contains(rj.start),
               "start droplet must lie within the hazard bounds");
  MEDA_REQUIRE(force.width() == chip.width() &&
                   force.height() == chip.height(),
               "force matrix must be chip-sized");
  MEDA_OBS_SPAN(span, "vi", "compile");

  CompiledModel model;
  CompiledMdp& out = model.mdp;
  CompiledGeometry& geo = model.geometry;
  // Every state is a droplet inside δ_h, and enabled actions keep droplets
  // on the chip, so the index only needs to cover their intersection.
  const Rect box = rj.hazard.intersection_with(chip);
  geo.state_index = StateIndex(box);
  // Frontier means read the force field clamped once, and each droplet
  // shape's enabled-by-rules actions and rects are resolved once.
  const ClampedForce clamped(force);
  ActionTable table(rules);

  // Size the arrays for one state per placement of the start shape in the
  // box, each with every table entry of that shape as a choice. Resolving
  // the start shape first changes nothing: the exploration resolves it
  // first anyway. Models whose droplets change shape grow past this; a
  // start inside the goal is one absorbing state and needs none of it.
  if (!rj.goal.contains(rj.start)) {
    const std::size_t states =
        static_cast<std::size_t>(box.width() - rj.start.width() + 1) *
        static_cast<std::size_t>(box.height() - rj.start.height() + 1);
    const std::size_t choices =
        states * table.actions(rj.start.width(), rj.start.height()).size();
    geo.droplets.reserve(states);
    out.is_goal.reserve(states);
    out.choice_offset.reserve(states + 1);
    out.cost.reserve(choices);
    out.inv_one_minus_q.reserve(choices);
    out.trans_offset.reserve(choices + 1);
    geo.choice_action.reserve(choices);
    geo.choice_outcomes.reserve(choices);
    out.target.reserve(choices + choices / 2);
    out.probability.reserve(choices + choices / 2);
  }

  auto intern = [&](const Rect& droplet) -> std::uint32_t {
    std::uint32_t& slot = geo.state_index.slot(droplet);
    if (slot == StateIndex::kAbsent) {
      slot = static_cast<std::uint32_t>(geo.droplets.size());
      geo.droplets.push_back(droplet);
      // The goal label of Section VI-C: the droplet lies inside δ_g.
      out.is_goal.push_back(rj.goal.contains(droplet) ? 1 : 0);
    }
    return slot;
  };

  out.start = intern(rj.start);
  out.choice_offset.push_back(0);
  out.trans_offset.push_back(0);
  OutcomeSet outcomes;  // one buffer, refilled per choice
  // Breadth-first: states are expanded in intern order, so the droplet list
  // doubles as the work queue and each state's choices land contiguously.
  for (std::size_t s = 0; s < geo.droplets.size(); ++s) {
    if (!out.is_goal[s]) {  // goal states are absorbing
      const Rect droplet = geo.droplets[s];
      for (const ActionEntry& entry :
           table.actions(droplet.width(), droplet.height())) {
        if (!entry.enabled_at(droplet, chip)) continue;
        const ChoiceParams params = choice_params(
            entry, droplet, clamped, chip, wear_penalty_lambda, outcomes);
        model.stats.transitions += params.outcomes.size();
        // Off-state branches in outcome order; the self-loop branch is
        // folded into inv_one_minus_q. Leaving δ_h is a hazard violation.
        for (const Outcome& o : params.outcomes) {
          if (o.droplet == droplet) continue;
          out.target.push_back(rj.hazard.contains(o.droplet)
                                   ? intern(o.droplet)
                                   : kHazardSentinel);
          out.probability.push_back(o.probability);
        }
        out.cost.push_back(params.cost);
        out.inv_one_minus_q.push_back(params.inv_one_minus_q);
        out.trans_offset.push_back(
            static_cast<std::uint32_t>(out.target.size()));
        geo.choice_action.push_back(entry.action);
        geo.choice_outcomes.push_back(
            static_cast<std::uint8_t>(params.outcomes.size()));
      }
    }
    out.choice_offset.push_back(
        static_cast<std::uint32_t>(out.trans_offset.size() - 1));
  }

  // Remap the sink sentinel to the final (stable) sink index.
  out.num_droplet_states = static_cast<std::uint32_t>(geo.droplets.size());
  for (std::uint32_t& t : out.target)
    if (t == kHazardSentinel) t = out.hazard_sink();

  model.stats.states = out.state_count();
  model.stats.choices = out.choice_count();
  index_compiled_mdp(out);
  record_compile(span, out);
  return model;
}

CompiledMdp compile_mdp(const RoutingMdp& mdp) {
  MEDA_OBS_SPAN(span, "vi", "compile");
  CompiledMdp out;
  const std::size_t n = mdp.droplets.size();
  out.num_droplet_states = static_cast<std::uint32_t>(n);
  out.start = mdp.start;

  std::size_t total_choices = 0;
  std::size_t total_transitions = 0;
  for (const auto& state_choices : mdp.choices) {
    total_choices += state_choices.size();
    for (const Choice& c : state_choices)
      total_transitions += c.transitions.size();
  }

  out.choice_offset.reserve(n + 1);
  out.trans_offset.reserve(total_choices + 1);
  out.cost.reserve(total_choices);
  out.inv_one_minus_q.reserve(total_choices);
  out.target.reserve(total_transitions);
  out.probability.reserve(total_transitions);
  out.is_goal.resize(n);

  out.choice_offset.push_back(0);
  out.trans_offset.push_back(0);
  for (std::size_t s = 0; s < n; ++s) {
    out.is_goal[s] = mdp.is_goal[s] ? 1 : 0;
    for (const Choice& choice : mdp.choices[s]) {
      // Factor the self-loop branch out of the transition list: sum its
      // mass q in transition order and keep only the off-state branches.
      double q = 0.0;
      for (const Transition& t : choice.transitions)
        if (t.target == s) q += t.probability;
      for (const Transition& t : choice.transitions) {
        if (t.target == static_cast<std::uint32_t>(s)) continue;
        out.target.push_back(t.target);
        out.probability.push_back(t.probability);
      }
      out.cost.push_back(choice.cost);
      out.inv_one_minus_q.push_back(q >= 1.0 - 1e-12 ? 0.0 : 1.0 / (1.0 - q));
      out.trans_offset.push_back(
          static_cast<std::uint32_t>(out.target.size()));
    }
    out.choice_offset.push_back(
        static_cast<std::uint32_t>(out.trans_offset.size() - 1));
  }

  index_compiled_mdp(out);
  record_compile(span, out);
  return out;
}

namespace {

/// Every cell an action's outcome distribution or wear cost can read lies
/// within the droplet inflated by this margin: single-step frontiers sit one
/// cell out, a double move's second-step frontier and target pattern two.
constexpr int kInfluenceRadius = 2;

}  // namespace

std::vector<std::uint32_t> influenced_states(
    const CompiledMdp& mdp, const CompiledGeometry& geometry,
    const std::vector<Vec2i>& changed_cells) {
  std::vector<std::uint32_t> states;
  if (changed_cells.empty()) return states;
  // Bounding box of the delta for a cheap per-state reject before the exact
  // per-cell containment test.
  Rect box{changed_cells.front().x, changed_cells.front().y,
           changed_cells.front().x, changed_cells.front().y};
  for (const Vec2i cell : changed_cells) {
    box.xa = std::min(box.xa, cell.x);
    box.ya = std::min(box.ya, cell.y);
    box.xb = std::max(box.xb, cell.x);
    box.yb = std::max(box.yb, cell.y);
  }
  for (std::uint32_t s = 0; s < mdp.num_droplet_states; ++s) {
    if (mdp.is_goal[s]) continue;  // absorbing: no choices
    const Rect influence = geometry.droplets[s].inflated(kInfluenceRadius);
    if (!influence.intersects(box)) continue;
    if (std::ranges::any_of(changed_cells, [&influence](const Vec2i cell) {
          return influence.contains(cell);
        }))
      states.push_back(s);
  }
  return states;
}

MdpPatch patch_compiled_mdp(CompiledMdp& mdp, CompiledGeometry& geometry,
                            const DoubleMatrix& force, const Rect& hazard,
                            const Rect& chip, const ActionRules& rules,
                            const std::vector<Vec2i>& changed_cells,
                            double wear_penalty_lambda) {
  MEDA_OBS_SPAN(span, "vi", "patch");
  MEDA_OBS_COUNT("vi.patch.calls", 1);  // attempts; aborts are a subset
  const std::size_t n = mdp.num_droplet_states;
  MEDA_REQUIRE(geometry.droplets.size() == n &&
                   geometry.choice_action.size() == mdp.choice_count() &&
                   geometry.choice_outcomes.size() == mdp.choice_count(),
               "geometry side table does not match the compiled model");
  MdpPatch out;
  if (changed_cells.empty()) {
    out.patched = true;
    return out;
  }

  const ClampedForce clamped(force);
  ActionTable table(rules);
  OutcomeSet buffer;  // one buffer, refilled per choice
  for (const std::uint32_t s :
       influenced_states(mdp, geometry, changed_cells)) {
    const Rect droplet = geometry.droplets[s];
    ++out.states_rescanned;

    bool state_dirty = false;
    // The enabled actions depend on geometry and rules only, so walking the
    // table as the builder did meets the state's choices in order.
    std::uint32_t c = mdp.choice_offset[s];
    const std::uint32_t ce = mdp.choice_offset[s + 1];
    for (const ActionEntry& entry :
         table.actions(droplet.width(), droplet.height())) {
      if (!entry.enabled_at(droplet, chip)) continue;
      MEDA_REQUIRE(c < ce && geometry.choice_action[c] == entry.action,
                   "rules differ from the ones the model was built with");
      const ChoiceParams params = choice_params(
          entry, droplet, clamped, chip, wear_penalty_lambda, buffer);
      bool choice_dirty = false;
      std::uint32_t i = mdp.trans_offset[c];
      const std::uint32_t te = mdp.trans_offset[c + 1];
      bool topology_ok = true;
      for (const Outcome& o : params.outcomes) {
        if (o.droplet == droplet) continue;
        std::uint32_t target = mdp.hazard_sink();
        if (hazard.contains(o.droplet)) {
          // Absent: a cell revived, so this branch had probability 0 at
          // build time and its target state was never explored.
          target = geometry.state_index.find(o.droplet);
        }
        if (i >= te || mdp.target[i] != target) {
          topology_ok = false;  // outcome set changed shape under the delta
          break;
        }
        if (mdp.probability[i] != o.probability) {
          mdp.probability[i] = o.probability;
          choice_dirty = true;
        }
        ++i;
      }
      if (!topology_ok || i != te) {
        // A cell died or revived inside the influence box: branches were
        // added or dropped (the outcome kernel omits zero-probability
        // outcomes), so the CSR shape no longer matches. The arrays are
        // partially rewritten at this point — the caller must recompile.
        MEDA_OBS_COUNT("vi.patch.topology_aborts", 1);
        out.patched = false;
        out.dirty_states = 0;
        return out;
      }
      // The off-state branches held, but the self-loop branch may have
      // appeared or vanished (a pull reaching or leaving probability 1).
      const auto outcomes = static_cast<std::uint8_t>(params.outcomes.size());
      out.transitions_delta += static_cast<std::int64_t>(outcomes) -
                               geometry.choice_outcomes[c];
      geometry.choice_outcomes[c] = outcomes;
      if (mdp.inv_one_minus_q[c] != params.inv_one_minus_q) {
        mdp.inv_one_minus_q[c] = params.inv_one_minus_q;
        choice_dirty = true;
      }
      if (mdp.cost[c] != params.cost) {
        mdp.cost[c] = params.cost;
        choice_dirty = true;
      }
      if (choice_dirty) {
        ++out.choices_changed;
        state_dirty = true;
      }
      ++c;
    }
    MEDA_REQUIRE(c == ce,
                 "rules differ from the ones the model was built with");
    if (state_dirty) ++out.dirty_states;
  }

  out.patched = true;
  if (MEDA_OBS_ACTIVE()) {
    span.arg("changed_cells", static_cast<std::int64_t>(changed_cells.size()));
    span.arg("states_rescanned",
             static_cast<std::int64_t>(out.states_rescanned));
    span.arg("dirty_states", static_cast<std::int64_t>(out.dirty_states));
    MEDA_OBS_COUNT("vi.patch.choices_changed",
                   static_cast<std::uint64_t>(out.choices_changed));
    MEDA_OBS_OBSERVE_LOG2("vi.patch.dirty_states",
                          static_cast<double>(out.dirty_states));
  }
  return out;
}

}  // namespace meda::core
