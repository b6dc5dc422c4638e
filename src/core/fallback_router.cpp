#include "core/fallback_router.hpp"

#include <cstdint>
#include <queue>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "model/action.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"

namespace meda::core {

namespace {

/// Admissible cycle lower bound: a single action moves the droplet at most
/// two cells closer (double steps), and the gap is 0 once the rectangles
/// touch — never more than the true remaining action count.
int heuristic(const Rect& droplet, const Rect& goal) {
  const int gap = droplet.manhattan_gap(goal);
  return (gap + 1) / 2;
}

/// Minimum sensed health for the new cells an action pulls the droplet
/// onto: 1 skips only dead/quarantined cells.
constexpr int kMinHealth = 1;

/// Cells the action pulls the droplet onto must be alive; cells already
/// under the droplet are occluded from sensing and exempt.
bool new_cells_healthy(const Rect& next, const Rect& cur,
                       const IntMatrix& health) {
  for (int y = next.ya; y <= next.yb; ++y)
    for (int x = next.xa; x <= next.xb; ++x) {
      if (cur.contains(x, y)) continue;
      if (health(x, y) < kMinHealth) return false;
    }
  return true;
}

}  // namespace

FallbackResult fallback_route(const assay::RoutingJob& rj,
                              const IntMatrix& health, const Rect& chip,
                              const FallbackConfig& config) {
  MEDA_REQUIRE(rj.start.valid() && rj.goal.valid() && rj.hazard.valid(),
               "routing job rectangles must be valid");
  MEDA_REQUIRE(chip.contains(rj.start), "start droplet must be on the chip");
  MEDA_REQUIRE(rj.hazard.contains(rj.start),
               "start droplet must lie within the hazard bounds");
  MEDA_REQUIRE(health.width() == chip.width() &&
                   health.height() == chip.height(),
               "health matrix must be chip-sized");
  MEDA_REQUIRE(config.max_expansions > 0,
               "fallback expansion budget must be positive");

  MEDA_OBS_SPAN(span, "synth", "fallback_route");
  FallbackResult result;

  // Min-heap on (f, insertion sequence): the sequence tie-break plus the
  // fixed kAllActions neighbor order makes the search fully deterministic.
  using QueueEntry = std::tuple<int, std::uint64_t, Rect>;
  auto later = [](const QueueEntry& a, const QueueEntry& b) {
    return std::tie(std::get<0>(a), std::get<1>(a)) >
           std::tie(std::get<0>(b), std::get<1>(b));
  };
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, decltype(later)>
      open(later);
  std::unordered_map<Rect, int> g_cost;
  std::unordered_map<Rect, std::pair<Rect, Action>> came_from;

  std::uint64_t seq = 0;
  g_cost[rj.start] = 0;
  open.emplace(heuristic(rj.start, rj.goal), seq++, rj.start);

  Rect goal_state = Rect::none();
  while (!open.empty() && result.expansions < config.max_expansions) {
    const auto [f, order, cur] = open.top();
    open.pop();
    const int g = g_cost.at(cur);
    if (f > g + heuristic(cur, rj.goal)) continue;  // stale queue entry
    ++result.expansions;
    if (rj.goal.contains(cur)) {
      goal_state = cur;
      break;
    }
    for (const Action a : kAllActions) {
      if (!action_enabled(a, cur, config.rules, chip)) continue;
      const Rect next = apply(a, cur);
      if (!rj.hazard.contains(next)) continue;
      if (!new_cells_healthy(next, cur, health)) continue;
      const int next_g = g + 1;
      const auto it = g_cost.find(next);
      if (it != g_cost.end() && it->second <= next_g) continue;
      g_cost[next] = next_g;
      came_from[next] = {cur, a};
      open.emplace(next_g + heuristic(next, rj.goal), seq++, next);
    }
  }

  if (goal_state.valid()) {
    result.feasible = true;
    // Walk the path backwards; each predecessor re-commands its action, and
    // the failed-pull self-loop retries it until the droplet moves.
    Rect state = goal_state;
    while (true) {
      const auto it = came_from.find(state);
      if (it == came_from.end()) break;
      result.strategy.set(it->second.first, it->second.second);
      state = it->second.first;
      ++result.path_length;
    }
  }

  MEDA_OBS_COUNT("fallback.routes", 1);
  if (!result.feasible) MEDA_OBS_COUNT("fallback.infeasible", 1);
  MEDA_OBS_OBSERVE("fallback.expansions",
                   static_cast<double>(result.expansions), obs::kPow2Buckets);
  span.arg("expansions", static_cast<std::int64_t>(result.expansions));
  span.arg("path_length", static_cast<std::int64_t>(result.path_length));
  span.arg("feasible", static_cast<std::int64_t>(result.feasible ? 1 : 0));
  return result;
}

}  // namespace meda::core
