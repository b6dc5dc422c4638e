#include "chip/fault_injection.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>
#include <utility>

#include "util/check.hpp"

namespace meda {

namespace {

/// The int bounds of the failure-threshold draw. A bound beyond INT_MAX
/// would wrap or invert them, so it is rejected by name before any draw.
std::pair<int, int> threshold_bounds(const FaultInjectionConfig& cfg) {
  constexpr auto kIntMax =
      static_cast<std::uint64_t>(std::numeric_limits<int>::max());
  MEDA_REQUIRE(cfg.fail_at_lo <= kIntMax,
               "fail_at_lo exceeds the int range of the threshold draw");
  MEDA_REQUIRE(cfg.fail_at_hi <= kIntMax,
               "fail_at_hi exceeds the int range of the threshold draw");
  MEDA_REQUIRE(cfg.fail_at_lo <= cfg.fail_at_hi,
               "fault threshold range invalid");
  return {static_cast<int>(cfg.fail_at_lo), static_cast<int>(cfg.fail_at_hi)};
}

/// Grows @p chosen to exactly @p target cells by repeatedly adding a random
/// unchosen 4-neighbor of an already-chosen cell (so every added cell stays
/// attached to a cluster). No-op when @p chosen is empty or already large
/// enough; stops early if the whole chip is chosen.
void grow_frontier(std::unordered_set<Vec2i>& chosen, int width, int height,
                   int target, Rng& rng) {
  while (!chosen.empty() && static_cast<int>(chosen.size()) < target) {
    std::vector<Vec2i> frontier;
    for (const Vec2i& p : chosen) {
      const Vec2i neighbors[4] = {{p.x + 1, p.y}, {p.x - 1, p.y},
                                  {p.x, p.y + 1}, {p.x, p.y - 1}};
      for (const Vec2i& n : neighbors)
        if (n.x >= 0 && n.x < width && n.y >= 0 && n.y < height &&
            !chosen.contains(n))
          frontier.push_back(n);
    }
    if (frontier.empty()) return;  // the whole chip is faulty
    // The set's iteration order is unspecified; sort for per-seed
    // determinism before drawing.
    std::sort(frontier.begin(), frontier.end());
    frontier.erase(std::unique(frontier.begin(), frontier.end()),
                   frontier.end());
    chosen.insert(
        frontier[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<int>(frontier.size()) - 1))]);
  }
}

}  // namespace

std::vector<Vec2i> inject_faults(Biochip& chip,
                                 const FaultInjectionConfig& config,
                                 Rng& rng) {
  MEDA_REQUIRE(config.faulty_fraction >= 0.0 && config.faulty_fraction <= 1.0,
               "faulty fraction out of range");
  std::vector<Vec2i> injected;
  if (config.mode == FaultMode::kNone || config.faulty_fraction == 0.0)
    return injected;

  const int total = chip.width() * chip.height();
  const int target =
      static_cast<int>(std::llround(config.faulty_fraction * total));
  if (target == 0) return injected;
  const auto [fail_lo, fail_hi] = threshold_bounds(config);

  std::unordered_set<Vec2i> chosen;
  if (config.mode == FaultMode::kUniform) {
    for (int flat : sample_without_replacement(rng, total, target))
      chosen.insert(Vec2i{flat % chip.width(), flat / chip.width()});
  } else {
    MEDA_REQUIRE(config.cluster_size >= 1, "cluster size must be positive");
    const int cs = std::min({config.cluster_size, chip.width(), chip.height()});
    // Place clusters until the target cell count is covered. Clusters are
    // placed independently, so overlaps are possible (and simply merge).
    // Two guarantees keep the count exact (no silent over/undershoot):
    //  - a cluster that would overshoot the target is inserted as a raster
    //    prefix of its cells (a prefix of >= 2 cells is always contiguous,
    //    so no isolated faulty cell appears); a 1-cell remainder is instead
    //    grown from the frontier of already-chosen cells;
    //  - if random placement stalls (attempt budget exhausted on a dense
    //    chip), the deficit is grown from the frontier as well.
    const int max_attempts = 50 * (target / (cs * cs) + 1);
    int attempts = 0;
    while (static_cast<int>(chosen.size()) < target &&
           attempts++ < max_attempts) {
      const int remaining = target - static_cast<int>(chosen.size());
      if (remaining == 1 && !chosen.empty()) break;  // grow from the frontier
      const int x0 = rng.uniform_int(0, chip.width() - cs);
      const int y0 = rng.uniform_int(0, chip.height() - cs);
      for (int dy = 0; dy < cs && static_cast<int>(chosen.size()) < target;
           ++dy)
        for (int dx = 0; dx < cs && static_cast<int>(chosen.size()) < target;
             ++dx)
          chosen.insert(Vec2i{x0 + dx, y0 + dy});
    }
    grow_frontier(chosen, chip.width(), chip.height(), target, rng);
  }

  injected.reserve(chosen.size());
  for (const Vec2i& p : chosen) {
    chip.inject_fault(p.x, p.y, static_cast<std::uint64_t>(
                                    rng.uniform_int(fail_lo, fail_hi)));
    injected.push_back(p);
  }
  // Deterministic output order (the set iteration order is unspecified).
  std::sort(injected.begin(), injected.end());
  return injected;
}

}  // namespace meda
