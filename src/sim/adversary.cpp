#include "sim/adversary.hpp"

#include "util/check.hpp"

namespace meda::sim {

void RandomAdversary::act(
    Biochip& chip,
    const std::vector<std::pair<core::DropletId, Rect>>& /*droplets*/,
    Rng& rng) {
  MEDA_REQUIRE(budget_.cells_per_cycle >= 0, "negative adversary budget");
  for (int i = 0; i < budget_.cells_per_cycle; ++i) {
    const int x = rng.uniform_int(0, chip.width() - 1);
    const int y = rng.uniform_int(0, chip.height() - 1);
    chip.wear(x, y, budget_.wear_per_hit);
  }
}

void FrontierAdversary::act(
    Biochip& chip,
    const std::vector<std::pair<core::DropletId, Rect>>& droplets,
    Rng& rng) {
  MEDA_REQUIRE(budget_.cells_per_cycle >= 0, "negative adversary budget");
  if (droplets.empty()) return;
  // Candidate cells: the one-cell ring around each droplet, clipped to the
  // chip (these are exactly the cells that can appear in the droplet's next
  // frontier sets).
  std::vector<Vec2i> ring;
  for (const auto& [id, pos] : droplets) {
    const Rect inflated = pos.inflated(1).intersection_with(chip.bounds());
    for (int y = inflated.ya; y <= inflated.yb; ++y) {
      for (int x = inflated.xa; x <= inflated.xb; ++x) {
        if (!pos.contains(x, y)) ring.push_back(Vec2i{x, y});
      }
    }
  }
  if (ring.empty()) return;
  for (int i = 0; i < budget_.cells_per_cycle; ++i) {
    const Vec2i cell =
        ring[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<int>(ring.size()) - 1))];
    chip.wear(cell.x, cell.y, budget_.wear_per_hit);
  }
}

}  // namespace meda::sim
