#include "sim/simulated_chip.hpp"

#include <algorithm>
#include <limits>

#include "model/actuation.hpp"
#include "model/outcomes.hpp"
#include "util/check.hpp"

namespace meda::sim {

namespace {

/// The pre-wear draw takes int bounds, so a larger pre_wear_max would wrap
/// or invert them. Runs in the initializer list, before any draw.
const SimulatedChipConfig& checked(const SimulatedChipConfig& config) {
  MEDA_REQUIRE(config.pre_wear_max <= static_cast<std::uint64_t>(
                                          std::numeric_limits<int>::max()),
               "pre_wear_max exceeds the int range of the pre-wear draw");
  return config;
}

}  // namespace

SimulatedChip::SimulatedChip(const SimulatedChipConfig& config, Rng rng)
    : config_(checked(config)), chip_(config.chip, rng), rng_(std::move(rng)) {
  faults_ = inject_faults(chip_, config.faults, rng_);
  if (config.pre_wear_max > 0) {
    const int max_wear = static_cast<int>(config.pre_wear_max);
    for (int y = 0; y < chip_.height(); ++y)
      for (int x = 0; x < chip_.width(); ++x)
        chip_.wear(x, y, static_cast<std::uint64_t>(
                             rng_.uniform_int(0, max_wear)));
  }
  // Only fork the sensing RNG when noise is configured: a perfect channel
  // must leave rng_'s stream — and hence every downstream outcome sample of
  // existing fixed-seed experiments — untouched.
  if (config.sensor.enabled()) {
    sensor_rng_ = rng_.fork(0x5E45);
    sensor_channel_ =
        SensorChannel(config.sensor, chip_.width(), chip_.height(),
                      chip_.health_bits(), rng_.fork(0x5746));
  }
}

IntMatrix SimulatedChip::sense_health() const {
  if (!config_.sensor.enabled()) return chip_.health_matrix();
  return sensor_channel_.read(chip_.health_matrix(), sensor_rng_);
}

Rect SimulatedChip::droplet_position(core::DropletId id) const {
  const auto it = droplets_.find(id);
  MEDA_REQUIRE(it != droplets_.end(), "unknown droplet id");
  return it->second;
}

bool SimulatedChip::location_clear(const Rect& at) const {
  return chip_.in_bounds(at) && !placement_blocked(-1, at, -1);
}

core::DropletId SimulatedChip::dispense(const Rect& at) {
  MEDA_REQUIRE(chip_.in_bounds(at), "dispensed droplet must be on the chip");
  const Rect b = chip_.bounds();
  MEDA_REQUIRE(at.xa == b.xa || at.xb == b.xb || at.ya == b.ya ||
                   at.yb == b.yb,
               "dispensed droplet must touch a chip edge");
  MEDA_REQUIRE(!placement_blocked(-1, at, -1),
               "dispense location conflicts with an on-chip droplet");
  const core::DropletId id = next_id_++;
  droplets_.emplace(id, at);
  return id;
}

void SimulatedChip::discard(core::DropletId id) {
  MEDA_REQUIRE(droplets_.erase(id) == 1, "unknown droplet id");
}

core::DropletId SimulatedChip::merge(core::DropletId a, core::DropletId b,
                                     const Rect& merged) {
  MEDA_REQUIRE(a != b, "cannot merge a droplet with itself");
  const Rect pa = droplet_position(a);
  const Rect pb = droplet_position(b);
  MEDA_REQUIRE(pa.manhattan_gap(pb) <= 1,
               "droplets must be in contact to merge");
  MEDA_REQUIRE(chip_.in_bounds(merged), "merged droplet must be on the chip");
  droplets_.erase(a);
  droplets_.erase(b);
  MEDA_REQUIRE(!placement_blocked(-1, merged, -1),
               "merged droplet conflicts with an on-chip droplet");
  const core::DropletId id = next_id_++;
  droplets_.emplace(id, merged);
  return id;
}

bool SimulatedChip::split_clear(core::DropletId id, const Rect& part0,
                                const Rect& part1) const {
  (void)droplet_position(id);  // validates existence
  return chip_.in_bounds(part0) && chip_.in_bounds(part1) &&
         !part0.intersects(part1) && !placement_blocked(id, part0, -1) &&
         !placement_blocked(id, part1, -1);
}

std::pair<core::DropletId, core::DropletId> SimulatedChip::split(
    core::DropletId id, const Rect& part0, const Rect& part1) {
  MEDA_REQUIRE(split_clear(id, part0, part1),
               "split parts off-chip, overlapping, or conflicting with an "
               "on-chip droplet");
  droplets_.erase(id);
  const core::DropletId id0 = next_id_++;
  const core::DropletId id1 = next_id_++;
  droplets_.emplace(id0, part0);
  droplets_.emplace(id1, part1);
  return {id0, id1};
}

double SimulatedChip::true_force(int x, int y) const {
  return chip_.mc(x, y).relative_force();
}

bool SimulatedChip::placement_blocked(core::DropletId id,
                                      const Rect& candidate,
                                      core::DropletId partner) const {
  for (const auto& [other_id, other_pos] : droplets_) {
    if (other_id == id) continue;
    const int gap = candidate.manhattan_gap(other_pos);
    if (other_id == partner) {
      if (gap < 1) return true;  // partners may touch but not overlap
    } else if (gap < 2) {
      // Unrelated droplets in contact would merge; MEDA keeps at least one
      // free cell between them.
      return true;
    }
  }
  return false;
}

void SimulatedChip::step(const std::vector<core::Command>& commands) {
  // Which droplets received a command this cycle.
  std::unordered_map<core::DropletId, const core::Command*> commanded;
  for (const core::Command& cmd : commands) {
    MEDA_REQUIRE(droplets_.contains(cmd.droplet),
                 "command for an unknown droplet");
    MEDA_REQUIRE(!commanded.contains(cmd.droplet),
                 "duplicate command for a droplet");
    commanded.emplace(cmd.droplet, &cmd);
  }

  const ForceFn force = [this](int x, int y) { return true_force(x, y); };

  // Resolve droplets in id order for determinism.
  std::vector<core::DropletId> order;
  order.reserve(droplets_.size());
  for (const auto& [id, pos] : droplets_) order.push_back(id);
  std::sort(order.begin(), order.end());

  // Phase 1 — all droplets actuate simultaneously: sample every commanded
  // droplet's outcome against the pre-step positions.
  std::vector<DropletCommand> cycle_pattern;
  cycle_pattern.reserve(order.size());
  std::vector<Rect> old_pos(order.size());
  std::vector<Rect> proposed(order.size());
  std::vector<core::DropletId> partner(order.size(), -1);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Rect pos = droplets_.at(order[i]);
    old_pos[i] = pos;
    proposed[i] = pos;
    const auto it = commanded.find(order[i]);
    if (it != commanded.end() && it->second->action.has_value()) {
      const core::Command& cmd = *it->second;
      const Action a = *cmd.action;
      MEDA_REQUIRE(action_enabled(a, pos, config_.rules, chip_.bounds()),
                   "commanded action is not enabled");
      partner[i] = cmd.merge_partner;
      // The shifted-in pattern is the target a(δ) regardless of outcome.
      cycle_pattern.emplace_back(pos, a);
      const std::vector<Outcome> outcomes = action_outcomes(pos, a, force);
      std::vector<double> weights(outcomes.size());
      for (std::size_t k = 0; k < outcomes.size(); ++k)
        weights[k] = outcomes[k].probability;
      proposed[i] = outcomes[rng_.categorical(weights)].droplet;
    } else {
      cycle_pattern.emplace_back(pos, std::nullopt);  // held
    }
  }
  const std::vector<Rect> sampled = proposed;

  // Phase 2 — settle conflicts: a move that would bring two droplets into
  // unintended contact is physically a (catastrophic) merge; the simulator
  // blocks it and counts the event. Reverting one droplet can expose new
  // conflicts, so iterate until the configuration is consistent (the
  // pre-step configuration is a fixed point, so this terminates).
  const auto pair_ok = [&](std::size_t i, std::size_t j) {
    const int gap = proposed[i].manhattan_gap(proposed[j]);
    const bool partners =
        partner[i] == order[j] || partner[j] == order[i];
    return partners ? gap >= 1 : gap >= 2;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (proposed[i] == old_pos[i]) continue;
      for (std::size_t j = 0; j < order.size(); ++j) {
        if (j == i || pair_ok(i, j)) continue;
        proposed[i] = old_pos[i];  // blocked: hold in place
        changed = true;
        break;
      }
    }
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    // A droplet whose sampled outcome moved but which was reverted during
    // settlement was genuinely blocked (ε outcomes never revert).
    if (sampled[i] != old_pos[i] && proposed[i] == old_pos[i])
      ++blocked_moves_;
    droplets_.at(order[i]) = proposed[i];
  }

  const BoolMatrix pattern =
      build_actuation_matrix(chip_.width(), chip_.height(), cycle_pattern);
  chip_.actuate(pattern);
  if (adversary_ != nullptr) adversary_->act(chip_, droplets(), rng_);
  if (config_.record_actuation_trace) trace_.push_back(pattern);
  if (config_.record_droplet_trace) droplet_trace_.push_back(droplets());
  ++cycle_;
}

std::string render_frame(const SimulatedChip& chip,
                         const SimulatedChip::DropletSnapshot& snapshot) {
  const Biochip& substrate = chip.substrate();
  const IntMatrix& health = substrate.health_matrix();
  std::string out;
  out.reserve(static_cast<std::size_t>((substrate.width() + 3) *
                                       (substrate.height() + 2)));
  const auto border = [&] {
    out.push_back('+');
    out.append(static_cast<std::size_t>(substrate.width()), '-');
    out.append("+\n");
  };
  border();
  for (int y = substrate.height() - 1; y >= 0; --y) {
    out.push_back('|');
    for (int x = 0; x < substrate.width(); ++x) {
      char glyph = ' ';
      if (health(x, y) == 0) glyph = '#';
      else if (health(x, y) == 1) glyph = '.';
      for (const auto& [id, pos] : snapshot) {
        if (pos.contains(x, y)) {
          glyph = static_cast<char>('A' + id % 26);
          break;
        }
      }
      out.push_back(glyph);
    }
    out.append("|\n");
  }
  border();
  return out;
}

std::vector<std::pair<core::DropletId, Rect>> SimulatedChip::droplets() const {
  std::vector<std::pair<core::DropletId, Rect>> out(droplets_.begin(),
                                                    droplets_.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

}  // namespace meda::sim
