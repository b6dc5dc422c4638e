#include "sim/simulated_chip.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <optional>
#include <span>

#include "model/actuation.hpp"
#include "model/guards.hpp"
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

/// The chip's separation rule: merge partners may touch but not overlap
/// (gap ≥ 1); any other two droplets keep a free cell between them
/// (gap ≥ 2), since droplets in contact would merge.
bool separated(const Rect& a, const Rect& b, bool partners) {
  return a.manhattan_gap(b) >= (partners ? 1 : 2);
}

/// The entry of droplet @p id in an id-ordered table, or its end().
template <typename Table>
auto find_droplet(Table& table, core::DropletId id) {
  const auto it = std::ranges::lower_bound(
      table, id, {}, [](const auto& d) { return d.first; });
  return it != table.end() && it->first == id ? it : table.end();
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
  const auto it = find_droplet(droplets_, id);
  MEDA_REQUIRE(it != droplets_.end(), "unknown droplet id");
  return it->second;
}

bool SimulatedChip::location_clear(const Rect& at) const {
  return chip_.in_bounds(at) && !placement_blocked(at);
}

core::DropletId SimulatedChip::dispense(const Rect& at) {
  MEDA_REQUIRE(chip_.in_bounds(at), "dispensed droplet must be on the chip");
  const Rect b = chip_.bounds();
  MEDA_REQUIRE(at.xa == b.xa || at.xb == b.xb || at.ya == b.ya ||
                   at.yb == b.yb,
               "dispensed droplet must touch a chip edge");
  MEDA_REQUIRE(!placement_blocked(at),
               "dispense location conflicts with an on-chip droplet");
  return add(at);
}

void SimulatedChip::discard(core::DropletId id) {
  const auto it = find_droplet(droplets_, id);
  MEDA_REQUIRE(it != droplets_.end(), "unknown droplet id");
  droplets_.erase(it);
}

core::DropletId SimulatedChip::merge(core::DropletId a, core::DropletId b,
                                     const Rect& merged) {
  MEDA_REQUIRE(a != b, "cannot merge a droplet with itself");
  const Rect pa = droplet_position(a);
  const Rect pb = droplet_position(b);
  MEDA_REQUIRE(pa.manhattan_gap(pb) <= 1,
               "droplets must be in contact to merge");
  MEDA_REQUIRE(chip_.in_bounds(merged), "merged droplet must be on the chip");
  MEDA_REQUIRE(merged.manhattan_gap(pa) <= 1 || merged.manhattan_gap(pb) <= 1,
               "merged droplet must overlap or adjoin a merging droplet");
  MEDA_REQUIRE(!placement_blocked(merged, a, b),
               "merged droplet conflicts with an on-chip droplet");
  std::erase_if(droplets_, [a, b](const auto& d) {
    return d.first == a || d.first == b;
  });
  return add(merged);
}

bool SimulatedChip::split_clear(core::DropletId id, const Rect& part0,
                                const Rect& part1) const {
  (void)droplet_position(id);  // validates existence
  return chip_.in_bounds(part0) && chip_.in_bounds(part1) &&
         !part0.intersects(part1) && !placement_blocked(part0, id) &&
         !placement_blocked(part1, id);
}

std::pair<core::DropletId, core::DropletId> SimulatedChip::split(
    core::DropletId id, const Rect& part0, const Rect& part1) {
  MEDA_REQUIRE(split_clear(id, part0, part1),
               "split parts off-chip, overlapping, or conflicting with an "
               "on-chip droplet");
  droplets_.erase(find_droplet(droplets_, id));
  const core::DropletId id0 = add(part0);
  const core::DropletId id1 = add(part1);
  return {id0, id1};
}

core::DropletId SimulatedChip::add(const Rect& at) {
  droplets_.emplace_back(next_id_, at);
  return next_id_++;
}

double SimulatedChip::true_force(int x, int y) const {
  return chip_.mc(x, y).relative_force();
}

bool SimulatedChip::placement_blocked(const Rect& candidate,
                                      core::DropletId skip0,
                                      core::DropletId skip1) const {
  return std::ranges::any_of(droplets_, [&](const auto& d) {
    return d.first != skip0 && d.first != skip1 &&
           !separated(candidate, d.second, /*partners=*/false);
  });
}

void SimulatedChip::step(const std::vector<core::Command>& commands) {
  // Per droplet, in table order: its command, if any, and where it lands.
  struct Move {
    bool commanded = false;
    std::optional<Action> action;  ///< nullopt holds the droplet
    core::DropletId partner = -1;
    Rect to;
  };
  std::vector<Move> moves(droplets_.size());
  // Every command is checked before the first draw, so a refused step
  // leaves the chip and its random stream as they were.
  for (const core::Command& cmd : commands) {
    const auto it = find_droplet(droplets_, cmd.droplet);
    MEDA_REQUIRE(it != droplets_.end(), "command for an unknown droplet");
    Move& m = moves[static_cast<std::size_t>(it - droplets_.begin())];
    MEDA_REQUIRE(!m.commanded, "duplicate command for a droplet");
    m.commanded = true;
    if (!cmd.action.has_value()) continue;
    MEDA_REQUIRE(
        action_enabled(*cmd.action, it->second, ActionRules{}, chip_.bounds()),
        "commanded action is not enabled");
    // A hold's partner is ignored; a move's must be another droplet here.
    MEDA_REQUIRE(cmd.merge_partner == -1 ||
                     (cmd.merge_partner != cmd.droplet &&
                      find_droplet(droplets_, cmd.merge_partner) !=
                          droplets_.end()),
                 "merge partner is not another droplet on the chip");
    m.action = cmd.action;
    m.partner = cmd.merge_partner;
  }

  // The frontier mean of Section V-B over the true forces, clamped per read.
  const auto mean_force = [this](const Rect& fr) {
    MEDA_REQUIRE(fr.valid(), "mean force over an empty frontier");
    return detail::frontier_mean(fr, [this](int x, int y) {
      return std::clamp(true_force(x, y), 0.0, 1.0);
    });
  };

  // Phase 1 — all droplets actuate simultaneously: sample every commanded
  // droplet's outcome against the pre-step positions, in id order. The
  // shifted-in pattern is the target a(δ) regardless of outcome.
  std::vector<Rect> actuated(droplets_.size());
  for (std::size_t i = 0; i < droplets_.size(); ++i) {
    const Rect& pos = droplets_[i].second;
    Move& m = moves[i];
    actuated[i] = actuated_pattern(pos, m.action);
    m.to = pos;
    if (!m.action.has_value()) continue;
    const OutcomeSet outcomes = outcome_set(pos, *m.action, mean_force);
    std::array<double, OutcomeSet::kCapacity> weights{};
    std::ranges::transform(outcomes, weights.begin(), &Outcome::probability);
    m.to = outcomes.begin()[rng_.categorical(
                                std::span(weights).first(outcomes.size()))]
               .droplet;
  }
  if (config_.record_actuation_trace) {
    std::vector<DropletCommand> pattern;
    pattern.reserve(droplets_.size());
    for (std::size_t i = 0; i < droplets_.size(); ++i)
      pattern.emplace_back(droplets_[i].second, moves[i].action);
    trace_.push_back(
        build_actuation_matrix(chip_.width(), chip_.height(), pattern));
  }

  // Phase 2 — settle conflicts: a move that would bring two droplets into
  // unintended contact is physically a (catastrophic) merge; the simulator
  // blocks it and counts the event. Reverting one droplet can expose new
  // conflicts, so iterate until the configuration is consistent (the
  // pre-step configuration is a fixed point, so this terminates). The table
  // keeps the pre-step positions until the moves are applied.
  const auto conflict = [&](std::size_t i, std::size_t j) {
    const bool partners = moves[i].partner == droplets_[j].first ||
                          moves[j].partner == droplets_[i].first;
    return !separated(moves[i].to, moves[j].to, partners);
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < moves.size(); ++i) {
      if (moves[i].to == droplets_[i].second) continue;
      for (std::size_t j = 0; j < moves.size(); ++j) {
        if (j == i || !conflict(i, j)) continue;
        // Blocked: hold in place. A droplet reverts at most once, and only
        // from a sampled move (ε outcomes never revert).
        moves[i].to = droplets_[i].second;
        ++blocked_moves_;
        changed = true;
        break;
      }
    }
  }
  for (std::size_t i = 0; i < moves.size(); ++i)
    droplets_[i].second = moves[i].to;

  chip_.actuate(actuated);
  if (adversary_ != nullptr) adversary_->act(chip_, droplets_, rng_);
  if (config_.record_droplet_trace) droplet_trace_.push_back(droplets_);
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

}  // namespace meda::sim
