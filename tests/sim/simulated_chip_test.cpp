#include "sim/simulated_chip.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "model/action.hpp"
#include "model/guards.hpp"
#include "model/outcomes.hpp"
#include "util/check.hpp"

namespace meda::sim {
namespace {

SimulatedChipConfig small_config() {
  SimulatedChipConfig config;
  config.chip.width = 20;
  config.chip.height = 12;
  return config;
}

core::Command move(core::DropletId id, Action a, core::DropletId partner = -1) {
  return core::Command{id, a, partner};
}

TEST(SimulatedChip, DispenseAndSense) {
  SimulatedChip chip(small_config(), Rng(1));
  const Rect at{0, 4, 3, 7};
  ASSERT_TRUE(chip.location_clear(at));
  const core::DropletId id = chip.dispense(at);
  EXPECT_EQ(chip.droplet_position(id), at);
  EXPECT_FALSE(chip.location_clear(at));
  EXPECT_EQ(chip.droplets().size(), 1u);
  const IntMatrix h = chip.sense_health();
  EXPECT_EQ(h.width(), 20);
  EXPECT_EQ(h(5, 5), 3);
}

TEST(SimulatedChip, DispenseMustTouchAnEdge) {
  SimulatedChip chip(small_config(), Rng(1));
  EXPECT_THROW(chip.dispense(Rect{5, 5, 8, 8}), PreconditionError);
}

TEST(SimulatedChip, DispenseIntoOccupiedSpaceThrows) {
  SimulatedChip chip(small_config(), Rng(1));
  chip.dispense(Rect{0, 4, 3, 7});
  EXPECT_THROW(chip.dispense(Rect{0, 5, 3, 8}), PreconditionError);
}

TEST(SimulatedChip, FullHealthMovesAreDeterministic) {
  SimulatedChip chip(small_config(), Rng(2));
  const core::DropletId id = chip.dispense(Rect{0, 4, 3, 7});
  chip.step({move(id, Action::kE)});
  EXPECT_EQ(chip.droplet_position(id), (Rect{1, 4, 4, 7}));
  chip.step({move(id, Action::kNE)});
  EXPECT_EQ(chip.droplet_position(id), (Rect{2, 5, 5, 8}));
  chip.step({move(id, Action::kWW)});
  EXPECT_EQ(chip.droplet_position(id), (Rect{0, 5, 3, 8}));
  EXPECT_EQ(chip.cycle(), 3u);
}

TEST(SimulatedChip, StepActuatesTargetPatternCells) {
  SimulatedChip chip(small_config(), Rng(3));
  const core::DropletId id = chip.dispense(Rect{0, 4, 3, 7});
  chip.step({move(id, Action::kE)});
  // The shifted-in pattern is the move target (1,4)-(4,7): its cells gain
  // one actuation; the vacated column x=0 does not.
  EXPECT_EQ(chip.substrate().mc(4, 4).actuations(), 1u);
  EXPECT_EQ(chip.substrate().mc(1, 5).actuations(), 1u);
  EXPECT_EQ(chip.substrate().mc(0, 4).actuations(), 0u);
}

TEST(SimulatedChip, UncommandedDropletsAreHeldAndActuated) {
  SimulatedChip chip(small_config(), Rng(4));
  const core::DropletId id = chip.dispense(Rect{0, 4, 3, 7});
  chip.step({});
  chip.step({});
  EXPECT_EQ(chip.droplet_position(id), (Rect{0, 4, 3, 7}));
  EXPECT_EQ(chip.substrate().mc(1, 5).actuations(), 2u);
  EXPECT_EQ(chip.substrate().mc(4, 4).actuations(), 0u);
}

TEST(SimulatedChip, FailedPullLeavesDropletInPlace) {
  SimulatedChip chip(small_config(), Rng(5));
  const core::DropletId id = chip.dispense(Rect{0, 4, 3, 7});
  // Kill the entire frontier column for an eastward move.
  for (int y = 0; y < 12; ++y) chip.substrate().inject_fault(4, y, 0);
  chip.step({move(id, Action::kE)});
  EXPECT_EQ(chip.droplet_position(id), (Rect{0, 4, 3, 7}));
}

TEST(SimulatedChip, OutcomeFrequenciesTrackTrueForce) {
  // Uniform degradation D = 0.5 → force 0.25 on the frontier: success rate
  // of a single-step move should concentrate near 0.25. c is huge so the
  // wear added by the test itself stays negligible.
  SimulatedChipConfig config = small_config();
  config.chip.degradation = DegradationRange{0.5, 0.5, 1e5, 1e5};
  SimulatedChip chip(config, Rng(6));
  for (int y = 0; y < 12; ++y)
    for (int x = 0; x < 20; ++x)
      chip.substrate().wear(x, y, 100000);
  const core::DropletId id = chip.dispense(Rect{0, 4, 3, 7});
  int successes = 0;
  const int attempts = 1500;
  for (int i = 0; i < attempts; ++i) {
    const Rect before = chip.droplet_position(id);
    chip.step({move(id, before.xa == 0 ? Action::kE : Action::kW)});
    if (chip.droplet_position(id) != before) ++successes;
  }
  EXPECT_NEAR(successes / static_cast<double>(attempts), 0.25, 0.04);
}

TEST(SimulatedChip, BlockedMoveIsCountedAndHeld) {
  SimulatedChip chip(small_config(), Rng(7));
  const core::DropletId a = chip.dispense(Rect{0, 0, 3, 3});
  const core::DropletId b = chip.dispense(Rect{6, 0, 9, 3});  // gap 3, south edge
  chip.step({move(a, Action::kE)});  // gap 3 → 2 (one free column): allowed
  EXPECT_EQ(chip.droplet_position(a), (Rect{1, 0, 4, 3}));
  chip.step({move(a, Action::kE)});  // gap 2 → 1 (contact): blocked
  EXPECT_EQ(chip.droplet_position(a), (Rect{1, 0, 4, 3}));
  EXPECT_EQ(chip.droplet_position(b), (Rect{6, 0, 9, 3}));
  EXPECT_EQ(chip.blocked_moves(), 1u);
}

TEST(SimulatedChip, MergePartnersMayTouchButNotOverlap) {
  SimulatedChip chip(small_config(), Rng(8));
  const core::DropletId a = chip.dispense(Rect{0, 0, 3, 3});
  const core::DropletId b = chip.dispense(Rect{6, 0, 9, 3});
  chip.step({move(a, Action::kE, b)});
  chip.step({move(a, Action::kE, b)});  // partner contact (gap 1) allowed
  EXPECT_EQ(chip.droplet_position(a), (Rect{2, 0, 5, 3}));
  EXPECT_EQ(chip.blocked_moves(), 0u);
  chip.step({move(a, Action::kE, b)});  // would overlap → blocked
  EXPECT_EQ(chip.droplet_position(a), (Rect{2, 0, 5, 3}));
  EXPECT_EQ(chip.blocked_moves(), 1u);
}

TEST(SimulatedChip, MergeRequiresContact) {
  SimulatedChip chip(small_config(), Rng(9));
  const core::DropletId a = chip.dispense(Rect{0, 0, 3, 3});
  const core::DropletId b = chip.dispense(Rect{6, 0, 9, 3});
  EXPECT_THROW(chip.merge(a, b, Rect{2, 0, 7, 4}), PreconditionError);
  chip.step({move(a, Action::kE, b)});
  chip.step({move(a, Action::kE, b)});  // now adjacent (gap 1)
  const core::DropletId m = chip.merge(a, b, Rect{3, 0, 8, 4});
  EXPECT_EQ(chip.droplet_position(m), (Rect{3, 0, 8, 4}));
  EXPECT_EQ(chip.droplets().size(), 1u);
  EXPECT_THROW(chip.droplet_position(a), PreconditionError);
}

TEST(SimulatedChip, SplitReplacesTheParent) {
  SimulatedChip chip(small_config(), Rng(10));
  const core::DropletId parent = chip.dispense(Rect{0, 3, 5, 7});
  const auto [p0, p1] =
      chip.split(parent, Rect{1, 4, 3, 6}, Rect{5, 4, 7, 6});
  EXPECT_EQ(chip.droplet_position(p0), (Rect{1, 4, 3, 6}));
  EXPECT_EQ(chip.droplet_position(p1), (Rect{5, 4, 7, 6}));
  EXPECT_THROW(chip.droplet_position(parent), PreconditionError);
  EXPECT_EQ(chip.droplets().size(), 2u);
}

TEST(SimulatedChip, SimultaneousCoordinatedMotionIsNotBlocked) {
  // B vacates the space A enters in the same operational cycle — legal on
  // real MEDA (all droplets actuate at once).
  SimulatedChip chip(small_config(), Rng(21));
  const core::DropletId a = chip.dispense(Rect{0, 0, 3, 3});
  const core::DropletId b = chip.dispense(Rect{6, 0, 9, 3});  // gap 3
  chip.step({move(a, Action::kE), move(b, Action::kE)});
  EXPECT_EQ(chip.droplet_position(a), (Rect{1, 0, 4, 3}));
  EXPECT_EQ(chip.droplet_position(b), (Rect{7, 0, 10, 3}));
  EXPECT_EQ(chip.blocked_moves(), 0u);
  // A convoy: both keep moving east at gap 3 forever.
  for (int i = 0; i < 5; ++i)
    chip.step({move(a, Action::kE), move(b, Action::kE)});
  EXPECT_EQ(chip.blocked_moves(), 0u);
  EXPECT_EQ(chip.droplet_position(a), (Rect{6, 0, 9, 3}));
}

TEST(SimulatedChip, HeadOnContactIsStillBlocked) {
  SimulatedChip chip(small_config(), Rng(22));
  const core::DropletId a = chip.dispense(Rect{0, 0, 3, 3});
  const core::DropletId b = chip.dispense(Rect{6, 0, 9, 3});  // gap 3
  // Moving toward each other would leave gap 1 (< 2): at least one of the
  // two must be held, and the final configuration stays legal.
  chip.step({move(a, Action::kE), move(b, Action::kW)});
  const Rect pa = chip.droplet_position(a);
  const Rect pb = chip.droplet_position(b);
  EXPECT_GE(pa.manhattan_gap(pb), 2);
  EXPECT_GE(chip.blocked_moves(), 1u);
}

TEST(SimulatedChip, SplitClearReflectsNeighborDroplets) {
  SimulatedChip chip(small_config(), Rng(20));
  const core::DropletId parent = chip.dispense(Rect{3, 0, 8, 4});
  const Rect p0{4, 0, 6, 2};
  const Rect p1{8, 0, 10, 2};
  EXPECT_TRUE(chip.split_clear(parent, p0, p1));
  // A neighbor in contact range of part1 (gap 1 < 2) blocks the split...
  const core::DropletId neighbor = chip.dispense(Rect{11, 0, 14, 3});
  EXPECT_FALSE(chip.split_clear(parent, p0, p1));
  // ...and removing it unblocks it (the scheduler waits in between).
  chip.discard(neighbor);
  EXPECT_TRUE(chip.split_clear(parent, p0, p1));
  EXPECT_NO_THROW(chip.split(parent, p0, p1));
}

TEST(SimulatedChip, SplitPartsMustNotOverlap) {
  SimulatedChip chip(small_config(), Rng(11));
  const core::DropletId parent = chip.dispense(Rect{0, 3, 5, 7});
  EXPECT_THROW(chip.split(parent, Rect{1, 4, 4, 6}, Rect{3, 4, 6, 6}),
               PreconditionError);
}

TEST(SimulatedChip, DiscardRemovesTheDroplet) {
  SimulatedChip chip(small_config(), Rng(12));
  const core::DropletId id = chip.dispense(Rect{0, 4, 3, 7});
  chip.discard(id);
  EXPECT_TRUE(chip.droplets().empty());
  EXPECT_THROW(chip.discard(id), PreconditionError);
}

TEST(SimulatedChip, ClearDropletsKeepsDegradation) {
  SimulatedChip chip(small_config(), Rng(13));
  const core::DropletId id = chip.dispense(Rect{0, 4, 3, 7});
  chip.step({});
  (void)id;
  chip.clear_droplets();
  EXPECT_TRUE(chip.droplets().empty());
  EXPECT_EQ(chip.substrate().mc(1, 5).actuations(), 1u);
}

TEST(SimulatedChip, ActuationTraceRecordsPatterns) {
  SimulatedChipConfig config = small_config();
  config.record_actuation_trace = true;
  SimulatedChip chip(config, Rng(14));
  const core::DropletId id = chip.dispense(Rect{0, 4, 3, 7});
  chip.step({move(id, Action::kE)});
  chip.step({});
  ASSERT_EQ(chip.actuation_trace().size(), 2u);
  EXPECT_TRUE(chip.actuation_trace()[0](4, 4));   // move target column
  EXPECT_FALSE(chip.actuation_trace()[1](5, 4));  // held pattern only
  EXPECT_TRUE(chip.actuation_trace()[1](1, 4));
}

TEST(SimulatedChip, PreWearAgesTheChipHeterogeneously) {
  SimulatedChipConfig config = small_config();
  config.pre_wear_max = 500;
  config.chip.degradation = DegradationRange{0.5, 0.5, 100.0, 100.0};
  SimulatedChip chip(config, Rng(15));
  std::uint64_t total = 0;
  std::uint64_t distinct_values = 0;
  std::uint64_t last = ~0ull;
  for (int y = 0; y < 12; ++y) {
    for (int x = 0; x < 20; ++x) {
      const std::uint64_t n = chip.substrate().mc(x, y).actuations();
      EXPECT_LE(n, 500u);
      total += n;
      if (n != last) ++distinct_values;
      last = n;
    }
  }
  EXPECT_NEAR(static_cast<double>(total) / 240.0, 250.0, 40.0);
  EXPECT_GT(distinct_values, 100u);  // heterogeneous, not constant
}

TEST(SimulatedChip, RejectsPreWearBeyondIntRange) {
  // The pre-wear draw takes int bounds: 2^31 would invert them and 2^32
  // would wrap to an unworn chip.
  for (const std::uint64_t wear :
       {std::uint64_t{1} << 31, std::uint64_t{1} << 32}) {
    SimulatedChipConfig config = small_config();
    config.pre_wear_max = wear;
    try {
      SimulatedChip chip(config, Rng(1));
      ADD_FAILURE() << "pre_wear_max " << wear << " was accepted";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("pre_wear_max"),
                std::string::npos)
          << e.what();
    }
  }
  SimulatedChipConfig config = small_config();
  config.pre_wear_max = std::numeric_limits<int>::max();
  EXPECT_NO_THROW(SimulatedChip(config, Rng(1)));
}

TEST(SimulatedChip, DropletTraceRecordsFrames) {
  SimulatedChipConfig config = small_config();
  config.record_droplet_trace = true;
  SimulatedChip chip(config, Rng(18));
  const core::DropletId id = chip.dispense(Rect{0, 4, 3, 7});
  chip.step({move(id, Action::kE)});
  chip.step({});
  ASSERT_EQ(chip.droplet_trace().size(), 2u);
  ASSERT_EQ(chip.droplet_trace()[0].size(), 1u);
  EXPECT_EQ(chip.droplet_trace()[0][0].second, (Rect{1, 4, 4, 7}));
  EXPECT_EQ(chip.droplet_trace()[1][0].second, (Rect{1, 4, 4, 7}));
}

TEST(SimulatedChip, RenderFrameShowsDropletsAndWear) {
  SimulatedChipConfig config = small_config();
  config.record_droplet_trace = true;
  SimulatedChip chip(config, Rng(19));
  chip.substrate().inject_fault(10, 0, 0);  // dead cell → '#'
  const core::DropletId id = chip.dispense(Rect{0, 0, 2, 2});
  chip.step({});
  const std::string frame =
      render_frame(chip, chip.droplet_trace().back());
  // 12 rows + 2 borders, each 20 cols + 2 walls + newline.
  EXPECT_EQ(frame.size(), 14u * 23u);
  EXPECT_NE(frame.find('#'), std::string::npos);
  EXPECT_NE(frame.find(static_cast<char>('A' + id % 26)),
            std::string::npos);
  // The droplet occupies exactly 9 cells.
  EXPECT_EQ(static_cast<int>(std::count(frame.begin(), frame.end(),
                                        static_cast<char>('A' + id % 26))),
            9);
}

TEST(SimulatedChip, CommandValidation) {
  SimulatedChip chip(small_config(), Rng(16));
  const core::DropletId id = chip.dispense(Rect{0, 4, 3, 7});
  EXPECT_THROW(chip.step({move(99, Action::kE)}), PreconditionError);
  EXPECT_THROW(chip.step({move(id, Action::kE), move(id, Action::kW)}),
               PreconditionError);
  // Disabled action (off-chip frontier) is rejected.
  EXPECT_THROW(chip.step({move(id, Action::kW)}), PreconditionError);
}

TEST(SimulatedChip, ARefusedMergeLeavesTheChipUnchanged) {
  SimulatedChipConfig config = small_config();
  config.chip.height = 10;
  SimulatedChip chip(config, Rng(23));
  const core::DropletId a = chip.dispense(Rect{0, 0, 1, 1});
  const core::DropletId b = chip.dispense(Rect{0, 3, 1, 4});
  const core::DropletId c = chip.dispense(Rect{0, 6, 1, 7});
  chip.step({move(b, Action::kS, a)});  // into contact with a
  ASSERT_EQ(chip.droplet_position(b), (Rect{0, 2, 1, 3}));
  const SimulatedChip::DropletSnapshot before = chip.droplets();
  // The merged droplet would touch c, so the merge is refused...
  EXPECT_THROW(chip.merge(a, b, Rect{0, 4, 1, 5}), PreconditionError);
  // ...and a, b and c are all still on the chip where they were.
  EXPECT_EQ(chip.droplets(), before);
  EXPECT_EQ(chip.droplet_position(a), (Rect{0, 0, 1, 1}));
  EXPECT_EQ(chip.droplet_position(c), (Rect{0, 6, 1, 7}));
}

TEST(SimulatedChip, AMergedDropletMustOverlapOrAdjoinItsInputs) {
  SimulatedChipConfig config = small_config();
  SimulatedChip chip(config, Rng(29));
  const core::DropletId a = chip.dispense(Rect{0, 0, 1, 1});
  const core::DropletId b = chip.dispense(Rect{0, 3, 1, 4});
  chip.step({move(b, Action::kS, a)});  // into contact with a
  ASSERT_EQ(chip.droplet_position(b), (Rect{0, 2, 1, 3}));
  const SimulatedChip::DropletSnapshot before = chip.droplets();
  // On the chip and clear of every droplet, but far from both inputs: the
  // merge would teleport the liquid, so it is refused...
  EXPECT_THROW(chip.merge(a, b, Rect{10, 6, 11, 7}), PreconditionError);
  // ...one cell short of adjoining b, too...
  EXPECT_THROW(chip.merge(a, b, Rect{0, 5, 1, 6}), PreconditionError);
  EXPECT_EQ(chip.droplets(), before);
  // ...while a site that merely adjoins an input is accepted.
  const core::DropletId merged = chip.merge(a, b, Rect{0, 4, 1, 5});
  EXPECT_EQ(chip.droplet_position(merged), (Rect{0, 4, 1, 5}));
  EXPECT_EQ(chip.droplets().size(), 1u);
}

TEST(SimulatedChip, AStaleMergePartnerIsRefusedBeforeAnyDraw) {
  // A moving command names its merge partner; one that is no droplet on the
  // chip (never dispensed, or the droplet itself) is refused with the other
  // command checks, before the first outcome draw, so the chip keeps in
  // step with an untouched twin. A hold's partner is ignored.
  SimulatedChipConfig config = small_config();
  config.pre_wear_max = 300;
  config.chip.degradation = DegradationRange{0.5, 0.9, 60.0, 150.0};
  SimulatedChip refused(config, Rng(5));
  SimulatedChip twin(config, Rng(5));
  for (SimulatedChip* chip : {&refused, &twin}) {
    chip->dispense(Rect{0, 0, 1, 1});
    chip->dispense(Rect{18, 10, 19, 11});  // the NE corner
  }
  EXPECT_THROW(refused.step({move(0, Action::kE), move(1, Action::kW, 99)}),
               PreconditionError);
  EXPECT_THROW(refused.step({move(0, Action::kE, 0)}), PreconditionError);
  EXPECT_EQ(refused.cycle(), 0u);
  for (SimulatedChip* chip : {&refused, &twin})
    chip->step({core::Command{0, std::nullopt, 99}, move(1, Action::kW, 0)});
  for (int i = 0; i < 12; ++i) {
    const Action a = i % 2 == 0 ? Action::kE : Action::kW;
    for (SimulatedChip* chip : {&refused, &twin})
      if (action_enabled(a, chip->droplet_position(0), ActionRules{},
                         chip->bounds()))
        chip->step({move(0, a), move(1, Action::kW)});
    ASSERT_EQ(refused.droplets(), twin.droplets()) << "step " << i;
  }
  EXPECT_EQ(refused.substrate().actuation_matrix(),
            twin.substrate().actuation_matrix());
}

TEST(SimulatedChip, ARefusedStepLeavesTheRandomStreamUnchanged) {
  // A disabled action on the droplet with the higher id is refused after
  // the lower id's command was read: the refusal must not have drawn that
  // droplet's outcome, so the chip keeps in step with an untouched twin.
  SimulatedChipConfig config = small_config();
  config.pre_wear_max = 300;
  config.chip.degradation = DegradationRange{0.5, 0.9, 60.0, 150.0};
  SimulatedChip refused(config, Rng(3));
  SimulatedChip twin(config, Rng(3));
  for (SimulatedChip* chip : {&refused, &twin}) {
    chip->dispense(Rect{0, 0, 1, 1});
    chip->dispense(Rect{18, 10, 19, 11});  // the NE corner
  }
  EXPECT_THROW(refused.step({move(0, Action::kE), move(1, Action::kN)}),
               PreconditionError);
  EXPECT_EQ(refused.cycle(), 0u);
  for (int i = 0; i < 12; ++i) {
    const Action a = i % 2 == 0 ? Action::kE : Action::kW;
    for (SimulatedChip* chip : {&refused, &twin})
      if (action_enabled(a, chip->droplet_position(0), ActionRules{},
                         chip->bounds()))
        chip->step({move(0, a), move(1, Action::kW)});
    ASSERT_EQ(refused.droplets(), twin.droplets()) << "step " << i;
  }
  EXPECT_EQ(refused.substrate().actuation_matrix(),
            twin.substrate().actuation_matrix());
}

/// Test-local reference of SimulatedChip's droplet table and step that
/// shares no step code with it: a std::map of droplets and a twin substrate
/// seeded as SimulatedChip's constructor seeds its own (pre-wear drawn in
/// the same row-major loop; no faults, no sensor), whose random stream the
/// outcome draws continue.
struct ReferenceChip {
  ReferenceChip(const SimulatedChipConfig& config, std::uint64_t seed)
      : rng(seed), twin(config.chip, rng) {
    const int max_wear = static_cast<int>(config.pre_wear_max);
    for (int y = 0; max_wear > 0 && y < twin.height(); ++y)
      for (int x = 0; x < twin.width(); ++x)
        twin.wear(x, y,
                  static_cast<std::uint64_t>(rng.uniform_int(0, max_wear)));
  }

  /// Partners may touch, any other two droplets keep a free cell between.
  static bool apart(const Rect& a, const Rect& b, bool partners) {
    return a.manhattan_gap(b) >= (partners ? 1 : 2);
  }

  /// True if @p at is on the chip and apart from every droplet but the
  /// skipped ones.
  bool clear(const Rect& at, core::DropletId skip0 = -1,
             core::DropletId skip1 = -1) const {
    if (!twin.in_bounds(at)) return false;
    for (const auto& [id, pos] : droplets)
      if (id != skip0 && id != skip1 && !apart(at, pos, false)) return false;
    return true;
  }

  core::DropletId add(const Rect& at) {
    droplets.emplace(next_id, at);
    return next_id++;
  }

  void step(const std::vector<core::Command>& commands) {
    std::map<core::DropletId, Action> action;
    std::map<core::DropletId, core::DropletId> partner;
    for (const core::Command& c : commands) {
      if (!c.action.has_value()) continue;
      action.emplace(c.droplet, *c.action);
      partner.emplace(c.droplet, c.merge_partner);
    }
    // Draw each commanded droplet's outcome in id order from the true
    // forces before this cycle's wear.
    const DoubleMatrix force =
        force_from_degradation(twin.degradation_matrix());
    std::map<core::DropletId, Rect> to = droplets;
    for (auto& [id, pos] : to) {
      const auto it = action.find(id);
      if (it == action.end()) continue;
      const std::vector<Outcome> outcomes =
          action_outcomes(droplets.at(id), it->second, force);
      std::vector<double> weights;
      for (const Outcome& o : outcomes) weights.push_back(o.probability);
      pos = outcomes[rng.categorical(weights)].droplet;
    }
    // Settle: a moved droplet too close to another's proposal holds in
    // place, until no proposal changes.
    const auto partners = [&](core::DropletId a, core::DropletId b) {
      const auto pa = partner.find(a);
      const auto pb = partner.find(b);
      return (pa != partner.end() && pa->second == b) ||
             (pb != partner.end() && pb->second == a);
    };
    for (bool changed = true; changed;) {
      changed = false;
      for (auto& [id, pos] : to) {
        if (pos == droplets.at(id)) continue;
        for (const auto& [other, other_pos] : to) {
          if (other == id || apart(pos, other_pos, partners(id, other)))
            continue;
          pos = droplets.at(id);
          ++blocked;
          changed = true;
          break;
        }
      }
    }
    // Charge the union of the actuated patterns (targets, or the held
    // droplet), each cell once.
    BoolMatrix charged(twin.width(), twin.height());
    for (const auto& [id, pos] : droplets) {
      const auto it = action.find(id);
      const Rect cells = (it == action.end() ? pos : apply(it->second, pos))
                             .intersection_with(twin.bounds());
      for (int y = cells.ya; cells.valid() && y <= cells.yb; ++y)
        for (int x = cells.xa; x <= cells.xb; ++x) charged(x, y) = 1;
    }
    for (int y = 0; y < twin.height(); ++y)
      for (int x = 0; x < twin.width(); ++x)
        if (charged(x, y) != 0) twin.wear(x, y, 1);
    droplets = std::move(to);
    ++cycles;
  }

  Rng rng;
  Biochip twin;
  std::map<core::DropletId, Rect> droplets;
  core::DropletId next_id = 0;
  std::uint64_t blocked = 0;
  std::uint64_t cycles = 0;
};

TEST(SimulatedChip, StepMatchesAReferenceStepOnFuzzedCommands) {
  SimulatedChipConfig config = small_config();
  config.chip.degradation = DegradationRange{0.5, 0.9, 60.0, 150.0};
  config.pre_wear_max = 100;
  std::map<std::string, int> seen;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SimulatedChip chip(config, Rng(seed));
    ReferenceChip ref(config, seed);
    Rng driver(0xF022 + seed);
    const auto pick = [&driver](const auto& map) {
      auto it = map.begin();
      std::advance(it, driver.uniform_int(0, static_cast<int>(map.size()) - 1));
      return *it;
    };
    for (int cycle = 0; cycle < 250; ++cycle) {
      const std::string at =
          "seed " + std::to_string(seed) + " cycle " + std::to_string(cycle);
      // Change the droplet set: dispense up to 6, discard down to 3, split
      // one in two halves in contact, or merge a pair in contact.
      const int op = driver.uniform_int(0, 5);
      const std::size_t n = ref.droplets.size();
      if (n < 3 || (op == 0 && n < 6)) {
        const int w = driver.uniform_int(2, 4);
        const int h = driver.uniform_int(2, 4);
        int x = driver.uniform_int(0, config.chip.width - w);
        int y = driver.uniform_int(0, config.chip.height - h);
        switch (driver.uniform_int(0, 3)) {  // the edge it touches
          case 0: y = 0; break;
          case 1: y = config.chip.height - h; break;
          case 2: x = 0; break;
          default: x = config.chip.width - w; break;
        }
        const Rect rect = Rect::from_size(x, y, w, h);
        ASSERT_EQ(chip.location_clear(rect), ref.clear(rect)) << at;
        if (ref.clear(rect)) {
          ASSERT_EQ(chip.dispense(rect), ref.add(rect)) << at;
          ++seen["dispense"];
        }
      } else if (op == 1 && n > 3) {
        const core::DropletId id = pick(ref.droplets).first;
        chip.discard(id);
        ref.droplets.erase(id);
        ++seen["discard"];
      } else if (op == 2) {
        const auto [id, pos] = pick(ref.droplets);
        if (pos.width() >= 2) {
          const int mid = pos.xa + pos.width() / 2 - 1;
          const Rect p0{pos.xa, pos.ya, mid, pos.yb};
          const Rect p1{mid + 1, pos.ya, pos.xb, pos.yb};
          const bool clear = ref.clear(p0, id) && ref.clear(p1, id);
          ASSERT_EQ(chip.split_clear(id, p0, p1), clear) << at;
          if (clear) {
            const auto [id0, id1] = chip.split(id, p0, p1);
            ref.droplets.erase(id);
            ASSERT_EQ(id0, ref.add(p0)) << at;
            ASSERT_EQ(id1, ref.add(p1)) << at;
            ++seen["split"];
          }
        }
      } else if (op == 3) {
        for (const auto& [a, pa] : ref.droplets) {
          const auto b = std::find_if(
              ref.droplets.upper_bound(a), ref.droplets.end(),
              [&](const auto& d) { return pa.manhattan_gap(d.second) <= 1; });
          if (b == ref.droplets.end()) continue;
          const Rect merged = pa.union_with(b->second);
          const core::DropletId id_b = b->first;
          if (!ref.clear(merged, a, id_b)) continue;
          const core::DropletId got = chip.merge(a, id_b, merged);
          ref.droplets.erase(a);
          ref.droplets.erase(id_b);
          ASSERT_EQ(got, ref.add(merged)) << at;
          ++seen["merge"];
          break;
        }
      }

      // One cycle: each droplet gets no command, a hold (with a partner
      // the chip must ignore), or a random enabled action with or without
      // a partner; the commands arrive in random order.
      std::vector<core::Command> commands;
      for (const auto& [id, pos] : ref.droplets) {
        const int kind = driver.uniform_int(0, 5);
        const core::DropletId partner =
            driver.bernoulli(0.5) ? pick(ref.droplets).first : -1;
        if (kind == 0) continue;
        if (kind == 1) {
          commands.push_back({id, std::nullopt, partner});
          continue;
        }
        std::vector<Action> enabled;
        for (const Action a : kAllActions)
          if (action_enabled(a, pos, ActionRules{}, chip.bounds()))
            enabled.push_back(a);
        if (enabled.empty()) continue;
        const Action a = enabled[static_cast<std::size_t>(
            driver.uniform_int(0, static_cast<int>(enabled.size()) - 1))];
        commands.push_back({id, a, partner == id ? -1 : partner});
      }
      std::shuffle(commands.begin(), commands.end(), driver.engine());
      chip.step(commands);
      ref.step(commands);

      const SimulatedChip::DropletSnapshot want(ref.droplets.begin(),
                                                ref.droplets.end());
      ASSERT_EQ(chip.droplets(), want) << at;
      ASSERT_EQ(chip.blocked_moves(), ref.blocked) << at;
      ASSERT_TRUE(chip.substrate().actuation_matrix() ==
                  ref.twin.actuation_matrix())
          << at;
      ASSERT_EQ(chip.substrate().cycles(), ref.cycles) << at;
      ASSERT_EQ(chip.cycle(), ref.cycles) << at;
    }
    seen["blocked"] += static_cast<int>(ref.blocked);
  }
  // Every kind of input happened.
  for (const char* kind :
       {"dispense", "discard", "split", "merge", "blocked"})
    EXPECT_GT(seen[kind], 0) << kind;
}

TEST(SimulatedChip, InjectedFaultsAreReported) {
  SimulatedChipConfig config = small_config();
  config.faults.mode = FaultMode::kUniform;
  config.faults.faulty_fraction = 0.1;
  SimulatedChip chip(config, Rng(17));
  EXPECT_EQ(chip.injected_faults().size(), 24u);  // 10% of 240
}

}  // namespace
}  // namespace meda::sim
