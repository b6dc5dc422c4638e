#include "sim/simulated_chip.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

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

TEST(SimulatedChip, InjectedFaultsAreReported) {
  SimulatedChipConfig config = small_config();
  config.faults.mode = FaultMode::kUniform;
  config.faults.faulty_fraction = 0.1;
  SimulatedChip chip(config, Rng(17));
  EXPECT_EQ(chip.injected_faults().size(), 24u);  // 10% of 240
}

}  // namespace
}  // namespace meda::sim
