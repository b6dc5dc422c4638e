#include "core/compiled_mdp.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/mdp.hpp"
#include "core/synthesizer.hpp"
#include "model/outcomes.hpp"
#include "util/rng.hpp"

/// In-place health patching of a CompiledMdp (patch_compiled_mdp): over
/// randomized health-delta sequences a topology-preserving patch must leave
/// the model byte-identical to a fresh compile under the new force, and any
/// delta that adds or removes outcomes (a frontier dying outright, a dead
/// cell reviving — the quarantine/parole transitions) must abort so the
/// caller rebuilds cold.

namespace meda::core {
namespace {

constexpr int kGrid = 12;
constexpr int kBits = 3;
constexpr int kFull = (1 << kBits) - 1;  // healthiest sensed level

Rect chip() { return Rect{0, 0, kGrid - 1, kGrid - 1}; }

IntMatrix uniform_health(int level) {
  return IntMatrix(kGrid, kGrid, level);
}

DoubleMatrix force_of(const IntMatrix& health) {
  return force_from_health(health, kBits, HealthEstimator::kScaled);
}

assay::RoutingJob fixture_job() {
  assay::RoutingJob rj;
  rj.start = Rect::from_size(0, 4, 4, 4);
  rj.goal = Rect::from_size(8, 4, 4, 4);
  rj.hazard = chip();
  return rj;
}

struct CompiledPair {
  CompiledMdp mdp;
  CompiledGeometry geometry;
};

CompiledPair compile_fixture(const DoubleMatrix& force,
                             double lambda = 0.0) {
  CompiledModel model =
      build_compiled_mdp(fixture_job(), force, chip(), ActionRules{}, lambda);
  return {std::move(model.mdp), std::move(model.geometry)};
}

/// Exact (bitwise) equality of every solver-facing array.
void expect_byte_equivalent(const CompiledMdp& patched,
                            const CompiledMdp& fresh, const char* label) {
  EXPECT_EQ(patched.num_droplet_states, fresh.num_droplet_states) << label;
  EXPECT_EQ(patched.choice_offset, fresh.choice_offset) << label;
  EXPECT_EQ(patched.trans_offset, fresh.trans_offset) << label;
  EXPECT_EQ(patched.target, fresh.target) << label;
  EXPECT_EQ(patched.probability, fresh.probability) << label;
  EXPECT_EQ(patched.inv_one_minus_q, fresh.inv_one_minus_q) << label;
  EXPECT_EQ(patched.cost, fresh.cost) << label;
  EXPECT_EQ(patched.is_goal, fresh.is_goal) << label;
  EXPECT_EQ(patched.sweep_order, fresh.sweep_order) << label;
  EXPECT_EQ(patched.pred_offset, fresh.pred_offset) << label;
  EXPECT_EQ(patched.pred_state, fresh.pred_state) << label;
}

/// Perturbs @p count random cells to levels in [1, kFull-1]: strictly
/// positive (no cell dies) and strictly below full health (no frontier hits
/// probability 1), so the outcome set — and hence the topology — is stable.
std::vector<Vec2i> perturb(Rng& rng, IntMatrix& health, int count) {
  IntMatrix before = health;
  for (int i = 0; i < count; ++i) {
    const int x = rng.uniform_int(0, kGrid - 1);
    const int y = rng.uniform_int(0, kGrid - 1);
    health(x, y) = rng.uniform_int(1, kFull - 1);
  }
  return health_delta_cells(before, health);
}

TEST(HealthDeltaCells, ReportsChangedCellsRowMajor) {
  IntMatrix before = uniform_health(5);
  IntMatrix after = before;
  after(7, 2) = 3;
  after(1, 2) = 4;
  after(4, 9) = 0;
  const std::vector<Vec2i> delta = health_delta_cells(before, after);
  ASSERT_EQ(delta.size(), 3u);
  EXPECT_EQ(delta[0], (Vec2i{1, 2}));  // ascending y, then x
  EXPECT_EQ(delta[1], (Vec2i{7, 2}));
  EXPECT_EQ(delta[2], (Vec2i{4, 9}));
  EXPECT_TRUE(health_delta_cells(before, before).empty());
}

TEST(PatchCompiledMdp, EmptyDeltaIsANoOp) {
  const IntMatrix health = uniform_health(5);
  CompiledPair c = compile_fixture(force_of(health));
  const CompiledMdp before = c.mdp;
  const MdpPatch patch =
      patch_compiled_mdp(c.mdp, c.geometry, force_of(health), chip(), chip(),
                         ActionRules{}, {});
  EXPECT_TRUE(patch.patched);
  EXPECT_EQ(patch.dirty_states, 0u);
  EXPECT_EQ(patch.states_rescanned, 0u);
  expect_byte_equivalent(c.mdp, before, "noop");
}

TEST(PatchCompiledMdp, RandomDeltaSequencesMatchFreshCompiles) {
  Rng rng(0x5eed0001u);
  for (int seq = 0; seq < 10; ++seq) {
    IntMatrix health = uniform_health(5);
    CompiledPair c = compile_fixture(force_of(health));
    for (int step = 0; step < 4; ++step) {
      const std::vector<Vec2i> delta =
          perturb(rng, health, rng.uniform_int(1, 5));
      const DoubleMatrix force = force_of(health);
      const MdpPatch patch = patch_compiled_mdp(
          c.mdp, c.geometry, force, chip(), chip(), ActionRules{}, delta);
      ASSERT_TRUE(patch.patched) << "seq " << seq << " step " << step;
      const CompiledPair fresh = compile_fixture(force);
      expect_byte_equivalent(c.mdp, fresh.mdp, "random delta");
      // Each dirty state was actually rescanned.
      EXPECT_LE(patch.dirty_states, patch.states_rescanned);
    }
  }
}

TEST(PatchCompiledMdp, WearCostDeltasMatchFreshCompiles) {
  constexpr double kLambda = 0.3;
  Rng rng(0x5eed0002u);
  for (int seq = 0; seq < 5; ++seq) {
    IntMatrix health = uniform_health(5);
    CompiledPair c = compile_fixture(force_of(health), kLambda);
    for (int step = 0; step < 3; ++step) {
      const std::vector<Vec2i> delta =
          perturb(rng, health, rng.uniform_int(1, 4));
      const DoubleMatrix force = force_of(health);
      const MdpPatch patch =
          patch_compiled_mdp(c.mdp, c.geometry, force, chip(), chip(),
                             ActionRules{}, delta, kLambda);
      ASSERT_TRUE(patch.patched) << "seq " << seq << " step " << step;
      const CompiledPair fresh = compile_fixture(force, kLambda);
      expect_byte_equivalent(c.mdp, fresh.mdp, "wear delta");
    }
  }
}

TEST(PatchCompiledMdp, SingleDeadCellInAWideFrontierStaysPatchable) {
  // One quarantined cell inside a 4-cell frontier leaves the mean force
  // positive: every outcome keeps probability > 0, so the topology holds
  // and the patch must still reproduce a fresh compile exactly.
  IntMatrix health = uniform_health(5);
  CompiledPair c = compile_fixture(force_of(health));
  IntMatrix before = health;
  health(6, 5) = 0;
  const DoubleMatrix force = force_of(health);
  const MdpPatch patch =
      patch_compiled_mdp(c.mdp, c.geometry, force, chip(), chip(),
                         ActionRules{}, health_delta_cells(before, health));
  ASSERT_TRUE(patch.patched);
  EXPECT_GT(patch.dirty_states, 0u);
  expect_byte_equivalent(c.mdp, compile_fixture(force).mdp, "single dead");
}

TEST(PatchCompiledMdp, SelfLoopBranchesKeepTheTransitionCountExact) {
  // A corridor as tall as the droplet: the 3×3 droplet's north and south
  // frontiers lie off the 12×3 chip, so only E and W are enabled, and on a
  // fully healthy chip each succeeds with probability 1 and has no failure
  // self-loop. Wearing one frontier cell makes those branches appear while
  // the off-state topology holds: the patch goes through, must report the
  // added branches and must keep the per-choice outcome counts of a fresh
  // build; healing the cell takes them back.
  const Rect corridor{0, 0, 11, 2};
  assay::RoutingJob rj;
  rj.start = Rect::from_size(0, 0, 3, 3);
  rj.goal = Rect::from_size(9, 0, 3, 3);
  rj.hazard = corridor;
  const IntMatrix healthy(12, 3, kFull);
  IntMatrix worn = healthy;
  worn(3, 1) = kFull - 1;  // on the E frontier of x = 0 and W of x = 4
  CompiledModel model =
      build_compiled_mdp(rj, force_of(healthy), corridor, ActionRules{});
  const CompiledModel fresh =
      build_compiled_mdp(rj, force_of(worn), corridor, ActionRules{});
  const auto added = static_cast<std::int64_t>(fresh.stats.transitions) -
                     static_cast<std::int64_t>(model.stats.transitions);
  EXPECT_EQ(added, 2);

  MdpPatch patch = patch_compiled_mdp(
      model.mdp, model.geometry, force_of(worn), corridor, corridor,
      ActionRules{}, health_delta_cells(healthy, worn));
  ASSERT_TRUE(patch.patched);
  EXPECT_EQ(patch.transitions_delta, added);
  expect_byte_equivalent(model.mdp, fresh.mdp, "worn");
  EXPECT_EQ(model.geometry.choice_outcomes, fresh.geometry.choice_outcomes);

  patch = patch_compiled_mdp(model.mdp, model.geometry, force_of(healthy),
                             corridor, corridor, ActionRules{},
                             health_delta_cells(worn, healthy));
  ASSERT_TRUE(patch.patched);
  EXPECT_EQ(patch.transitions_delta, -added);
  const CompiledModel healed =
      build_compiled_mdp(rj, force_of(healthy), corridor, ActionRules{});
  expect_byte_equivalent(model.mdp, healed.mdp, "healed");
  EXPECT_EQ(model.geometry.choice_outcomes, healed.geometry.choice_outcomes);
}

TEST(PatchCompiledMdp, RulesOtherThanTheBuildsAreRejected) {
  // The patch re-derives each state's enabled actions from the rules; a
  // rule set that enables a different action list cannot line up with the
  // retained choices. A 5×4 droplet can morph under r = 3/2, so the model
  // has morph choices that rules without morphing do not enable.
  assay::RoutingJob rj = fixture_job();
  rj.start = Rect::from_size(0, 4, 5, 4);
  const IntMatrix health = uniform_health(5);
  CompiledModel model =
      build_compiled_mdp(rj, force_of(health), chip(), ActionRules{});
  IntMatrix worn = health;
  worn(5, 5) = 3;  // on the start droplet's east frontier
  ActionRules no_morph;
  no_morph.enable_morphing = false;
  EXPECT_THROW(patch_compiled_mdp(model.mdp, model.geometry, force_of(worn),
                                  chip(), chip(), no_morph,
                                  health_delta_cells(health, worn)),
               PreconditionError);
}

TEST(PatchCompiledMdp, DeadFrontierAbortsThePatch) {
  // Quarantining a full droplet-height column kills entire frontiers: move
  // outcomes through it drop to probability 0 and vanish from the outcome
  // set, which a topology-preserving patch cannot express.
  IntMatrix health = uniform_health(5);
  CompiledPair c = compile_fixture(force_of(health));
  IntMatrix before = health;
  for (int y = 0; y < kGrid; ++y) health(7, y) = 0;
  const MdpPatch patch =
      patch_compiled_mdp(c.mdp, c.geometry, force_of(health), chip(), chip(),
                         ActionRules{}, health_delta_cells(before, health));
  EXPECT_FALSE(patch.patched);
  EXPECT_EQ(patch.dirty_states, 0u);
}

TEST(PatchCompiledMdp, RevivedFrontierAbortsThePatch) {
  // Parole of a dead wall: the model was built without the outcomes (and
  // possibly without the states) behind it, so reviving the cells must
  // force a cold recompile rather than a partial patch.
  IntMatrix walled = uniform_health(5);
  for (int y = 0; y < kGrid; ++y) walled(7, y) = 0;
  CompiledPair c = compile_fixture(force_of(walled));
  IntMatrix healed = walled;
  for (int y = 0; y < kGrid; ++y) healed(7, y) = 5;
  const MdpPatch patch =
      patch_compiled_mdp(c.mdp, c.geometry, force_of(healed), chip(), chip(),
                         ActionRules{}, health_delta_cells(walled, healed));
  EXPECT_FALSE(patch.patched);
  EXPECT_EQ(patch.dirty_states, 0u);
}

TEST(PatchCompiledMdp, FullHealthTransitionAbortsThePatch) {
  // Raising a frontier to full health drives its success probability to 1:
  // the failure self-loop still folds into q, but a double move's
  // intermediate outcome (s1·(1−s2)) vanishes — topology again.
  IntMatrix health = uniform_health(5);
  CompiledPair c = compile_fixture(force_of(health));
  IntMatrix before = health;
  for (int y = 0; y < kGrid; ++y)
    for (int x = 4; x <= 6; ++x) health(x, y) = kFull;
  const MdpPatch patch =
      patch_compiled_mdp(c.mdp, c.geometry, force_of(health), chip(), chip(),
                         ActionRules{}, health_delta_cells(before, health));
  EXPECT_FALSE(patch.patched);
}

}  // namespace
}  // namespace meda::core
