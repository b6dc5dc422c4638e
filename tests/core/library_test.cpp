#include "core/library.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/compiled_mdp.hpp"
#include "model/outcomes.hpp"
#include "obs/obs.hpp"

namespace meda::core {
namespace {

assay::RoutingJob sample_job() {
  assay::RoutingJob rj;
  rj.start = Rect::from_size(0, 0, 4, 4);
  rj.goal = Rect::from_size(10, 0, 4, 4);
  rj.hazard = Rect{0, 0, 16, 9};
  return rj;
}

SynthesisResult sample_result(double cycles) {
  SynthesisResult r;
  r.feasible = true;
  r.expected_cycles = cycles;
  r.strategy = Strategy({{Rect::from_size(0, 0, 4, 4), Action::kEE}});
  return r;
}

TEST(HealthDigest, SensitiveToChangesInsideTheArea) {
  IntMatrix h(20, 10, 3);
  const Rect area{2, 2, 8, 6};
  const std::uint64_t before = health_digest(h, area);
  h(5, 4) = 2;
  EXPECT_NE(health_digest(h, area), before);
}

TEST(HealthDigest, InsensitiveToChangesOutsideTheArea) {
  IntMatrix h(20, 10, 3);
  const Rect area{2, 2, 8, 6};
  const std::uint64_t before = health_digest(h, area);
  h(15, 8) = 0;
  h(0, 0) = 1;
  EXPECT_EQ(health_digest(h, area), before);
}

TEST(HealthDigest, AreaClippedToTheMatrix) {
  IntMatrix h(20, 10, 3);
  const std::uint64_t full = health_digest(h, Rect{0, 0, 19, 9});
  const std::uint64_t overhang = health_digest(h, Rect{-5, -5, 25, 15});
  EXPECT_EQ(full, overhang);
}

TEST(HealthDigest, DistinguishesPositionOfChange) {
  IntMatrix a(10, 10, 3), b(10, 10, 3);
  a(2, 2) = 1;
  b(3, 2) = 1;
  const Rect area{0, 0, 9, 9};
  EXPECT_NE(health_digest(a, area), health_digest(b, area));
}

TEST(StrategyLibrary, StoreAndLookup) {
  StrategyLibrary lib;
  const assay::RoutingJob rj = sample_job();
  EXPECT_EQ(lib.lookup(rj, 42), nullptr);
  EXPECT_EQ(lib.misses(), 1u);
  lib.store(rj, 42, sample_result(5.0));
  const SynthesisResult* hit = lib.lookup(rj, 42);
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->expected_cycles, 5.0);
  EXPECT_EQ(lib.hits(), 1u);
  EXPECT_EQ(lib.size(), 1u);
}

TEST(StrategyLibrary, DigestDistinguishesEntries) {
  StrategyLibrary lib;
  const assay::RoutingJob rj = sample_job();
  lib.store(rj, 1, sample_result(5.0));
  EXPECT_EQ(lib.lookup(rj, 2), nullptr);
  lib.store(rj, 2, sample_result(7.0));
  EXPECT_EQ(lib.size(), 2u);
  EXPECT_DOUBLE_EQ(lib.lookup(rj, 1)->expected_cycles, 5.0);
  EXPECT_DOUBLE_EQ(lib.lookup(rj, 2)->expected_cycles, 7.0);
}

TEST(StrategyLibrary, JobGeometryDistinguishesEntries) {
  StrategyLibrary lib;
  assay::RoutingJob rj = sample_job();
  lib.store(rj, 1, sample_result(5.0));
  rj.start = rj.start.shifted(1, 0);  // re-anchored mid-route job
  EXPECT_EQ(lib.lookup(rj, 1), nullptr);
  rj = sample_job();
  rj.goal = rj.goal.shifted(0, 1);
  EXPECT_EQ(lib.lookup(rj, 1), nullptr);
  rj = sample_job();
  rj.hazard = rj.hazard.inflated(1);
  EXPECT_EQ(lib.lookup(rj, 1), nullptr);
}

TEST(StrategyLibrary, StoreOverwritesNewerResult) {
  StrategyLibrary lib;
  const assay::RoutingJob rj = sample_job();
  lib.store(rj, 9, sample_result(5.0));
  lib.store(rj, 9, sample_result(3.0));
  EXPECT_EQ(lib.size(), 1u);
  EXPECT_DOUBLE_EQ(lib.lookup(rj, 9)->expected_cycles, 3.0);
}

TEST(StrategyLibrary, CopiesShareStrategiesThatOutliveTheirSource) {
  // Copies share the stored tables: a copied library serves the original's
  // strategies, and each copy stays valid after the original overwrites the
  // key and after the library it came from is destroyed (ASan in CI).
  const Rect chip{0, 0, 16, 9};
  const assay::RoutingJob rj = sample_job();
  const Synthesizer synth(chip);
  const IntMatrix healthy(17, 10, 3);
  IntMatrix worn = healthy;
  for (int y = 0; y <= 5; ++y) worn(7, y) = 0;  // a wall the route skirts
  const SynthesisResult first = synth.synthesize(rj, healthy, 2);
  const SynthesisResult second = synth.synthesize(rj, worn, 2);
  ASSERT_TRUE(first.feasible);
  ASSERT_TRUE(second.feasible);
  // The states any of these strategies can cover.
  const std::vector<Rect> states =
      build_compiled_mdp(rj, full_health_force(17, 10), chip, ActionRules{})
          .geometry.droplets;
  auto expect_same = [&states](const Strategy& a, const Strategy& b) {
    EXPECT_EQ(a.size(), b.size());
    for (const Rect& droplet : states)
      EXPECT_EQ(a.action(droplet), b.action(droplet)) << droplet.to_string();
  };
  bool differ = false;
  for (const Rect& droplet : states)
    differ |= first.strategy.action(droplet) != second.strategy.action(droplet);
  ASSERT_TRUE(differ) << "the wall must change the strategy";

  auto original = std::make_unique<StrategyLibrary>();
  original->store(rj, 1, first);
  auto copy = std::make_unique<StrategyLibrary>(*original);
  ASSERT_NE(copy->lookup(rj, 1), nullptr);
  expect_same(copy->lookup(rj, 1)->strategy, original->lookup(rj, 1)->strategy);
  const SynthesisResult held = *copy->lookup(rj, 1);

  original->store(rj, 1, second);  // overwrite the shared key
  expect_same(original->lookup(rj, 1)->strategy, second.strategy);
  expect_same(copy->lookup(rj, 1)->strategy, first.strategy);

  original.reset();
  expect_same(copy->lookup(rj, 1)->strategy, first.strategy);
  const StrategyLibrary last = *copy;
  copy.reset();
  expect_same(last.lookup(rj, 1)->strategy, first.strategy);
  expect_same(held.strategy, first.strategy);
}

TEST(DetourDigest, SaltSeparatesTheKeyFamilies) {
  // The collision that must not happen: a *plain* health matrix H2 that is
  // value-equal to some droplet-*masked* view masked(H1) hashes to the same
  // FNV digest. A detour entry (synthesized around a droplet obstacle)
  // served for a plain lookup on H2 would steer a droplet around an obstacle
  // that is not there (or vice versa). The family is part of the library
  // key, so the two families stay disjoint even on identical matrices.
  const Rect area{0, 0, 9, 9};
  IntMatrix h1(10, 10, 3);
  // masked(H1): another droplet's inflated footprint clamped to 0.
  IntMatrix masked = h1;
  for (int y = 3; y <= 6; ++y)
    for (int x = 3; x <= 6; ++x) masked(x, y) = 0;
  // H2: a plain health matrix that *happens* to equal the masked view
  // (a 4x4 block of genuinely dead cells).
  const IntMatrix h2 = masked;
  const std::uint64_t digest = health_digest(masked, area);
  EXPECT_EQ(health_digest(h2, area), digest);
  // Storing under the detour family must not satisfy a lookup of the same
  // digest in another family.
  StrategyLibrary lib;
  const assay::RoutingJob rj = sample_job();
  lib.store(rj, digest, sample_result(5.0), DigestClass::kDetour);
  EXPECT_EQ(lib.lookup(rj, health_digest(h2, area)), nullptr);
  EXPECT_EQ(lib.lookup(rj, digest, DigestClass::kReplica), nullptr);
  EXPECT_NE(lib.lookup(rj, digest, DigestClass::kDetour), nullptr);
  // Each family keeps its own entry under the shared digest.
  lib.store(rj, digest, sample_result(7.0));
  EXPECT_EQ(lib.size(), 2u);
  EXPECT_DOUBLE_EQ(lib.lookup(rj, digest)->expected_cycles, 7.0);
  EXPECT_DOUBLE_EQ(
      lib.lookup(rj, digest, DigestClass::kDetour)->expected_cycles, 5.0);
}

TEST(StrategyLibrary, PerClassStatsAttributeOperations) {
  StrategyLibrary lib;
  const assay::RoutingJob rj = sample_job();
  lib.store(rj, 1, sample_result(5.0), DigestClass::kPlain);
  lib.store(rj, 2, sample_result(6.0), DigestClass::kDetour);
  (void)lib.lookup(rj, 1, DigestClass::kPlain);   // plain hit
  (void)lib.lookup(rj, 3, DigestClass::kPlain);   // plain miss
  (void)lib.lookup(rj, 2, DigestClass::kDetour);  // detour hit
  lib.store(rj, 1, sample_result(4.0), DigestClass::kPlain);  // overwrite

  const LibraryStats& stats = lib.stats();
  EXPECT_EQ(stats.plain.inserts, 1u);
  EXPECT_EQ(stats.plain.hits, 1u);
  EXPECT_EQ(stats.plain.misses, 1u);
  EXPECT_EQ(stats.plain.overwrites, 1u);
  EXPECT_EQ(stats.detour.inserts, 1u);
  EXPECT_EQ(stats.detour.hits, 1u);
  EXPECT_EQ(stats.detour.misses, 0u);
  // The legacy accessors are the cross-class totals.
  EXPECT_EQ(lib.hits(), 2u);
  EXPECT_EQ(lib.misses(), 1u);
  EXPECT_EQ(stats.totals().inserts, 2u);
}

TEST(StrategyLibrary, RegistryCountsEachOperationUnderItsClassName) {
  // Each class gets its own count of each operation, so a registry name
  // wired to the wrong class or operation reads a wrong count.
#ifdef MEDA_OBS_DISABLED
  GTEST_SKIP() << "instrumentation compiled out (MEDA_OBS=OFF)";
#endif
  obs::ctx().reset();
  obs::ctx().metrics().enable();
  struct Class {
    DigestClass cls;
    const char* prefix;
  };
  const Class classes[] = {{DigestClass::kPlain, "library.plain."},
                           {DigestClass::kDetour, "library.detour."},
                           {DigestClass::kReplica, "library.replica."}};
  StrategyLibrary lib;
  const assay::RoutingJob rj = sample_job();
  for (std::uint64_t c = 0; c < 3; ++c) {
    const DigestClass cls = classes[c].cls;
    const std::uint64_t base = 100 * (c + 1);  // one digest range per class
    const std::uint64_t n = 4 * c;
    for (std::uint64_t i = 0; i < n + 1; ++i)
      (void)lib.lookup(rj, base + 50 + i, cls);  // miss
    for (std::uint64_t i = 0; i < n + 2; ++i)
      lib.store(rj, base + i, sample_result(5.0), cls);  // insert
    for (std::uint64_t i = 0; i < n + 3; ++i)
      (void)lib.lookup(rj, base + i % (n + 2), cls);  // hit
    for (std::uint64_t i = 0; i < n + 4; ++i)
      lib.store(rj, base + i % (n + 2), sample_result(4.0), cls);  // overwrite
  }
  const obs::MetricsRegistry& m = obs::ctx().metrics();
  for (std::uint64_t c = 0; c < 3; ++c) {
    const std::string prefix = classes[c].prefix;
    const std::uint64_t n = 4 * c;
    EXPECT_EQ(m.counter(prefix + "misses"), n + 1) << prefix;
    EXPECT_EQ(m.counter(prefix + "inserts"), n + 2) << prefix;
    EXPECT_EQ(m.counter(prefix + "hits"), n + 3) << prefix;
    EXPECT_EQ(m.counter(prefix + "overwrites"), n + 4) << prefix;
  }
  obs::ctx().reset();
}

TEST(StrategyLibrary, StatsRollUpAcrossInstances) {
  LibraryStats a, b;
  a.plain.hits = 3;
  a.detour.overwrites = 1;
  b.plain.hits = 2;
  b.plain.misses = 4;
  a += b;
  EXPECT_EQ(a.plain.hits, 5u);
  EXPECT_EQ(a.plain.misses, 4u);
  EXPECT_EQ(a.detour.overwrites, 1u);
  EXPECT_EQ(a.totals().hits, 5u);
}

TEST(DigestClass, StableLabels) {
  EXPECT_STREQ(to_string(DigestClass::kPlain), "plain");
  EXPECT_STREQ(to_string(DigestClass::kDetour), "detour");
  EXPECT_STREQ(to_string(DigestClass::kReplica), "replica");
}

}  // namespace
}  // namespace meda::core
