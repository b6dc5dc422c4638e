#include "core/library.hpp"

#include <gtest/gtest.h>

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
  r.strategy.set(Rect::from_size(0, 0, 4, 4), Action::kEE);
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

TEST(DetourDigest, SaltSeparatesTheKeyFamilies) {
  // The collision that must not happen: a *plain* health matrix H2 that is
  // value-equal to some droplet-*masked* view masked(H1) hashes to the same
  // FNV digest — without the salt, a detour entry (synthesized around a
  // droplet obstacle) would be served for a plain lookup on H2, steering a
  // droplet around an obstacle that is not there (or vice versa). The salt
  // keeps the two families disjoint even on identical matrices.
  const Rect area{0, 0, 9, 9};
  IntMatrix h1(10, 10, 3);
  // masked(H1): another droplet's inflated footprint clamped to 0.
  IntMatrix masked = h1;
  for (int y = 3; y <= 6; ++y)
    for (int x = 3; x <= 6; ++x) masked(x, y) = 0;
  // H2: a plain health matrix that *happens* to equal the masked view
  // (a 4x4 block of genuinely dead cells).
  const IntMatrix h2 = masked;
  EXPECT_EQ(health_digest(h2, area), health_digest(masked, area));
  EXPECT_NE(health_digest(h2, area), detour_digest(masked, area));
  // And the same separation in the library itself: storing under the detour
  // key must not satisfy a plain-digest lookup.
  StrategyLibrary lib;
  const assay::RoutingJob rj = sample_job();
  lib.store(rj, detour_digest(masked, area), sample_result(5.0));
  EXPECT_EQ(lib.lookup(rj, health_digest(h2, area)), nullptr);
  EXPECT_NE(lib.lookup(rj, detour_digest(masked, area)), nullptr);
}

TEST(DetourDigest, IsDeterministicallyDerivedFromTheHealthDigest) {
  const Rect area{0, 0, 9, 9};
  const IntMatrix h(10, 10, 2);
  EXPECT_EQ(detour_digest(h, area),
            health_digest(h, area) ^ kDetourDigestSalt);
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

TEST(StrategyLibrary, StatsRollUpAcrossInstances) {
  LibraryStats a, b;
  a.plain.hits = 3;
  a.detour.evictions = 1;
  b.plain.hits = 2;
  b.plain.misses = 4;
  a += b;
  EXPECT_EQ(a.plain.hits, 5u);
  EXPECT_EQ(a.plain.misses, 4u);
  EXPECT_EQ(a.detour.evictions, 1u);
  EXPECT_EQ(a.totals().hits, 5u);
}

TEST(StrategyLibrary, CapacityEvictsOldestInsertionFirst) {
  StrategyLibrary lib;
  lib.set_capacity(2);
  const assay::RoutingJob rj = sample_job();
  lib.store(rj, 1, sample_result(1.0));
  lib.store(rj, 2, sample_result(2.0));
  lib.store(rj, 3, sample_result(3.0));  // evicts digest 1 (FIFO)
  EXPECT_EQ(lib.size(), 2u);
  EXPECT_EQ(lib.lookup(rj, 1), nullptr);
  EXPECT_NE(lib.lookup(rj, 2), nullptr);
  EXPECT_NE(lib.lookup(rj, 3), nullptr);
  EXPECT_EQ(lib.stats().plain.evictions, 1u);
}

TEST(StrategyLibrary, OverwriteKeepsOriginalInsertionOrder) {
  StrategyLibrary lib;
  lib.set_capacity(2);
  const assay::RoutingJob rj = sample_job();
  lib.store(rj, 1, sample_result(1.0));
  lib.store(rj, 2, sample_result(2.0));
  lib.store(rj, 1, sample_result(9.0));  // overwrite: still oldest
  lib.store(rj, 3, sample_result(3.0));  // must evict digest 1, not 2
  EXPECT_EQ(lib.lookup(rj, 1), nullptr);
  ASSERT_NE(lib.lookup(rj, 2), nullptr);
  EXPECT_EQ(lib.stats().plain.overwrites, 1u);
  EXPECT_EQ(lib.stats().plain.evictions, 1u);
}

TEST(StrategyLibrary, ShrinkingCapacityEvictsImmediately) {
  StrategyLibrary lib;
  const assay::RoutingJob rj = sample_job();
  for (std::uint64_t d = 1; d <= 4; ++d)
    lib.store(rj, d, sample_result(static_cast<double>(d)));
  lib.set_capacity(2);
  EXPECT_EQ(lib.size(), 2u);
  EXPECT_EQ(lib.stats().plain.evictions, 2u);
  EXPECT_EQ(lib.lookup(rj, 1), nullptr);  // oldest two are gone
  EXPECT_EQ(lib.lookup(rj, 2), nullptr);
  EXPECT_NE(lib.lookup(rj, 3), nullptr);
  EXPECT_NE(lib.lookup(rj, 4), nullptr);
  lib.set_capacity(0);  // back to unlimited: nothing else is evicted
  lib.store(rj, 5, sample_result(5.0));
  EXPECT_EQ(lib.size(), 3u);
}

TEST(StrategyLibrary, EvictionAttributesToTheEvictedEntrysClass) {
  StrategyLibrary lib;
  lib.set_capacity(1);
  const assay::RoutingJob rj = sample_job();
  lib.store(rj, 1, sample_result(1.0), DigestClass::kDetour);
  lib.store(rj, 2, sample_result(2.0), DigestClass::kPlain);
  // The detour entry was evicted by a plain store: the eviction belongs to
  // the detour class.
  EXPECT_EQ(lib.stats().detour.evictions, 1u);
  EXPECT_EQ(lib.stats().plain.evictions, 0u);
}

TEST(DigestClass, StableLabels) {
  EXPECT_STREQ(to_string(DigestClass::kPlain), "plain");
  EXPECT_STREQ(to_string(DigestClass::kDetour), "detour");
  EXPECT_STREQ(to_string(DigestClass::kReplica), "replica");
}

TEST(StrategyLibrary, ClearResetsEverything) {
  StrategyLibrary lib;
  lib.store(sample_job(), 1, sample_result(5.0));
  (void)lib.lookup(sample_job(), 1);
  lib.clear();
  EXPECT_EQ(lib.size(), 0u);
  EXPECT_EQ(lib.hits(), 0u);
  EXPECT_EQ(lib.misses(), 0u);
}

}  // namespace
}  // namespace meda::core
