#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <set>

#include "util/check.hpp"

namespace meda {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformDegenerateIntervalReturnsBound) {
  Rng rng(7);
  EXPECT_EQ(rng.uniform(3.0, 3.0), 3.0);
}

TEST(Rng, UniformRejectsReversedBounds) {
  Rng rng(7);
  EXPECT_THROW(rng.uniform(5.0, 2.0), PreconditionError);
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  Rng rng(3);
  std::set<int> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(0, 4));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 4);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliClampOutOfRange) {
  Rng rng(11);
  EXPECT_FALSE(rng.bernoulli(-0.5));
  EXPECT_TRUE(rng.bernoulli(1.5));
}

TEST(Rng, BernoulliFrequencyNearP) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.02);
}

const std::array<double, 9> kFixedPs = {
    0.0,  std::numeric_limits<double>::denorm_min(),
    1e-12, 1e-3,
    0.02, 1.0 / 3.0,
    0.5,  std::nextafter(1.0, 0.0),
    1.0};

TEST(Rng, FixedBernoulliMatchesBernoulliDrawForDraw) {
  for (const double p : kFixedPs) {
    const FixedBernoulli trial(p);
    Rng fast(37), reference(37);
    int hits = 0;
    for (int i = 0; i < 20000; ++i) {
      const bool expected = reference.bernoulli(p);
      ASSERT_EQ(trial(fast), expected) << "p = " << p << ", draw " << i;
      hits += expected;
    }
    EXPECT_TRUE(fast.engine() == reference.engine()) << "p = " << p;
    if (p == 0.0) {
      EXPECT_EQ(hits, 0);
    }
    if (p == 1.0) {
      EXPECT_EQ(hits, 20000);
    }
  }
}

TEST(Rng, FixedBernoulliThresholdIsTheFirstFailingDraw) {
  // A draw x succeeds iff double(x) / 2^64 < p, so K is the smallest x with
  // double(x) >= p * 2^64 (exact: a power-of-two scaling).
  for (const double p : kFixedPs) {
    if (p == 1.0) continue;  // every draw succeeds: no failing draw
    const std::uint64_t k = FixedBernoulli(p).threshold();
    const double cut = std::ldexp(p, 64);
    EXPECT_LE(cut, static_cast<double>(k)) << "p = " << p;
    if (k > 0) {
      EXPECT_LT(static_cast<double>(k - 1), cut) << "p = " << p;
    }
  }
}

TEST(Rng, FixedBernoulliRejectsOutOfRangeP) {
  EXPECT_THROW(FixedBernoulli(-0.1), PreconditionError);
  EXPECT_THROW(FixedBernoulli(1.5), PreconditionError);
  EXPECT_THROW(FixedBernoulli(std::numeric_limits<double>::quiet_NaN()),
               PreconditionError);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(17);
  const std::array<double, 3> weights = {1.0, 0.0, 3.0};
  std::array<int, 3> counts = {0, 0, 0};
  const int n = 20000;
  for (int i = 0; i < n; ++i) counts[rng.categorical(weights)]++;
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.25, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.75, 0.02);
}

TEST(Rng, CategoricalRejectsAllZero) {
  Rng rng(17);
  const std::array<double, 2> weights = {0.0, 0.0};
  EXPECT_THROW(rng.categorical(weights), PreconditionError);
}

TEST(Rng, CategoricalRejectsNegative) {
  Rng rng(17);
  const std::array<double, 2> weights = {0.5, -0.1};
  EXPECT_THROW(rng.categorical(weights), PreconditionError);
}

TEST(Rng, NormalMomentsRoughlyMatch) {
  Rng rng(19);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(2.0, 0.5);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.02);
  EXPECT_NEAR(var, 0.25, 0.02);
}

TEST(Rng, ForkedStreamsAreDecorrelated) {
  Rng parent(23);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkIsDeterministicAndIndependentOfParentUse) {
  // A fork's stream is a pure function of (parent seed, consumed draws at
  // fork time, stream id): forking twice from identical parents yields
  // identical children, and draws made from the parent *after* the fork
  // must not perturb the child. The simulator relies on this to keep the
  // sensing channel decorrelated from the substrate.
  Rng parent_a(101), parent_b(101);
  Rng child_a = parent_a.fork(0x5E45);
  Rng child_b = parent_b.fork(0x5E45);
  for (int i = 0; i < 20; ++i) parent_a.next_u64();  // only parent_a drained
  for (int i = 0; i < 50; ++i)
    ASSERT_EQ(child_a.next_u64(), child_b.next_u64()) << "draw " << i;
}

TEST(Rng, Refork) {
  // Same stream id re-forked after the parent advanced gives a new stream —
  // fork ids alone do not collide across parent states.
  Rng parent(7);
  Rng first = parent.fork(5);
  parent.next_u64();
  Rng second = parent.fork(5);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (first.next_u64() == second.next_u64()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(29);
  const auto sample = sample_without_replacement(rng, 50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  EXPECT_GE(*unique.begin(), 0);
  EXPECT_LT(*unique.rbegin(), 50);
}

TEST(Rng, SampleWholePopulation) {
  Rng rng(31);
  const auto sample = sample_without_replacement(rng, 10, 10);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(Rng, SampleRejectsOversizedRequest) {
  Rng rng(31);
  EXPECT_THROW(sample_without_replacement(rng, 5, 6), PreconditionError);
}

}  // namespace
}  // namespace meda
