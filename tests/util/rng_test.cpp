#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <numeric>
#include <random>
#include <set>
#include <span>
#include <type_traits>
#include <vector>

#include "util/check.hpp"

namespace meda {
namespace {

// --- Mt19937_64 against std::mt19937_64 ------------------------------------
// The oracle is the standard library's engine, which shares no code with
// Mt19937_64.

static_assert(std::uniform_random_bit_generator<Mt19937_64>);
static_assert(std::is_same_v<Mt19937_64::result_type,
                             std::mt19937_64::result_type>);
static_assert(Mt19937_64::min() == std::mt19937_64::min() &&
              Mt19937_64::max() == std::mt19937_64::max());
static_assert(sizeof(Rng) == sizeof(std::mt19937_64));

/// Zero, one, std's default seed, Rng's default seed and all ones, plus 32
/// seeds from a fixed generator.
std::vector<std::uint64_t> engine_seeds() {
  std::vector<std::uint64_t> seeds = {0, 1, 5489, 0x9e3779b97f4a7c15ull,
                                      ~std::uint64_t{0}};
  std::minstd_rand pick(20261017);
  for (int i = 0; i < 32; ++i) {
    std::uint64_t seed = 0;
    for (int part = 0; part < 3; ++part) seed = (seed << 31) ^ pick();
    seeds.push_back(seed);
  }
  return seeds;
}

// Three full twists and 17 words into the fourth: every twist boundary,
// and the last word, whose twist wraps around to word 0.
constexpr int kEngineDraws = 3 * 312 + 17;

TEST(Rng, EngineMatchesStdMt19937_64DrawForDraw) {
  for (const std::uint64_t seed : engine_seeds()) {
    std::mt19937_64 oracle(seed);
    Mt19937_64 engine(seed);
    Rng rng(seed);
    for (int i = 0; i < kEngineDraws; ++i) {
      const std::uint64_t expected = oracle();
      ASSERT_EQ(engine(), expected) << "seed " << seed << ", draw " << i;
      ASSERT_EQ(rng.next_u64(), expected) << "seed " << seed << ", draw " << i;
    }
  }
}

TEST(Rng, EngineTenThousandthDrawIsTheStandardsValue) {
  // [rand.predef]: the 10000th consecutive invocation of a
  // default-constructed mt19937_64 produces 9981545732273789042.
  Mt19937_64 engine;
  std::uint64_t draw = 0;
  for (int i = 0; i < 10000; ++i) draw = engine();
  EXPECT_EQ(draw, 9981545732273789042ull);
}

TEST(Rng, EngineEqualityMatchesTheStandardEngines) {
  for (const std::uint64_t seed : {std::uint64_t{7}, std::uint64_t{5489}}) {
    for (const int drawn : {0, 1, 311, 312, 313, kEngineDraws}) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << ", " << drawn
                                        << " draws");
      std::mt19937_64 std_a(seed), std_b(seed);
      Mt19937_64 a(seed), b(seed);
      for (int i = 0; i < drawn; ++i) {
        std_a();
        std_b();
        a();
        b();
      }
      ASSERT_TRUE(std_a == std_b);
      EXPECT_TRUE(a == b);
      const Mt19937_64 copy = a;
      EXPECT_TRUE(copy == a);
      // One extra draw on one side.
      std_a();
      a();
      ASSERT_FALSE(std_a == std_b);
      EXPECT_FALSE(a == b);
      EXPECT_FALSE(copy == a);
      // And the same on the other: equal again.
      std_b();
      b();
      ASSERT_TRUE(std_a == std_b);
      EXPECT_TRUE(a == b);
    }
  }
  // Different seeds at the same position.
  EXPECT_FALSE(Mt19937_64(1) == Mt19937_64(2));
}

/// The Rng helpers as they were written over std::mt19937_64 (precondition
/// checks left out): the oracle for the same helpers over Mt19937_64.
class ReferenceRng {
 public:
  explicit ReferenceRng(std::uint64_t seed) : engine_(seed) {}

  ReferenceRng fork(std::uint64_t stream) {
    const std::uint64_t base = engine_();
    return ReferenceRng(mix(base ^ mix(stream)));
  }

  double uniform(double lo, double hi) {
    if (lo == hi) return lo;
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  int uniform_int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  bool bernoulli(double p) {
    p = std::clamp(p, 0.0, 1.0);
    return std::bernoulli_distribution(p)(engine_);
  }

  std::size_t categorical(std::span<const double> weights) {
    double total = 0.0;
    for (double w : weights) total += w;
    double u = uniform(0.0, total);
    for (std::size_t i = 0; i < weights.size(); ++i) {
      u -= weights[i];
      if (u <= 0.0) return i;
    }
    return weights.size() - 1;
  }

  double normal(double mean, double sd) {
    if (sd == 0.0) return mean;
    return std::normal_distribution<double>(mean, sd)(engine_);
  }

  std::uint64_t next_u64() { return engine_(); }
  std::mt19937_64& engine() { return engine_; }

 private:
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  std::mt19937_64 engine_;
};

std::vector<int> reference_sample(ReferenceRng& rng, int population, int n) {
  std::vector<int> pool(static_cast<std::size_t>(population));
  std::iota(pool.begin(), pool.end(), 0);
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int j = rng.uniform_int(i, population - 1);
    std::swap(pool[static_cast<std::size_t>(i)],
              pool[static_cast<std::size_t>(j)]);
    out.push_back(pool[static_cast<std::size_t>(i)]);
  }
  return out;
}

TEST(Rng, HelpersMatchTheStdEngineReference) {
  // A long mixed call sequence, chosen by a generator of its own: every
  // helper result and the stream left behind must equal the reference's.
  for (const std::uint64_t seed :
       {std::uint64_t{1}, std::uint64_t{42}, std::uint64_t{5489},
        std::uint64_t{0x9e3779b97f4a7c15ull}}) {
    Rng rng(seed);
    ReferenceRng ref(seed);
    std::minstd_rand pick(static_cast<std::minstd_rand::result_type>(seed));
    const auto choose = [&pick](int n) {
      return static_cast<int>(pick() % static_cast<unsigned>(n));
    };
    for (int step = 0; step < 4000; ++step) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << ", step "
                                        << step);
      switch (choose(9)) {
        case 0: {
          const double lo = choose(200) - 100.0;
          const double hi = lo + choose(3) * 0.75;  // includes lo == hi
          ASSERT_EQ(rng.uniform(lo, hi), ref.uniform(lo, hi));
          break;
        }
        case 1: {
          const int lo = choose(2001) - 1000;
          const int hi = choose(4) == 0
                             ? std::numeric_limits<int>::max()
                             : lo + choose(300);
          ASSERT_EQ(rng.uniform_int(lo, hi), ref.uniform_int(lo, hi));
          break;
        }
        case 2: {
          const double p = choose(13) / 10.0 - 0.1;  // -0.1 .. 1.1, clamped
          ASSERT_EQ(rng.bernoulli(p), ref.bernoulli(p));
          break;
        }
        case 3: {
          std::vector<double> weights(1 + static_cast<std::size_t>(choose(6)));
          for (double& w : weights) w = choose(4) * 0.5;
          weights[static_cast<std::size_t>(choose(
              static_cast<int>(weights.size())))] = 1.25;
          ASSERT_EQ(rng.categorical(weights), ref.categorical(weights));
          break;
        }
        case 4: {
          const double mean = choose(21) - 10.0;
          const double sd = choose(4) * 0.5;  // includes sd == 0
          ASSERT_EQ(rng.normal(mean, sd), ref.normal(mean, sd));
          break;
        }
        case 5: {
          const std::uint64_t stream = pick();
          Rng child = rng.fork(stream);
          ReferenceRng ref_child = ref.fork(stream);
          for (int i = 0; i < 8; ++i)
            ASSERT_EQ(child.next_u64(), ref_child.next_u64());
          break;
        }
        case 6: {
          const int population = choose(200);
          const int n = population == 0 ? 0 : choose(population + 1);
          ASSERT_EQ(sample_without_replacement(rng, population, n),
                    reference_sample(ref, population, n));
          break;
        }
        case 7: {
          std::vector<int> order(static_cast<std::size_t>(choose(100)));
          std::iota(order.begin(), order.end(), 0);
          std::vector<int> ref_order = order;
          std::shuffle(order.begin(), order.end(), rng.engine());
          std::shuffle(ref_order.begin(), ref_order.end(), ref.engine());
          ASSERT_EQ(order, ref_order);
          break;
        }
        default:
          ASSERT_EQ(rng.next_u64(), ref.next_u64());
          break;
      }
    }
    // The stream left behind: two full twists' worth of draws.
    for (int i = 0; i < 2 * 312; ++i)
      ASSERT_EQ(rng.next_u64(), ref.next_u64()) << "seed " << seed;
  }
}

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
