#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

/// @file rng.hpp
/// Deterministic, forkable random number generation.
///
/// Every stochastic component in the library (degradation sampling, fault
/// injection, actuation-outcome sampling, experiment trial seeding) draws from
/// an explicitly passed Rng so that all experiments are reproducible from a
/// single master seed.

namespace meda {

/// MT19937-64 with std::mt19937_64's seeding, twist and tempering, so it
/// yields std::mt19937_64's stream for every seed (tests/util/rng_test.cpp
/// holds it to that draw for draw). The twist picks its matrix term with a
/// mask where libstdc++ branches on the low bit of a random word, a jump
/// that mispredicts on about half of all generated words.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  /// Seeds as std::mt19937_64(seed) does; 5489 is its default seed.
  explicit Mt19937_64(result_type seed = 5489u);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (pos_ >= kStateSize) twist();
    result_type z = state_[pos_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71d67fffeda60000ull;
    z ^= (z << 37) & 0xfff7eee000000000ull;
    return z ^ (z >> 43);
  }

  /// Equal state words and position, as std::mersenne_twister_engine's ==.
  friend bool operator==(const Mt19937_64&, const Mt19937_64&) = default;

 private:
  static constexpr std::size_t kStateSize = 312;

  /// Regenerates all kStateSize words and rewinds the position.
  void twist();

  std::array<result_type, kStateSize> state_;
  std::size_t pos_ = kStateSize;
};

/// Seeded pseudo-random source with the distribution helpers used throughout
/// the library. Wraps Mt19937_64.
class Rng {
 public:
  /// Constructs a generator from a 64-bit seed.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) : engine_(seed) {}

  /// Returns a child generator seeded from one draw of this generator mixed
  /// with @p stream, so distinct streams are decorrelated. The fork takes
  /// that draw: the child depends on how far this generator has advanced,
  /// and this generator moves one draw on. SimulatedChip forks its sensing
  /// streams only under sensor noise for exactly that reason.
  Rng fork(std::uint64_t stream);

  /// Uniform real in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);

  /// Uniform integer in the inclusive range [lo, hi]. Requires lo <= hi.
  int uniform_int(int lo, int hi);

  /// Bernoulli trial; p is clamped to [0, 1].
  bool bernoulli(double p);

  /// Samples an index from an unnormalized non-negative weight vector.
  /// Requires at least one strictly positive weight.
  std::size_t categorical(std::span<const double> weights);

  /// Standard normal variate scaled to N(mean, sd).
  double normal(double mean, double sd);

  /// Raw 64-bit draw (seeding sub-components, the scan chain's flip gaps).
  std::uint64_t next_u64() { return engine_(); }

  /// Underlying engine access for std:: distributions and std::shuffle.
  Mt19937_64& engine() { return engine_; }

 private:
  Mt19937_64 engine_;
};

/// Returns @p n distinct integers drawn uniformly from [0, population).
/// Requires n <= population. Result is in random order.
std::vector<int> sample_without_replacement(Rng& rng, int population, int n);

}  // namespace meda
