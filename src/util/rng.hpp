#pragma once

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

/// Seeded pseudo-random source with the distribution helpers used throughout
/// the library. Wraps std::mt19937_64.
class Rng {
 public:
  /// Constructs a generator from a 64-bit seed.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) : engine_(seed) {}

  /// Returns an independent child generator. The child seed mixes this
  /// generator's seed-stream with @p stream so distinct streams are decorrelated
  /// without consuming numbers from this generator's sequence in a way that
  /// depends on call order elsewhere.
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

  /// Raw 64-bit draw (used for seeding sub-components).
  std::uint64_t next_u64() { return engine_(); }

  /// Underlying engine access for std:: distributions and std::shuffle.
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// Bernoulli trial with a fixed p, exact to the stream: each trial takes one
/// next_u64() and returns what Rng::bernoulli(p) returns from the same
/// engine state, at the cost of one integer compare.
///
/// std::bernoulli_distribution(p) on std::mt19937_64 decides a trial from a
/// single draw x through generate_canonical<double, 53>, i.e. on
/// double(x) / 2^64 < p, and succeeds on every draw when p = 1. That decision
/// is monotone in x, so it is x < K for a threshold K, found once by
/// bisection over the standard distribution's own decision.
class FixedBernoulli {
 public:
  /// Requires p in [0, 1].
  explicit FixedBernoulli(double p = 0.0);

  /// One trial; consumes exactly one draw, also when p is 0 or 1.
  bool operator()(Rng& rng) const {
    return (rng.next_u64() < threshold_) | certain_;
  }

  /// K: the draws below it succeed (every draw succeeds when p = 1).
  std::uint64_t threshold() const { return threshold_; }

 private:
  std::uint64_t threshold_ = 0;
  bool certain_ = false;
};

/// Returns @p n distinct integers drawn uniformly from [0, population).
/// Requires n <= population. Result is in random order.
std::vector<int> sample_without_replacement(Rng& rng, int population, int n);

}  // namespace meda
