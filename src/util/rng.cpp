#include "util/rng.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace meda {

namespace {

/// splitmix64 finalizer — decorrelates related seeds.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

Mt19937_64::Mt19937_64(result_type seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateSize; ++i) {
    const result_type prev = state_[i - 1];
    state_[i] = 6364136223846793005ull * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::twist() {
  // n = 312, m = 156, r = 31. Word k takes the top 33 bits of word k and the
  // low 31 of word k + 1 (mod n); the matrix term is all-ones-masked by the
  // low bit of that word instead of chosen by a branch on it.
  constexpr std::size_t kShift = 156;
  constexpr result_type kUpper = ~result_type{0} << 31;
  constexpr result_type kLower = ~kUpper;
  constexpr result_type kMatrix = 0xb5026f5aa96619e9ull;
  const auto mixed = [](result_type upper, result_type lower) {
    const result_type y = (upper & kUpper) | (lower & kLower);
    return (y >> 1) ^ ((result_type{0} - (y & 1)) & kMatrix);
  };
  std::size_t k = 0;
  for (; k < kStateSize - kShift; ++k)
    state_[k] = state_[k + kShift] ^ mixed(state_[k], state_[k + 1]);
  for (; k < kStateSize - 1; ++k) {
    state_[k] = state_[k + kShift - kStateSize] ^
                mixed(state_[k], state_[k + 1]);
  }
  state_[k] = state_[kShift - 1] ^ mixed(state_[k], state_[0]);
  pos_ = 0;
}

Rng Rng::fork(std::uint64_t stream) {
  const std::uint64_t base = engine_();
  return Rng(mix(base ^ mix(stream)));
}

double Rng::uniform(double lo, double hi) {
  MEDA_REQUIRE(lo <= hi, "uniform bounds out of order");
  if (lo == hi) return lo;
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

int Rng::uniform_int(int lo, int hi) {
  MEDA_REQUIRE(lo <= hi, "uniform_int bounds out of order");
  return std::uniform_int_distribution<int>(lo, hi)(engine_);
}

bool Rng::bernoulli(double p) {
  p = std::clamp(p, 0.0, 1.0);
  return std::bernoulli_distribution(p)(engine_);
}

std::size_t Rng::categorical(std::span<const double> weights) {
  MEDA_REQUIRE(!weights.empty(), "categorical needs at least one weight");
  double total = 0.0;
  for (double w : weights) {
    MEDA_REQUIRE(w >= 0.0, "categorical weights must be non-negative");
    total += w;
  }
  MEDA_REQUIRE(total > 0.0, "categorical needs a positive total weight");
  double u = uniform(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u <= 0.0) return i;
  }
  return weights.size() - 1;  // numeric slack: fall back to the last bucket
}

double Rng::normal(double mean, double sd) {
  MEDA_REQUIRE(sd >= 0.0, "normal sd must be non-negative");
  if (sd == 0.0) return mean;
  return std::normal_distribution<double>(mean, sd)(engine_);
}

std::vector<int> sample_without_replacement(Rng& rng, int population, int n) {
  MEDA_REQUIRE(population >= 0 && n >= 0 && n <= population,
               "sample size exceeds population");
  // Partial Fisher–Yates: O(population) memory, O(population + n) time.
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

}  // namespace meda
