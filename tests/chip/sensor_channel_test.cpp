#include "chip/sensor_channel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "reference_readout.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace meda {
namespace {

IntMatrix random_health(int w, int h, int bits, Rng& rng) {
  IntMatrix health(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      health(x, y) = rng.uniform_int(0, (1 << bits) - 1);
  return health;
}

TEST(SensorChannel, DefaultConstructedIsTransparent) {
  SensorChannel channel;
  Rng rng(1);
  const IntMatrix truth = random_health(6, 4, 2, rng);
  EXPECT_EQ(channel.read(truth, rng), truth);
  EXPECT_EQ(channel.bits_flipped(), 0u);
  EXPECT_EQ(channel.frames_dropped(), 0u);
}

TEST(SensorChannel, NoiselessChannelIsLossless) {
  // A constructed channel with zero noise still builds every read code from
  // the frame in scan order — the frame must come through unchanged.
  Rng rng(2);
  SensorChannel channel(SensorNoiseConfig{}, 8, 5, 3, rng.fork(1));
  for (int i = 0; i < 5; ++i) {
    const IntMatrix truth = random_health(8, 5, 3, rng);
    EXPECT_EQ(channel.read(truth, rng), truth);
  }
  EXPECT_EQ(channel.frames_read(), 5u);
  EXPECT_EQ(channel.bits_flipped(), 0u);
  EXPECT_EQ(channel.stuck_bits(), 0);
}

TEST(SensorChannel, RejectsBadProbabilities) {
  Rng rng(3);
  SensorNoiseConfig config;
  config.bit_flip_p = 1.5;
  EXPECT_THROW(SensorChannel(config, 4, 4, 2, rng.fork(1)),
               PreconditionError);
  config = SensorNoiseConfig{};
  config.frame_drop_p = 1.0;  // would starve the reader forever
  EXPECT_THROW(SensorChannel(config, 4, 4, 2, rng.fork(2)),
               PreconditionError);
  config = SensorNoiseConfig{};
  config.stuck_fraction = -0.1;
  EXPECT_THROW(SensorChannel(config, 4, 4, 2, rng.fork(3)),
               PreconditionError);
}

TEST(SensorChannel, RejectsMismatchedFrame) {
  Rng rng(4);
  SensorChannel channel(SensorNoiseConfig{}, 4, 3, 2, rng.fork(1));
  EXPECT_THROW(channel.read(IntMatrix(5, 3, 0), rng), PreconditionError);
}

TEST(SensorChannel, BitFlipsCorruptTheFrame) {
  Rng rng(5);
  SensorNoiseConfig config;
  config.bit_flip_p = 0.5;
  SensorChannel channel(config, 20, 10, 2, rng.fork(1));
  const IntMatrix truth(20, 10, 0);
  const IntMatrix seen = channel.read(truth, rng);
  EXPECT_NE(seen, truth);  // 400 bits at p = 0.5: all-clean is impossible
  EXPECT_GT(channel.bits_flipped(), 0u);
}

TEST(SensorChannel, StuckBitsArePersistentAcrossReads) {
  Rng rng(6);
  SensorNoiseConfig config;
  config.stuck_fraction = 0.25;
  SensorChannel channel(config, 10, 10, 3, rng.fork(1));
  EXPECT_EQ(channel.stuck_bits(), 75);  // 25% of 10*10*3 positions
  const IntMatrix truth(10, 10, 0);
  const IntMatrix r1 = channel.read(truth, rng);
  const IntMatrix r2 = channel.read(truth, rng);
  EXPECT_EQ(r1, r2);     // the defect pattern is frozen at construction
  EXPECT_NE(r1, truth);  // stuck-at-1 bits must surface over all-zero truth
}

TEST(SensorChannel, StuckBitsHoldTheirLevel) {
  // Without flips, a stuck-at-1 DFF sets its bit over an all-zero frame and
  // a stuck-at-0 DFF clears it under an all-max frame. Each stuck DFF does
  // exactly one of the two, and no other bit moves.
  Rng rng(7);
  SensorNoiseConfig config;
  config.stuck_fraction = 0.3;
  const int bits = 2;
  const int max_code = (1 << bits) - 1;
  SensorChannel channel(config, 12, 8, bits, rng.fork(1));
  const IntMatrix zeros = channel.read(IntMatrix(12, 8, 0), rng);
  const IntMatrix maxed = channel.read(IntMatrix(12, 8, max_code), rng);
  int stuck_at_one = 0;
  int stuck_at_zero = 0;
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 12; ++x) {
      const auto set = static_cast<unsigned>(zeros(x, y));
      const auto cleared = static_cast<unsigned>(max_code - maxed(x, y));
      EXPECT_EQ(set & cleared, 0u) << x << "," << y;
      stuck_at_one += std::popcount(set);
      stuck_at_zero += std::popcount(cleared);
    }
  }
  EXPECT_EQ(stuck_at_one + stuck_at_zero, channel.stuck_bits());
  EXPECT_GT(stuck_at_one, 0);
  EXPECT_GT(stuck_at_zero, 0);
}

TEST(SensorChannel, FrameDropServesTheStaleFrame) {
  Rng rng(8);
  SensorNoiseConfig config;
  config.frame_drop_p = 0.9;
  SensorChannel channel(config, 6, 4, 2, rng.fork(1));
  const IntMatrix first(6, 4, 3);
  // The very first read is never dropped: there is nothing stale to serve.
  EXPECT_EQ(channel.read(first, rng), first);
  EXPECT_EQ(channel.frames_dropped(), 0u);
  EXPECT_EQ(channel.staleness(), 0u);

  const IntMatrix changed(6, 4, 1);
  IntMatrix prev = first;
  std::uint64_t dropped = 0;
  for (int i = 0; i < 30; ++i) {
    const IntMatrix seen = channel.read(changed, rng);
    if (channel.frames_dropped() > dropped) {
      dropped = channel.frames_dropped();
      EXPECT_EQ(seen, prev);  // a dropped read re-serves the stale frame
    } else {
      EXPECT_EQ(seen, changed);
    }
    prev = seen;
  }
  EXPECT_GT(dropped, 0u);  // P(no drop in 30 reads at 0.9) ≈ 1e-30
}

TEST(SensorChannel, DeterministicPerSeed) {
  SensorNoiseConfig config;
  config.bit_flip_p = 0.05;
  config.stuck_fraction = 0.1;
  config.frame_drop_p = 0.2;
  auto sequence = [&config]() {
    Rng rng(99);
    SensorChannel channel(config, 9, 7, 2, rng.fork(1));
    std::vector<IntMatrix> frames;
    Rng truth_rng(5);
    for (int i = 0; i < 10; ++i)
      frames.push_back(channel.read(random_health(9, 7, 2, truth_rng), rng));
    return frames;
  };
  EXPECT_EQ(sequence(), sequence());
}

TEST(SensorChannel, MatchesTheThreeStepReadout) {
  // Every channel shape and noise mode against the reference readout
  // (scan_out_health, per-position stuck forcing and flips at geometric
  // gaps, scan_in_health): equal frames, equal statistics, and an equal
  // random stream after every read.
  constexpr std::array<double, 4> kFlip = {0.0, 1e-3, 0.3, 1.0};
  // At a stuck fraction of 1 every DFF is stuck: a read takes its drop draw
  // and, when 0 < p < 1, the one flip draw that ends the frame.
  constexpr std::array<double, 3> kStuck = {0.0, 0.2, 1.0};
  constexpr std::array<double, 2> kDrop = {0.0, 0.3};
  Rng shapes(2024);
  int reads = 0;
  for (const double flip : kFlip) {
    for (const double stuck : kStuck) {
      for (const double drop : kDrop) {
        for (int trial = 0; trial < 12; ++trial) {
          const int w = shapes.uniform_int(1, 12);
          const int h = shapes.uniform_int(1, 12);
          const int bits = shapes.uniform_int(1, 4);
          SensorNoiseConfig config;
          config.bit_flip_p = flip;
          config.stuck_fraction = stuck;
          config.frame_drop_p = drop;
          const std::uint64_t seed = shapes.next_u64();
          SensorChannel channel(config, w, h, bits, Rng(seed));
          reference::ReadoutChannel oracle(config, w, h, bits, Rng(seed));
          Rng rng(seed + 1);
          Rng oracle_rng(seed + 1);
          Rng truth_rng(seed + 2);
          for (int i = 0; i < 6; ++i) {
            SCOPED_TRACE(::testing::Message()
                         << w << "x" << h << "x" << bits << " flip " << flip
                         << " stuck " << stuck << " drop " << drop << " read "
                         << i);
            const IntMatrix truth = random_health(w, h, bits, truth_rng);
            ASSERT_EQ(channel.read(truth, rng),
                      oracle.read(truth, oracle_rng));
            ASSERT_EQ(channel.bits_flipped(), oracle.bits_flipped());
            ASSERT_EQ(channel.frames_dropped(), oracle.frames_dropped());
            ASSERT_EQ(channel.staleness(), oracle.staleness());
            ASSERT_TRUE(rng.engine() == oracle_rng.engine());
            ++reads;
          }
        }
      }
    }
  }
  EXPECT_EQ(reads, 4 * 3 * 2 * 12 * 6);
}

TEST(SensorChannel, MatchesTheThreeStepReadoutAtTheProductionShape) {
  // The hybrid_noisy scan chain: 60x30 cells of 2 bits, flip 1e-3, 2% of
  // frames dropped; without stuck DFFs and with 5% of them stuck. The truth
  // is drawn afresh for every read, or, as on a chip, worn in up to three
  // cells per read, with a frame mid-stream that the scan width rejects.
  constexpr int kRejectedRead = 20;
  for (const bool wearing : {false, true}) {
    for (const double stuck : {0.0, 0.05}) {
      SensorNoiseConfig config;
      config.bit_flip_p = 1e-3;
      config.stuck_fraction = stuck;
      config.frame_drop_p = 0.02;
      SensorChannel channel(config, 60, 30, 2, Rng(77));
      reference::ReadoutChannel oracle(config, 60, 30, 2, Rng(77));
      EXPECT_EQ(channel.stuck_bits(), stuck == 0.0 ? 0 : 180);
      Rng rng(78);
      Rng oracle_rng(78);
      Rng truth_rng(79);
      IntMatrix truth;
      for (int i = 0; i < 50; ++i) {
        SCOPED_TRACE(::testing::Message() << "wearing " << wearing
                                          << " stuck " << stuck << " read "
                                          << i);
        if (!wearing || i == 0) {
          truth = random_health(60, 30, 2, truth_rng);
        } else {
          for (int k = truth_rng.uniform_int(0, 3); k > 0; --k) {
            const int x = truth_rng.uniform_int(0, 59);
            const int y = truth_rng.uniform_int(0, 29);
            truth(x, y) = std::max(0, truth(x, y) - 1);
          }
        }
        if (wearing && i == kRejectedRead) {
          // Both sides take the drop draw, then reject the frame; the next
          // read diffs against the truth accepted before it.
          IntMatrix bad = truth;
          bad(31, 17) = 4;
          const std::uint64_t flipped = channel.bits_flipped();
          EXPECT_THROW(channel.read(bad, rng), PreconditionError);
          EXPECT_THROW(oracle.read(bad, oracle_rng), PreconditionError);
          ASSERT_TRUE(rng.engine() == oracle_rng.engine());
          EXPECT_EQ(channel.bits_flipped(), flipped);
        }
        ASSERT_EQ(channel.read(truth, rng), oracle.read(truth, oracle_rng));
        ASSERT_EQ(channel.bits_flipped(), oracle.bits_flipped());
        ASSERT_EQ(channel.frames_dropped(), oracle.frames_dropped());
        ASSERT_EQ(channel.staleness(), oracle.staleness());
        ASSERT_TRUE(rng.engine() == oracle_rng.engine());
      }
      // About 180 flips are expected over 50 reads of 3600 bits at 1e-3.
      EXPECT_GT(channel.bits_flipped(), 0u);
    }
  }
}

TEST(SensorChannel, RejectedFrameLeavesTheChannelUntouched) {
  SensorNoiseConfig config;
  config.bit_flip_p = 0.3;
  config.stuck_fraction = 0.2;
  config.frame_drop_p = 0.5;
  Rng rng(12);
  SensorChannel channel(config, 7, 5, 2, rng.fork(1));
  const IntMatrix first = channel.read(random_health(7, 5, 2, rng), rng);
  // Advances the stream to where the next drop draw decides `drop`.
  const auto steer = [&rng, &config](bool drop) {
    for (Rng probe = rng; probe.bernoulli(config.frame_drop_p) != drop;
         probe = rng) {
      rng.next_u64();
    }
  };
  IntMatrix too_wide = random_health(7, 5, 2, rng);
  too_wide(6, 4) = 4;  // the last cell in scan order
  IntMatrix negative = random_health(7, 5, 2, rng);
  negative(0, 0) = -1;
  const std::uint64_t flipped = channel.bits_flipped();
  for (const IntMatrix& bad : {too_wide, negative}) {
    steer(false);
    Rng expected = rng;
    expected.next_u64();  // the drop draw, and no flip draw after it
    EXPECT_THROW(channel.read(bad, rng), PreconditionError);
    EXPECT_TRUE(rng.engine() == expected.engine());
    EXPECT_EQ(channel.bits_flipped(), flipped);
  }
  // A dropped read re-serves the last frame: it is the first read's.
  steer(true);
  EXPECT_EQ(channel.read(IntMatrix(7, 5, 0), rng), first);
  EXPECT_EQ(channel.frames_dropped(), 1u);
  EXPECT_EQ(channel.staleness(), 1u);
}

// --- Statistical oracle for the flip sampler ---------------------------------
// The tests below look only at frames, channel counters and engine state, and
// share no code or formula with the sampler: a flip is a bit in which a noisy
// read differs from a read of the same frame through a twin channel at
// bit_flip_p = 0, built from the same construction stream and so with the
// same stuck DFFs. Every case is seeded and deterministic; its bounds are
// 0.999 quantiles.

constexpr int kScanW = 60;  // the production scan chain: 60x30 cells of 2 bits
constexpr int kScanH = 30;
constexpr int kScanBits = 2;
constexpr std::size_t kScanPositions = kScanW * kScanH * kScanBits;
constexpr double kZ999 = 3.090232306167813;    // one-sided normal 0.999
constexpr double kZ999Two = 3.290526731491926;  // two-sided normal 0.999

/// Upper 0.999 quantile of chi-square with @p df degrees of freedom
/// (Wilson-Hilferty; a little above the exact value at small df).
double chi_square_999(int df) {
  const double v = 2.0 / (9.0 * df);
  return df * std::pow(1.0 - v + kZ999 * std::sqrt(v), 3.0);
}

/// Pearson's statistic of @p observed against @p expected, bins merged left
/// to right until each expects at least 5 (a short tail joins the last bin).
/// Returns the statistic and its degrees of freedom (merged bins - 1).
std::pair<double, int> chi_square(const std::vector<double>& observed,
                                  const std::vector<double>& expected) {
  std::vector<std::pair<double, double>> bins;  // (observed, expected)
  double obs = 0.0;
  double exp = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    obs += observed[i];
    exp += expected[i];
    if (exp >= 5.0) {
      bins.emplace_back(obs, exp);
      obs = exp = 0.0;
    }
  }
  if (bins.empty()) return {0.0, 0};
  bins.back().first += obs;
  bins.back().second += exp;
  double stat = 0.0;
  for (const auto& [o, e] : bins) stat += (o - e) * (o - e) / e;
  return {stat, static_cast<int>(bins.size()) - 1};
}

/// Scan position of bit @p bit of code @p cell (row-major, LSB first).
std::size_t scan_position(std::size_t cell, int bit) {
  return cell * kScanBits + static_cast<std::size_t>(bit);
}

/// A production-shape channel with flip probability p beside its flip-free
/// twin. Frames are never dropped, so a read takes flip draws only.
class FlipProbe {
 public:
  FlipProbe(double p, double stuck_fraction, std::uint64_t seed)
      : noisy_(config(p, stuck_fraction), kScanW, kScanH, kScanBits,
               Rng(seed)),
        clean_(config(0.0, stuck_fraction), kScanW, kScanH, kScanBits,
               Rng(seed)),
        rng_(seed + 1),
        truth_rng_(seed + 2) {
    // Stuck-at-1 DFFs read 1 under an all-zero frame, stuck-at-0 DFFs read
    // 0 under an all-ones frame.
    const IntMatrix zeros =
        clean_.read(IntMatrix(kScanW, kScanH, 0), clean_rng_);
    const IntMatrix ones = clean_.read(
        IntMatrix(kScanW, kScanH, (1 << kScanBits) - 1), clean_rng_);
    stuck_.assign(kScanPositions, false);
    for (std::size_t c = 0; c < zeros.size(); ++c) {
      for (int b = 0; b < kScanBits; ++b) {
        const bool high = ((zeros.data()[c] >> b) & 1) != 0;
        const bool low = ((ones.data()[c] >> b) & 1) == 0;
        stuck_[scan_position(c, b)] = high || low;
      }
    }
  }

  /// Reads a fresh random frame and returns its flip mask by scan position.
  /// Also checks the channel's flip counter against the mask and, when
  /// @p check_draws is set, that the read took one draw per flip plus one.
  std::vector<bool> read(bool check_draws = false) {
    const IntMatrix truth =
        random_health(kScanW, kScanH, kScanBits, truth_rng_);
    const Rng before = rng_;
    const std::uint64_t counted = noisy_.bits_flipped();
    const IntMatrix seen = noisy_.read(truth, rng_);
    const IntMatrix base = clean_.read(truth, clean_rng_);
    std::vector<bool> mask(kScanPositions, false);
    std::size_t flips = 0;
    for (std::size_t c = 0; c < seen.size(); ++c) {
      const int diff = seen.data()[c] ^ base.data()[c];
      for (int b = 0; b < kScanBits; ++b) {
        if (((diff >> b) & 1) == 0) continue;
        mask[scan_position(c, b)] = true;
        ++flips;
      }
    }
    EXPECT_EQ(noisy_.bits_flipped() - counted, flips);
    if (check_draws) {
      Rng expected = before;
      for (std::size_t i = 0; i <= flips; ++i) expected.next_u64();
      EXPECT_TRUE(expected.engine() == rng_.engine())
          << "a read takes one draw per flip plus one";
    }
    return mask;
  }

  /// The noisy channel's generator, as it stands.
  Rng rng() const { return rng_; }
  /// Stuck scan positions, found from the twin's reads.
  const std::vector<bool>& stuck() const { return stuck_; }
  std::size_t free_bits() const {
    std::size_t n = 0;
    for (const bool s : stuck_) n += s ? 0 : 1;
    return n;
  }

 private:
  static SensorNoiseConfig config(double p, double stuck_fraction) {
    SensorNoiseConfig config;
    config.bit_flip_p = p;
    config.stuck_fraction = stuck_fraction;
    return config;
  }

  SensorChannel noisy_;
  SensorChannel clean_;
  Rng rng_;
  Rng truth_rng_;
  Rng clean_rng_{0};  // the twin reads without a draw
  std::vector<bool> stuck_;
};

std::size_t count(const std::vector<bool>& mask) {
  std::size_t n = 0;
  for (const bool bit : mask) n += bit ? 1 : 0;
  return n;
}

TEST(SensorChannel, FlipCountPerFrameIsBinomial) {
  // Binomial(n_free, p) per frame, chi-square over the count's bins, with
  // one case of 5% stuck DFFs so that n_free < n.
  struct Case {
    double p;
    double stuck;
  };
  constexpr int kFrames = 2000;
  std::uint64_t seed = 1000;
  for (const Case c : {Case{1e-3, 0.0}, Case{0.05, 0.0}, Case{0.3, 0.0},
                       Case{0.05, 0.05}}) {
    SCOPED_TRACE(::testing::Message() << "p " << c.p << " stuck " << c.stuck);
    FlipProbe probe(c.p, c.stuck, seed++);
    const std::size_t n = probe.free_bits();
    EXPECT_EQ(n, c.stuck == 0.0 ? kScanPositions : kScanPositions - 180);
    std::vector<double> observed(n + 1, 0.0);
    for (int f = 0; f < kFrames; ++f) observed[count(probe.read(true))] += 1;
    std::vector<double> expected(n + 1);
    const double nd = static_cast<double>(n);
    for (std::size_t k = 0; k <= n; ++k) {
      const double kd = static_cast<double>(k);
      const double log_pmf = std::lgamma(nd + 1) - std::lgamma(kd + 1) -
                             std::lgamma(nd - kd + 1) + kd * std::log(c.p) +
                             (nd - kd) * std::log1p(-c.p);
      expected[k] = kFrames * std::exp(log_pmf);
    }
    const auto [stat, df] = chi_square(observed, expected);
    ASSERT_GE(df, 4);
    EXPECT_LT(stat, chi_square_999(df)) << "df " << df;
  }
}

TEST(SensorChannel, FlipPositionsAreUniformOverTheFreeBits) {
  // 36 buckets of consecutive non-stuck scan positions, chi-square against
  // equal shares of the flips.
  constexpr int kFrames = 2000;
  constexpr std::size_t kBuckets = 36;
  FlipProbe probe(0.05, 0.05, 2024);
  std::vector<double> per_position(kScanPositions, 0.0);
  for (int f = 0; f < kFrames; ++f) {
    const std::vector<bool> mask = probe.read();
    for (std::size_t i = 0; i < kScanPositions; ++i)
      per_position[i] += mask[i] ? 1.0 : 0.0;
  }
  const std::size_t n = probe.free_bits();
  std::vector<double> observed(kBuckets, 0.0);
  std::vector<double> size(kBuckets, 0.0);
  std::size_t rank = 0;
  double total = 0.0;
  for (std::size_t i = 0; i < kScanPositions; ++i) {
    if (probe.stuck()[i]) continue;
    const std::size_t bucket = rank++ * kBuckets / n;
    observed[bucket] += per_position[i];
    size[bucket] += 1.0;
    total += per_position[i];
  }
  std::vector<double> expected(kBuckets);
  for (std::size_t b = 0; b < kBuckets; ++b)
    expected[b] = total * size[b] / static_cast<double>(n);
  const auto [stat, df] = chi_square(observed, expected);
  ASSERT_EQ(df, static_cast<int>(kBuckets) - 1);
  EXPECT_LT(stat, chi_square_999(df));
}

TEST(SensorChannel, StuckBitsNeverFlip) {
  for (const double p : {0.3, 1.0}) {
    FlipProbe probe(p, 0.2, 7);
    ASSERT_EQ(probe.free_bits(), kScanPositions - 720);
    std::size_t flips = 0;
    for (int f = 0; f < 200; ++f) {
      const std::vector<bool> mask = probe.read();
      for (std::size_t i = 0; i < kScanPositions; ++i) {
        if (probe.stuck()[i]) {
          ASSERT_FALSE(mask[i]) << "position " << i;
        }
      }
      flips += count(mask);
    }
    EXPECT_GT(flips, 0u);
  }
}

TEST(SensorChannel, AdjacentBitsAndSuccessiveFramesFlipIndependently) {
  // Adjacent scan positions: the joint flips of k and k + 1 against
  // n p^2, with the variance of overlapping pairs. Successive frames: the
  // correlation of their flip counts against 0.
  constexpr int kFrames = 2000;
  constexpr double kP = 0.05;
  FlipProbe probe(kP, 0.0, 99);
  double joint = 0.0;
  std::vector<double> counts;
  for (int f = 0; f < kFrames; ++f) {
    const std::vector<bool> mask = probe.read();
    for (std::size_t i = 0; i + 1 < kScanPositions; ++i)
      joint += (mask[i] && mask[i + 1]) ? 1.0 : 0.0;
    counts.push_back(static_cast<double>(count(mask)));
  }
  const double pairs = static_cast<double>(kFrames) * (kScanPositions - 1);
  const double p2 = kP * kP;
  const double sd =
      std::sqrt(pairs * (p2 * (1.0 - p2) + 2.0 * (p2 * kP - p2 * p2)));
  EXPECT_LT(std::abs(joint - pairs * p2), kZ999Two * sd)
      << joint << " joint flips, " << pairs * p2 << " expected";

  double mean = 0.0;
  for (const double c : counts) mean += c;
  mean /= kFrames;
  double cov = 0.0;
  double var = 0.0;
  for (int f = 0; f < kFrames; ++f) {
    const double d = counts[static_cast<std::size_t>(f)] - mean;
    var += d * d;
    if (f + 1 < kFrames)
      cov += d * (counts[static_cast<std::size_t>(f + 1)] - mean);
  }
  ASSERT_GT(var, 0.0);
  EXPECT_LT(std::abs(cov / var), kZ999Two / std::sqrt(kFrames - 1.0));
}

TEST(SensorChannel, CertainFlipProbabilitiesTakeNoDraw) {
  // p = 0 flips nothing and p = 1 flips every non-stuck bit; neither moves
  // the engine.
  for (const double p : {0.0, 1.0}) {
    FlipProbe probe(p, 0.05, 5);
    for (int f = 0; f < 20; ++f) {
      Rng before = probe.rng();
      const std::vector<bool> mask = probe.read();
      ASSERT_TRUE(probe.rng().engine() == before.engine()) << "p " << p;
      for (std::size_t i = 0; i < kScanPositions; ++i)
        ASSERT_EQ(mask[i], p == 1.0 && !probe.stuck()[i]) << "p " << p;
    }
  }
}

TEST(SensorChannel, ExtremeFlipProbabilitiesStayInRange) {
  // The smallest p make gaps far beyond the chain (+inf at denorm_min) and
  // flip nothing; the largest p below 1 flips every non-stuck bit.
  constexpr int kFrames = 1000;
  for (const double p : {std::numeric_limits<double>::denorm_min(), 1e-12,
                         std::nextafter(1.0, 0.0)}) {
    SCOPED_TRACE(::testing::Message() << "p " << p);
    FlipProbe probe(p, 0.05, 13);
    const bool all = p > 0.5;
    for (int f = 0; f < kFrames; ++f) {
      const std::vector<bool> mask = probe.read(true);
      for (std::size_t i = 0; i < kScanPositions; ++i)
        ASSERT_EQ(mask[i], all && !probe.stuck()[i]) << "frame " << f;
    }
  }
}

}  // namespace
}  // namespace meda
