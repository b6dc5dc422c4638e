#include "chip/sensor_channel.hpp"

#include <gtest/gtest.h>

#include <array>
#include <limits>

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
  // Rng::bernoulli would clamp a share above 1 silently.
  config = SensorNoiseConfig{};
  config.stuck_at_one_share = 1.5;
  EXPECT_THROW(SensorChannel(config, 4, 4, 2, rng.fork(4)),
               PreconditionError);
  config.stuck_at_one_share = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(SensorChannel(config, 4, 4, 2, rng.fork(5)),
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
  config.stuck_at_one_share = 1.0;  // all stuck-at-1
  SensorChannel channel(config, 10, 10, 3, rng.fork(1));
  EXPECT_EQ(channel.stuck_bits(), 75);  // 25% of 10*10*3 positions
  const IntMatrix truth(10, 10, 0);
  const IntMatrix r1 = channel.read(truth, rng);
  const IntMatrix r2 = channel.read(truth, rng);
  EXPECT_EQ(r1, r2);     // the defect pattern is frozen at construction
  EXPECT_NE(r1, truth);  // stuck-at-1 bits must surface over all-zero truth
}

TEST(SensorChannel, StuckAtZeroOnlyPullsReadingsDown) {
  Rng rng(7);
  SensorNoiseConfig config;
  config.stuck_fraction = 0.3;
  config.stuck_at_one_share = 0.0;  // all stuck-at-0
  const int bits = 2;
  SensorChannel channel(config, 12, 8, bits, rng.fork(1));
  const IntMatrix truth(12, 8, (1 << bits) - 1);
  const IntMatrix seen = channel.read(truth, rng);
  int lowered = 0;
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 12; ++x) {
      EXPECT_LE(seen(x, y), truth(x, y));
      if (seen(x, y) < truth(x, y)) ++lowered;
    }
  }
  EXPECT_GT(lowered, 0);
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
  // (scan_out_health, per-bit stuck or Rng::bernoulli, scan_in_health):
  // equal frames, equal statistics, and an equal random stream after every
  // read.
  constexpr std::array<double, 4> kFlip = {0.0, 1e-3, 0.3, 1.0};
  // At a stuck fraction of 1 every DFF is stuck: a read takes only its drop
  // draw.
  constexpr std::array<double, 3> kStuck = {0.0, 0.2, 1.0};
  constexpr std::array<double, 3> kShare = {0.0, 0.5, 1.0};
  constexpr std::array<double, 2> kDrop = {0.0, 0.3};
  Rng shapes(2024);
  int reads = 0;
  for (const double flip : kFlip) {
    for (const double stuck : kStuck) {
      for (const double share : kShare) {
        for (const double drop : kDrop) {
          for (int trial = 0; trial < 4; ++trial) {
            const int w = shapes.uniform_int(1, 12);
            const int h = shapes.uniform_int(1, 12);
            const int bits = shapes.uniform_int(1, 4);
            SensorNoiseConfig config;
            config.bit_flip_p = flip;
            config.stuck_fraction = stuck;
            config.stuck_at_one_share = share;
            config.frame_drop_p = drop;
            const std::uint64_t seed = shapes.next_u64();
            SensorChannel channel(config, w, h, bits, Rng(seed));
            reference::ReadoutChannel oracle(config, w, h, bits, Rng(seed));
            Rng rng(seed + 1);
            Rng oracle_rng(seed + 1);
            Rng truth_rng(seed + 2);
            for (int i = 0; i < 6; ++i) {
              SCOPED_TRACE(::testing::Message()
                           << w << "x" << h << "x" << bits << " flip "
                           << flip << " stuck " << stuck << " share "
                           << share << " drop " << drop << " read " << i);
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
  }
  EXPECT_EQ(reads, 4 * 3 * 3 * 2 * 4 * 6);
}

TEST(SensorChannel, MatchesTheThreeStepReadoutAtTheProductionShape) {
  // The hybrid_noisy scan chain: 60x30 cells of 2 bits, flip 1e-3, 2% of
  // frames dropped; without stuck DFFs and with 5% of them stuck.
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
    for (int i = 0; i < 50; ++i) {
      SCOPED_TRACE(::testing::Message() << "stuck " << stuck << " read " << i);
      const IntMatrix truth = random_health(60, 30, 2, truth_rng);
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
    expected.next_u64();  // the drop draw, and no bit draw after it
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

}  // namespace
}  // namespace meda
