#include "chip/scan_chain.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace meda {
namespace {

TEST(ScanChain, HealthRoundTrip) {
  Rng rng(1);
  IntMatrix health(7, 5);
  for (int y = 0; y < 5; ++y)
    for (int x = 0; x < 7; ++x) health(x, y) = rng.uniform_int(0, 3);
  const std::vector<bool> stream = scan_out_health(health, 2);
  EXPECT_EQ(stream.size(), 7u * 5u * 2u);
  EXPECT_EQ(scan_in_health(stream, 7, 5, 2), health);
}

TEST(ScanChain, HealthRoundTripGeneralBitWidths) {
  Rng rng(2);
  for (const int bits : {1, 3, 4, 8}) {
    IntMatrix health(4, 3);
    for (int y = 0; y < 3; ++y)
      for (int x = 0; x < 4; ++x)
        health(x, y) = rng.uniform_int(0, (1 << bits) - 1);
    EXPECT_EQ(scan_in_health(scan_out_health(health, bits), 4, 3, bits),
              health)
        << bits << " bits";
  }
}

TEST(ScanChain, BitOrderIsRowMajorLsbFirst) {
  IntMatrix health(2, 1);
  health(0, 0) = 0b01;  // original DFF (MSB) = 0, added DFF (LSB) = 1
  health(1, 0) = 0b10;
  const std::vector<bool> stream = scan_out_health(health, 2);
  ASSERT_EQ(stream.size(), 4u);
  EXPECT_TRUE(stream[0]);   // MC(0,0) bit 0
  EXPECT_FALSE(stream[1]);  // MC(0,0) bit 1
  EXPECT_FALSE(stream[2]);  // MC(1,0) bit 0
  EXPECT_TRUE(stream[3]);   // MC(1,0) bit 1
}

TEST(ScanChain, ActuationRoundTrip) {
  Rng rng(3);
  BoolMatrix pattern(9, 6);
  for (int y = 0; y < 6; ++y)
    for (int x = 0; x < 9; ++x) pattern(x, y) = rng.bernoulli(0.4);
  const std::vector<bool> stream = scan_out_actuation(pattern);
  EXPECT_EQ(stream.size(), 54u);
  EXPECT_EQ(scan_in_actuation(stream, 9, 6), pattern);
}

TEST(ScanChain, RejectsCodesThatDoNotFit) {
  IntMatrix health(2, 2, 5);
  EXPECT_THROW(scan_out_health(health, 2), PreconditionError);
  EXPECT_NO_THROW(scan_out_health(health, 3));
}

TEST(ScanChain, RejectsLengthMismatch) {
  EXPECT_THROW(scan_in_health(std::vector<bool>(7), 2, 2, 2),
               PreconditionError);
  EXPECT_THROW(scan_in_actuation(std::vector<bool>(5), 2, 2),
               PreconditionError);
}

TEST(ScanChain, FuzzedHealthRoundTripOverGeometriesAndBitDepths) {
  // Property: scan_in_health ∘ scan_out_health == identity for every
  // geometry and bit depth. 200 random (w, h, bits, codes) draws.
  Rng rng(0xF022);
  for (int iter = 0; iter < 200; ++iter) {
    const int w = rng.uniform_int(1, 24);
    const int h = rng.uniform_int(1, 24);
    const int bits = rng.uniform_int(1, 12);
    IntMatrix health(w, h);
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x)
        health(x, y) = rng.uniform_int(0, (1 << bits) - 1);
    const std::vector<bool> stream = scan_out_health(health, bits);
    ASSERT_EQ(stream.size(),
              static_cast<std::size_t>(w) * h * bits)
        << w << "x" << h << "@" << bits;
    ASSERT_EQ(scan_in_health(stream, w, h, bits), health)
        << w << "x" << h << "@" << bits;
  }
}

TEST(ScanChain, FuzzedActuationRoundTrip) {
  Rng rng(0xF023);
  for (int iter = 0; iter < 100; ++iter) {
    const int w = rng.uniform_int(1, 32);
    const int h = rng.uniform_int(1, 32);
    BoolMatrix pattern(w, h);
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x) pattern(x, y) = rng.bernoulli(0.5);
    ASSERT_EQ(scan_in_actuation(scan_out_actuation(pattern), w, h), pattern)
        << w << "x" << h;
  }
}

TEST(ScanChain, RejectsOffByOneStreamLengths) {
  // A truncated or over-long bitstream — the symptom of a desynchronized
  // scan clock — must be rejected, never silently re-framed.
  Rng rng(0xF024);
  for (int iter = 0; iter < 50; ++iter) {
    const int w = rng.uniform_int(1, 16);
    const int h = rng.uniform_int(1, 16);
    const int bits = rng.uniform_int(1, 8);
    const std::size_t exact =
        static_cast<std::size_t>(w) * h * bits;
    EXPECT_THROW(scan_in_health(std::vector<bool>(exact + 1), w, h, bits),
                 PreconditionError);
    if (exact > 0) {
      EXPECT_THROW(scan_in_health(std::vector<bool>(exact - 1), w, h, bits),
                   PreconditionError);
    }
    EXPECT_NO_THROW(scan_in_health(std::vector<bool>(exact), w, h, bits));
  }
}

}  // namespace
}  // namespace meda
