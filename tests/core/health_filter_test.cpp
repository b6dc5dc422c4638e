#include "core/health_filter.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "obs/obs.hpp"
#include "reference_health_filter.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace meda::core {
namespace {

HealthFilterConfig quick_config() {
  HealthFilterConfig config;
  config.enabled = true;
  config.down_confirm = 2;
  config.up_confirm = 4;
  config.suspect_threshold = 3;
  config.suspect_decay_frames = 0;  // no decay: disagreements accumulate
  return config;
}

TEST(HealthFilter, SeedsFromTheFirstFrame) {
  HealthFilter filter(quick_config());
  EXPECT_FALSE(filter.seeded());
  const IntMatrix frame(5, 4, 3);
  filter.observe(frame);
  EXPECT_TRUE(filter.seeded());
  EXPECT_EQ(filter.estimate(), frame);
}

TEST(HealthFilter, TransientFlipIsDebounced) {
  HealthFilter filter(quick_config());
  IntMatrix frame(5, 4, 3);
  filter.observe(frame);
  IntMatrix glitched = frame;
  glitched(2, 1) = 0;  // one-frame transient
  filter.observe(glitched);
  EXPECT_EQ(filter.estimate()(2, 1), 3);  // not adopted yet
  filter.observe(frame);                  // reading recovers
  filter.observe(frame);
  EXPECT_EQ(filter.estimate(), frame);
  EXPECT_GT(filter.rejected_updates(), 0u);
  EXPECT_EQ(filter.adopted_updates(), 0u);
}

TEST(HealthFilter, PersistentDecreaseAdoptedAfterDownConfirm) {
  HealthFilter filter(quick_config());  // down_confirm = 2
  IntMatrix frame(5, 4, 3);
  filter.observe(frame);
  IntMatrix degraded = frame;
  degraded(1, 2) = 1;
  filter.observe(degraded);
  EXPECT_EQ(filter.estimate()(1, 2), 3);  // first disagreeing read
  filter.observe(degraded);
  EXPECT_EQ(filter.estimate()(1, 2), 1);  // second consecutive read: adopt
  EXPECT_EQ(filter.adopted_updates(), 1u);
}

TEST(HealthFilter, IncreaseNeedsMoreConfirmationThanDecrease) {
  // The monotone-wear prior: health readings that *rise* fight the physics
  // and need up_confirm (= 4) consecutive reads instead of 2.
  HealthFilter filter(quick_config());
  IntMatrix frame(5, 4, 1);
  filter.observe(frame);
  IntMatrix raised = frame;
  raised(3, 3) = 3;
  for (int i = 0; i < 3; ++i) {
    filter.observe(raised);
    EXPECT_EQ(filter.estimate()(3, 3), 1) << "read " << i + 1;
  }
  filter.observe(raised);  // 4th consecutive read
  EXPECT_EQ(filter.estimate()(3, 3), 3);
}

TEST(HealthFilter, InterruptedStreakStartsOver) {
  HealthFilter filter(quick_config());
  IntMatrix frame(4, 4, 3);
  filter.observe(frame);
  IntMatrix degraded = frame;
  degraded(0, 0) = 0;
  filter.observe(degraded);  // streak 1 of 2
  filter.observe(frame);     // agreement resets the candidate
  filter.observe(degraded);  // streak 1 of 2 again
  EXPECT_EQ(filter.estimate()(0, 0), 3);
  filter.observe(degraded);
  EXPECT_EQ(filter.estimate()(0, 0), 0);
}

TEST(HealthFilter, ForceResenseReseedsVerbatim) {
  HealthFilter filter(quick_config());
  filter.observe(IntMatrix(4, 3, 3));
  IntMatrix fresh(4, 3, 2);
  filter.force_resense();
  filter.observe(fresh);  // adopted without any debounce
  EXPECT_EQ(filter.estimate(), fresh);
}

TEST(HealthFilter, FlakyCellBecomesSuspect) {
  HealthFilter filter(quick_config());  // suspect_threshold = 3
  IntMatrix frame(4, 4, 3);
  filter.observe(frame);
  // A flaky DFF makes the cell's reading bounce between two wrong values;
  // the estimate never settles on the noise (the candidate keeps changing)
  // but the disagreement score accumulates to the suspect threshold.
  IntMatrix noisy = frame;
  for (int i = 0; i < 4; ++i) {
    noisy(2, 2) = (i % 2 == 0) ? 1 : 2;
    filter.observe(noisy);
  }
  EXPECT_EQ(filter.estimate()(2, 2), 3);  // noise was never adopted
  EXPECT_EQ(filter.suspect_count(), 1);
  EXPECT_NE(filter.suspect()(2, 2), 0);
  // Sticky: agreeing reads do not clear the flag.
  filter.observe(frame);
  EXPECT_EQ(filter.suspect_count(), 1);
}

TEST(HealthFilter, SuspectStateSurvivesForcedResense) {
  HealthFilter filter(quick_config());
  IntMatrix frame(4, 4, 3);
  filter.observe(frame);
  IntMatrix noisy = frame;
  for (int i = 0; i < 4; ++i) {
    noisy(1, 1) = (i % 2 == 0) ? 0 : 2;
    filter.observe(noisy);
  }
  ASSERT_EQ(filter.suspect_count(), 1);
  filter.force_resense();
  filter.observe(frame);
  EXPECT_EQ(filter.suspect_count(), 1);  // the defect memory is kept
}

TEST(HealthFilter, ConfidenceSaturatesAtTheCap) {
  HealthFilterConfig config = quick_config();
  config.confidence_cap = 3;
  HealthFilter filter(config);
  const IntMatrix frame(3, 3, 2);
  for (int i = 0; i < 10; ++i) filter.observe(frame);
  EXPECT_EQ(filter.confidence()(1, 1), 3);
}

TEST(HealthFilter, RejectsDimensionChanges) {
  HealthFilter filter(quick_config());
  filter.observe(IntMatrix(4, 3, 1));
  EXPECT_THROW(filter.observe(IntMatrix(3, 4, 1)), PreconditionError);
}

TEST(HealthFilter, FramesCounterCountsEveryObservedFrame) {
  // The seeding frame and a forced re-sense are observed frames too.
  obs::ctx().reset();
  obs::ctx().metrics().enable();
  HealthFilter filter(quick_config());
  const IntMatrix frame(4, 3, 3);
  filter.observe(frame);
  for (int i = 0; i < 5; ++i) filter.observe(frame);
  filter.force_resense();
  filter.observe(frame);
  for (int i = 0; i < 2; ++i) filter.observe(frame);
  EXPECT_EQ(filter.frames(), 9u);
#ifndef MEDA_OBS_DISABLED
  EXPECT_EQ(obs::ctx().metrics().counter("filter.frames"), 9u);
#endif
  obs::ctx().reset();
}

/// One fuzzed scan stream over a drifting truth: real wear steps (mostly
/// down, sometimes up), transient reads of a random wrong code, and a fixed
/// set of flaky cells that keep reading a wrong code.
class FrameFuzzer {
 public:
  FrameFuzzer(int width, int height, int bits, Rng& rng)
      : top_((1 << bits) - 1), truth_(width, height, top_),
        flaky_(width, height, 0) {
    for (int& code : truth_.data()) code = rng.uniform_int(0, top_);
    for (unsigned char& f : flaky_.data()) f = rng.bernoulli(0.05) ? 1 : 0;
  }

  IntMatrix next(Rng& rng) {
    for (int& code : truth_.data()) {
      if (rng.bernoulli(0.03)) code = std::max(0, code - 1);
      if (rng.bernoulli(0.005)) code = std::min(top_, code + 1);
    }
    IntMatrix frame = truth_;
    for (std::size_t i = 0; i < frame.size(); ++i) {
      int& code = frame.data()[i];
      if (flaky_.data()[i] != 0 && rng.bernoulli(0.8))
        code = (code + 1 + rng.uniform_int(0, 1)) % (top_ + 1);
      else if (rng.bernoulli(0.04))
        code = rng.uniform_int(0, top_);
    }
    return frame;
  }

 private:
  int top_;
  IntMatrix truth_;
  BoolMatrix flaky_;
};

TEST(HealthFilter, MatchesTheReferenceFilterOnFuzzedFrames) {
  struct Shape {
    int width;
    int height;
  };
  const Shape shapes[] = {{60, 30}, {1, 1}, {7, 3}, {1, 13}, {17, 1}};
  Rng rng(2024);
  int streams = 0;
  for (const Shape shape : shapes) {
    for (const int decay_frames : {0, 1, 16}) {
      for (const int cap : {1, 3, 16}) {
        for (int down = 1; down <= 4; ++down) {
          for (int up = 1; up <= 4; ++up) {
            HealthFilterConfig config;
            config.enabled = true;
            config.down_confirm = down;
            config.up_confirm = up;
            config.suspect_decay_frames = decay_frames;
            config.confidence_cap = cap;
            config.suspect_threshold = rng.uniform_int(1, 12);
            HealthFilter filter(config);
            reference::HealthFilter reference(config);
            FrameFuzzer fuzzer(shape.width, shape.height,
                               rng.uniform_int(1, 4), rng);
            const int frames = shape.width * shape.height > 100 ? 24 : 48;
            for (int f = 0; f < frames; ++f) {
              if (f > 0 && rng.bernoulli(0.06)) {
                filter.force_resense();
                reference.force_resense();
              }
              const IntMatrix frame = fuzzer.next(rng);
              filter.observe(frame);
              reference.observe(frame);
              SCOPED_TRACE(::testing::Message()
                           << shape.width << "x" << shape.height
                           << " decay " << decay_frames << " cap " << cap
                           << " confirm " << down << "/" << up << " frame "
                           << f);
              ASSERT_EQ(filter.estimate(), reference.estimate());
              ASSERT_EQ(filter.confidence(), reference.confidence());
              ASSERT_EQ(filter.suspect(), reference.suspect());
              ASSERT_EQ(filter.suspect_count(), reference.suspect_count());
              ASSERT_EQ(filter.adopted_updates(),
                        reference.adopted_updates());
              ASSERT_EQ(filter.rejected_updates(),
                        reference.rejected_updates());
              ASSERT_EQ(filter.frames(), reference.frames());
            }
            ++streams;
          }
        }
      }
    }
  }
  EXPECT_EQ(streams, 5 * 3 * 3 * 4 * 4);
}

}  // namespace
}  // namespace meda::core
