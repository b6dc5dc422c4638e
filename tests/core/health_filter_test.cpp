#include "core/health_filter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "obs/obs.hpp"
#include "reference_health_filter.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace meda::core {
namespace {

TEST(HealthFilter, SeedsFromTheFirstFrame) {
  HealthFilter filter;
  EXPECT_FALSE(filter.seeded());
  const IntMatrix frame(5, 4, 3);
  filter.observe(frame);
  EXPECT_TRUE(filter.seeded());
  EXPECT_EQ(filter.estimate(), frame);
}

TEST(HealthFilter, TransientFlipIsDebounced) {
  HealthFilter filter;
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
  static_assert(HealthFilter::kDownConfirm == 2);
  HealthFilter filter;
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
  // and need kUpConfirm consecutive reads instead of kDownConfirm.
  static_assert(HealthFilter::kUpConfirm > HealthFilter::kDownConfirm);
  HealthFilter filter;
  IntMatrix frame(5, 4, 1);
  filter.observe(frame);
  IntMatrix raised = frame;
  raised(3, 3) = 3;
  for (int i = 1; i < HealthFilter::kUpConfirm; ++i) {
    filter.observe(raised);
    EXPECT_EQ(filter.estimate()(3, 3), 1) << "read " << i;
  }
  filter.observe(raised);  // kUpConfirm-th consecutive read
  EXPECT_EQ(filter.estimate()(3, 3), 3);
}

TEST(HealthFilter, InterruptedStreakStartsOver) {
  HealthFilter filter;
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
  HealthFilter filter;
  filter.observe(IntMatrix(4, 3, 3));
  IntMatrix fresh(4, 3, 2);
  filter.force_resense();
  filter.observe(fresh);  // adopted without any debounce
  EXPECT_EQ(filter.estimate(), fresh);
}

TEST(HealthFilter, FlakyCellBecomesSuspect) {
  // The seeding frame and the disagreeing ones stay below the first decay
  // frame, so the score is the disagreement count.
  static_assert(HealthFilter::kSuspectThreshold <
                HealthFilter::kSuspectDecayFrames - 1);
  HealthFilter filter;
  IntMatrix frame(4, 4, 3);
  filter.observe(frame);
  // A flaky DFF makes the cell's reading bounce between two wrong values;
  // the estimate never settles on the noise (the candidate keeps changing)
  // but the disagreement score accumulates to the suspect threshold.
  IntMatrix noisy = frame;
  for (int i = 0; i < HealthFilter::kSuspectThreshold; ++i) {
    EXPECT_EQ(filter.suspect_count(), 0) << "read " << i;
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
  HealthFilter filter;
  IntMatrix frame(4, 4, 3);
  filter.observe(frame);
  IntMatrix noisy = frame;
  for (int i = 0; i < HealthFilter::kSuspectThreshold; ++i) {
    noisy(1, 1) = (i % 2 == 0) ? 0 : 2;
    filter.observe(noisy);
  }
  ASSERT_EQ(filter.suspect_count(), 1);
  filter.force_resense();
  filter.observe(frame);
  EXPECT_EQ(filter.suspect_count(), 1);  // the defect memory is kept
}

TEST(HealthFilter, RejectsDimensionChanges) {
  HealthFilter filter;
  filter.observe(IntMatrix(4, 3, 1));
  EXPECT_THROW(filter.observe(IntMatrix(3, 4, 1)), PreconditionError);
}

TEST(HealthFilter, FramesCounterCountsEveryObservedFrame) {
  // The seeding frame and a forced re-sense are observed frames too.
  obs::ctx().reset();
  obs::ctx().metrics().enable();
  HealthFilter filter;
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

/// One fuzzed scan stream over a drifting truth. A dense stream has real
/// wear steps (mostly down, sometimes up) in many cells per frame, transient
/// reads of a random wrong code, and a fixed set of flaky cells that keep
/// reading a wrong code. A sparse stream, like a chip behind a good scan
/// chain, wears up to two cells a frame (one in ten frames also raises one)
/// and starts up to two wrong readings a frame, each lasting 1 to 5 frames.
class FrameFuzzer {
 public:
  FrameFuzzer(int width, int height, int bits, Rng& rng, bool sparse = false)
      : top_((1 << bits) - 1), truth_(width, height, top_),
        flaky_(width, height, 0), sparse_(sparse) {
    for (int& code : truth_.data()) code = rng.uniform_int(0, top_);
    if (sparse) return;
    for (unsigned char& f : flaky_.data()) f = rng.bernoulli(0.05) ? 1 : 0;
  }

  IntMatrix next(Rng& rng) {
    return sparse_ ? next_sparse(rng) : next_dense(rng);
  }

 private:
  /// A wrong reading: @p cell reads @p code for @p frames more frames.
  struct Misread {
    std::size_t cell;
    int code;
    int frames;
  };

  IntMatrix next_dense(Rng& rng) {
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

  IntMatrix next_sparse(Rng& rng) {
    const int last = static_cast<int>(truth_.size()) - 1;
    const auto cell = [&] {
      return static_cast<std::size_t>(rng.uniform_int(0, last));
    };
    for (int k = rng.uniform_int(0, 2); k > 0; --k) {
      int& code = truth_.data()[cell()];
      code = std::max(0, code - 1);
    }
    if (rng.bernoulli(0.1)) {
      int& code = truth_.data()[cell()];
      code = std::min(top_, code + 1);
    }
    for (int k = rng.uniform_int(0, 2); k > 0; --k) {
      const std::size_t i = cell();
      const int wrong =
          (truth_.data()[i] + 1 + rng.uniform_int(0, top_ - 1)) % (top_ + 1);
      misreads_.push_back({i, wrong, rng.uniform_int(1, 5)});
    }
    IntMatrix frame = truth_;
    for (Misread& m : misreads_) {
      frame.data()[m.cell] = m.code;
      --m.frames;
    }
    std::erase_if(misreads_, [](const Misread& m) { return m.frames == 0; });
    return frame;
  }

  int top_;
  IntMatrix truth_;
  BoolMatrix flaky_;
  bool sparse_;
  std::vector<Misread> misreads_;
};

TEST(HealthFilter, MatchesTheReferenceFilterOnFuzzedFrames) {
  // Streams of 40 or 80 frames run past several decay frames (every
  // kSuspectDecayFrames-th), with forced re-senses at random. Dense streams
  // disagree with the estimate in many cells per frame; in sparse ones most
  // cells read their estimate, and candidates expire a frame or a few
  // frames after they appear.
  struct Shape {
    int width;
    int height;
  };
  const Shape shapes[] = {{60, 30}, {1, 1}, {7, 3}, {1, 13}, {17, 1}};
  Rng rng(2024);
  for (const bool sparse : {false, true}) {
    int streams = 0;
    for (const Shape shape : shapes) {
      for (int stream = 0; stream < 48; ++stream) {
        HealthFilter filter;
        reference::HealthFilter reference;
        FrameFuzzer fuzzer(shape.width, shape.height, rng.uniform_int(1, 4),
                           rng, sparse);
        const int frames = shape.width * shape.height > 100 ? 40 : 80;
        for (int f = 0; f < frames; ++f) {
          if (f > 0 && rng.bernoulli(0.06)) {
            filter.force_resense();
            reference.force_resense();
          }
          const IntMatrix frame = fuzzer.next(rng);
          filter.observe(frame);
          reference.observe(frame);
          SCOPED_TRACE(::testing::Message()
                       << (sparse ? "sparse " : "dense ") << shape.width
                       << "x" << shape.height << " stream " << stream
                       << " frame " << f);
          ASSERT_EQ(filter.estimate(), reference.estimate());
          ASSERT_EQ(filter.suspect(), reference.suspect());
          ASSERT_EQ(filter.suspect_count(), reference.suspect_count());
          ASSERT_EQ(filter.adopted_updates(), reference.adopted_updates());
          ASSERT_EQ(filter.rejected_updates(), reference.rejected_updates());
          ASSERT_EQ(filter.frames(), reference.frames());
        }
        ++streams;
      }
    }
    EXPECT_EQ(streams, 5 * 48);
  }
}

}  // namespace
}  // namespace meda::core
