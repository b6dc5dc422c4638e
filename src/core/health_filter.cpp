#include "core/health_filter.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "util/check.hpp"

namespace meda::core {

void HealthFilter::observe(const IntMatrix& scan) {
  MEDA_REQUIRE(scan.width() > 0 && scan.height() > 0,
               "health filter needs a non-empty frame");
  ++frames_;
  MEDA_OBS_COUNT("filter.frames", 1);
  if (!seeded_ || force_resense_) {
    if (seeded_) {
      MEDA_REQUIRE(scan.width() == estimate_.width() &&
                       scan.height() == estimate_.height(),
                   "health frame dimensions changed");
    }
    estimate_ = scan;
    confidence_ = IntMatrix(scan.width(), scan.height(), 1);
    candidate_ = IntMatrix(scan.width(), scan.height(), -1);
    streak_ = IntMatrix(scan.width(), scan.height(), 0);
    if (!seeded_) {
      disagree_ = IntMatrix(scan.width(), scan.height(), 0);
      suspect_ = BoolMatrix(scan.width(), scan.height(), 0);
    }
    seeded_ = true;
    force_resense_ = false;
    return;
  }
  MEDA_REQUIRE(scan.width() == estimate_.width() &&
                   scan.height() == estimate_.height(),
               "health frame dimensions changed");

  // The loop below writes ints, which may alias config_'s fields, so they
  // are read once per frame here rather than once per cell.
  const int cap = config_.confidence_cap;
  const int suspect_threshold = config_.suspect_threshold;
  const int down_needed = std::max(1, config_.down_confirm);
  const int up_needed = std::max(down_needed, config_.up_confirm);
  const int decay_frames = config_.suspect_decay_frames;

  // The matrices share one row-major layout, so cell i is index i of each.
  const std::size_t n = scan.size();
  const int* const in = scan.data().data();
  int* const est = estimate_.data().data();
  int* const conf = confidence_.data().data();
  int* const cand = candidate_.data().data();
  int* const streak = streak_.data().data();
  int* const score = disagree_.data().data();
  unsigned char* const sus = suspect_.data().data();

  // Halving first keeps each cell's decay ahead of its own update.
  if (decay_frames > 0 &&
      frames_ % static_cast<std::uint64_t>(decay_frames) == 0) {
    for (std::size_t i = 0; i < n; ++i) score[i] /= 2;
  }
  std::uint64_t adopted = 0;
  std::uint64_t rejected = 0;
  int suspects = suspect_count_;
  for (std::size_t i = 0; i < n; ++i) {
    const int v = in[i];
    const int e = est[i];
    if (v == e) {
      conf[i] = std::min(conf[i] + 1, cap);
      streak[i] = 0;
      cand[i] = -1;
      continue;
    }
    // Reading disagrees with the settled estimate.
    if (++score[i] >= suspect_threshold && sus[i] == 0) {
      sus[i] = 1;
      ++suspects;
    }
    if (v == cand[i]) {
      ++streak[i];
    } else {
      cand[i] = v;
      streak[i] = 1;
    }
    if (streak[i] >= (v < e ? down_needed : up_needed)) {
      est[i] = v;
      conf[i] = 1;
      streak[i] = 0;
      cand[i] = -1;
      ++adopted;
    } else {
      ++rejected;
    }
  }
  suspect_count_ = suspects;
  adopted_updates_ += adopted;
  rejected_updates_ += rejected;
  if (MEDA_OBS_ACTIVE()) {
    MEDA_OBS_COUNT("filter.adopted_updates", adopted);
    MEDA_OBS_COUNT("filter.rejected_updates", rejected);
    MEDA_OBS_GAUGE("filter.suspects", static_cast<double>(suspect_count_));
  }
}

}  // namespace meda::core
