#include "core/health_filter.hpp"

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
    candidate_ = IntMatrix(scan.width(), scan.height(), -1);
    streak_ = IntMatrix(scan.width(), scan.height(), 0);
    pending_.clear();
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

  // The matrices share one row-major layout, so cell i is index i of each.
  const std::size_t n = scan.size();
  const int* const in = scan.data().data();
  int* const est = estimate_.data().data();
  int* const cand = candidate_.data().data();
  int* const streak = streak_.data().data();
  int* const score = disagree_.data().data();
  unsigned char* const sus = suspect_.data().data();

  // Halving first keeps each cell's decay ahead of its own update.
  if (frames_ % kSuspectDecayFrames == 0) {
    for (std::size_t i = 0; i < n; ++i) score[i] /= 2;
  }
  // A reading equal to the estimate leaves its cell with streak 0 and no
  // candidate. Every cell off the pending list already holds that state, so
  // only a pending cell that reads its estimate again changes here.
  for (const std::size_t i : pending_) {
    if (in[i] == est[i]) {
      streak[i] = 0;
      cand[i] = -1;
    }
  }
  pending_.clear();
  std::uint64_t adopted = 0;
  std::uint64_t rejected = 0;
  int suspects = suspect_count_;
  for_each_difference(scan, estimate_, [&](std::size_t i) {
    // Reading disagrees with the settled estimate.
    const int v = in[i];
    const int e = est[i];
    if (++score[i] >= kSuspectThreshold && sus[i] == 0) {
      sus[i] = 1;
      ++suspects;
    }
    if (v == cand[i]) {
      ++streak[i];
    } else {
      cand[i] = v;
      streak[i] = 1;
    }
    if (streak[i] >= (v < e ? kDownConfirm : kUpConfirm)) {
      est[i] = v;
      streak[i] = 0;
      cand[i] = -1;
      ++adopted;
    } else {
      pending_.push_back(i);
      ++rejected;
    }
  });
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
