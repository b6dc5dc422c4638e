#pragma once

#include <algorithm>
#include <cstdint>

#include "core/health_filter.hpp"
#include "util/check.hpp"
#include "util/matrix.hpp"

/// @file reference_health_filter.hpp
/// Reference health filter for the oracle tests: core::HealthFilter's
/// update written as one (x, y) pass over six matrices, with the decay
/// halving folded into each cell's update and every config field read where
/// it is used. It keeps no metrics and shares no update code with
/// core::HealthFilter, whose flat pass must match it frame for frame.

namespace meda::reference {

class HealthFilter {
 public:
  explicit HealthFilter(core::HealthFilterConfig config) : config_(config) {}

  void observe(const IntMatrix& scan) {
    MEDA_REQUIRE(scan.width() > 0 && scan.height() > 0,
                 "health filter needs a non-empty frame");
    ++frames_;
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

    const bool decay = config_.suspect_decay_frames > 0 &&
                       frames_ % static_cast<std::uint64_t>(
                                     config_.suspect_decay_frames) ==
                           0;
    for (int y = 0; y < scan.height(); ++y) {
      for (int x = 0; x < scan.width(); ++x) {
        const int v = scan(x, y);
        int& e = estimate_(x, y);
        if (decay) disagree_(x, y) /= 2;
        if (v == e) {
          confidence_(x, y) =
              std::min(confidence_(x, y) + 1, config_.confidence_cap);
          streak_(x, y) = 0;
          candidate_(x, y) = -1;
          continue;
        }
        // Reading disagrees with the settled estimate.
        if (++disagree_(x, y) >= config_.suspect_threshold &&
            suspect_(x, y) == 0) {
          suspect_(x, y) = 1;
          ++suspect_count_;
        }
        if (v == candidate_(x, y)) {
          ++streak_(x, y);
        } else {
          candidate_(x, y) = v;
          streak_(x, y) = 1;
        }
        const int needed =
            v < e ? std::max(1, config_.down_confirm)
                  : std::max(std::max(1, config_.down_confirm),
                             config_.up_confirm);
        if (streak_(x, y) >= needed) {
          e = v;
          confidence_(x, y) = 1;
          streak_(x, y) = 0;
          candidate_(x, y) = -1;
          ++adopted_updates_;
        } else {
          ++rejected_updates_;
        }
      }
    }
  }

  void force_resense() { force_resense_ = true; }

  const IntMatrix& estimate() const { return estimate_; }
  const IntMatrix& confidence() const { return confidence_; }
  const BoolMatrix& suspect() const { return suspect_; }
  int suspect_count() const { return suspect_count_; }
  std::uint64_t frames() const { return frames_; }
  std::uint64_t rejected_updates() const { return rejected_updates_; }
  std::uint64_t adopted_updates() const { return adopted_updates_; }

 private:
  core::HealthFilterConfig config_;
  bool seeded_ = false;
  bool force_resense_ = false;
  IntMatrix estimate_;
  IntMatrix confidence_;
  IntMatrix candidate_;
  IntMatrix streak_;
  IntMatrix disagree_;
  BoolMatrix suspect_;
  int suspect_count_ = 0;
  std::uint64_t frames_ = 0;
  std::uint64_t rejected_updates_ = 0;
  std::uint64_t adopted_updates_ = 0;
};

}  // namespace meda::reference
