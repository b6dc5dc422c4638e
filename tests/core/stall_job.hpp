#pragma once

#include "assay/helper.hpp"
#include "geometry/rect.hpp"
#include "util/matrix.hpp"

/// @file stall_job.hpp
/// The rmin-stall fixture shared by the synthesizer and strategy tests.

namespace meda::core {

/// The rmin stall: a 60×30 chip at 2-bit code 2 whose goal block is dead
/// (code 0). Every state is almost-surely winning, but no goal-adjacent state
/// has a choice whose every branch is finite after rmin's first sweep, so
/// that sweep changes nothing and rmin stops with every state at ∞.
struct StallJob {
  Rect chip{0, 0, 59, 29};
  IntMatrix health{60, 30, 2};
  assay::RoutingJob job;

  StallJob() {
    for (int y = 2; y <= 5; ++y)
      for (int x = 46; x <= 49; ++x) health(x, y) = 0;
    job.start = Rect{46, 0, 49, 3};
    job.goal = Rect{46, 2, 49, 5};
    job.hazard = Rect{43, 0, 52, 8};
  }
};

}  // namespace meda::core
