#include "util/deadline.hpp"

namespace meda::util {

Deadline Deadline::after_seconds(double seconds) {
  Deadline d;
  d.state_->has_time_limit = true;
  if (seconds <= 0.0) {
    // Born expired, deterministically: no clock is consulted, so a zero or
    // negative budget behaves identically on every machine (and under a
    // frozen clock) instead of relying on now() >= now().
    d.state_->cancelled.store(true, std::memory_order_relaxed);
    return d;
  }
  // Saturate budgets the clock's duration type cannot represent: the naive
  // duration_cast would overflow and wrap not_after into the past, turning
  // "practically unbounded" into "already expired".
  const std::chrono::duration<double> want(seconds);
  const auto max_representable =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          Clock::duration::max());
  if (want >= max_representable / 2) {
    d.state_->not_after = Clock::time_point::max();
    return d;
  }
  d.state_->not_after =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(want);
  return d;
}

Deadline Deadline::after_checks(std::uint64_t checks) {
  Deadline d;
  d.state_->has_check_limit = true;
  d.state_->check_limit = checks;
  return d;
}

bool Deadline::expired() const {
  State& s = *state_;
  if (s.cancelled.load(std::memory_order_relaxed)) return true;
  if (s.has_check_limit) {
    // fetch_add counts this poll; the token expires on poll number
    // check_limit + 1 and every poll after it.
    if (s.checks.fetch_add(1, std::memory_order_relaxed) >= s.check_limit) {
      s.cancelled.store(true, std::memory_order_relaxed);
      return true;
    }
  }
  if (s.has_time_limit && Clock::now() >= s.not_after) {
    s.cancelled.store(true, std::memory_order_relaxed);
    return true;
  }
  return false;
}

}  // namespace meda::util
