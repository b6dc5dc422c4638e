#pragma once

#include <cstdint>
#include <memory>

/// @file deadline.hpp
/// Deterministic sweep budget for solver loops, polled once per
/// Gauss-Seidel sweep. `after_checks(N)` survives exactly N `expired()`
/// polls and expires on the next one; no clock is consulted, so a budget
/// expires at the same sweep on every machine. Copies share one countdown
/// (SolveConfig carries the token by value, and an expired pmax thereby
/// also expires the rmin after it). A default token is inactive, allocates
/// nothing and never expires. Single-threaded, like the schedulers that
/// arm it.
namespace meda::util {

class Deadline {
 public:
  /// Inactive token: never expires.
  Deadline() = default;

  /// Token that survives exactly @p checks polls; `after_checks(0)` is
  /// already expired.
  static Deadline after_checks(std::uint64_t checks) {
    Deadline d;
    d.remaining_ = std::make_shared<std::uint64_t>(checks);
    return d;
  }

  /// True if the token carries a budget.
  bool active() const { return remaining_ != nullptr; }

  /// Polls the token, spending one check. Once true, stays true.
  bool expired() const {
    if (remaining_ == nullptr) return false;
    if (*remaining_ == 0) return true;
    --*remaining_;
    return false;
  }

 private:
  std::shared_ptr<std::uint64_t> remaining_;  ///< checks left; null = none
};

}  // namespace meda::util
