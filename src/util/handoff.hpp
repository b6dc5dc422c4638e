#pragma once

#include <functional>
#include <memory>

/// @file handoff.hpp
/// Work a thread hands to one of the process's helper threads and settles
/// later: an idle helper runs it in the meantime, or the owner takes it
/// back and does it itself.
///
/// The helpers are one thread fewer than the CPUs the process may run on
/// (hardware_concurrency() − 1 on an unrestricted host; none on a one-core
/// host), started on first use and shared by every caller in the process.
/// A helper takes one piece of work at a time, and work that finds every
/// helper busy is never run by one; settling withdraws work no helper has
/// started. So an owner never waits for a busy pool to reach its work: it
/// only ever waits for work a helper is already running. Unlike
/// util::ThreadPool, nothing is reduced or rethrown: the owner learns
/// whether the work ran and decides what to do with its output (the
/// scheduler adopts it, or drops it and synthesizes itself).

namespace meda::util {

/// Helper threads in the process: the CPUs it may run on, less one (or
/// hardware_concurrency() − 1 where the platform does not say); 0 on a
/// one-core host. Starts no thread.
int helper_count();

/// Helpers running a piece of work at this moment (introspection for
/// tests: it reads 0 once every handoff in the process is settled).
int helpers_busy();

namespace detail {
struct HandoffJob;
}  // namespace detail

/// One piece of work offered to the helpers. The owner keeps whatever the
/// work writes to, and reads it only after settle() returned true.
class Handoff {
 public:
  /// Posts @p work to an idle helper; with none, no thread ever runs it.
  explicit Handoff(std::function<void()> work);
  /// Settles the work (see settle()).
  ~Handoff();

  Handoff(const Handoff&) = delete;
  Handoff& operator=(const Handoff&) = delete;

  /// After this returns no helper touches the work: it is withdrawn if no
  /// helper has started it, or waited for if one has. True iff a helper ran
  /// it to the end without throwing. Idempotent.
  bool settle();

 private:
  std::shared_ptr<detail::HandoffJob> job_;
};

}  // namespace meda::util
