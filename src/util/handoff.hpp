#pragma once

#include <cstddef>
#include <functional>
#include <memory>

/// @file handoff.hpp
/// Work a thread hands to one of the process's helper threads and settles
/// later: an idle helper runs it in the meantime, or the owner takes it
/// back and does it itself.
///
/// The helpers are one thread fewer than the CPUs the process may run on
/// (hardware_concurrency() − 1 on an unrestricted host; none on a one-core
/// host), started on first use and shared by every caller in the process:
/// the scheduler's concurrent provisioning and parallel_for's loops. A
/// helper takes one piece of work at a time, and work that finds every
/// helper busy is never run by one; settling withdraws work no helper has
/// started. So an owner never waits for a busy pool to reach its work: it
/// only ever waits for work a helper is already running. A Handoff reduces
/// and rethrows nothing: the owner learns whether the work ran and decides
/// what to do with its output (the scheduler adopts it, or drops it and
/// synthesizes itself).

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

/// The worker count for @p jobs over @p count items: @p jobs, with
/// jobs <= 0 meaning one per CPU the process may run on (helper_count() + 1),
/// capped by that CPU count and by @p count; at least 1.
int effective_jobs(int jobs, std::size_t count);

/// Runs body(0) … body(count-1) over effective_jobs(jobs, count) workers
/// with dynamic pickup (items need not take uniform time): the calling
/// thread pulls indices itself and hands one copy of its loop per further
/// worker to the helpers. A copy no helper is free for never runs; the
/// calling thread covers its indices, so nothing queues. With one worker
/// the calling thread runs every index, in index order.
///
/// Every handoff is settled before this returns; the first exception thrown
/// by @p body is rethrown then, and once one is raised the remaining
/// indices may be skipped. Determinism contract: @p body makes each index
/// independent of every other (writes its own slot, seeds its own RNG from
/// the index) and the caller reduces the slots serially in a fixed order
/// afterwards, so results are identical at any job count — see
/// docs/performance.md.
void parallel_for(int jobs, std::size_t count,
                  const std::function<void(std::size_t)>& body);

}  // namespace meda::util
