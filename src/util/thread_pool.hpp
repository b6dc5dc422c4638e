#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include <condition_variable>
#include <exception>

/// @file thread_pool.hpp
/// Minimal fixed-size worker pool for the embarrassingly-parallel layers
/// (campaign trial loops, bench drivers). Deliberately small: a FIFO task
/// queue, N workers, and first-exception propagation — no futures, no work
/// stealing, no task priorities.
///
/// Determinism contract: the pool parallelizes *independent* tasks whose
/// outputs go to preallocated slots; callers reduce the slots serially in a
/// fixed order afterwards. Nothing about scheduling order may influence
/// results — see parallel_for() and docs/performance.md.

namespace meda::util {

/// Fixed-size worker pool. Tasks run in submission order (FIFO pickup, but
/// completion order is unspecified). Destruction drains the queue and joins.
class ThreadPool {
 public:
  /// Spawns @p threads workers; @p threads must be >= 1.
  explicit ThreadPool(int threads);

  /// Waits for all submitted tasks, then joins the workers. Task exceptions
  /// not yet collected via wait() are dropped — call wait() first when you
  /// care about them.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task. Safe to call from any thread, including workers.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished, then rethrows the
  /// first task exception (if any; later ones are dropped).
  void wait();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;  ///< queued + running tasks
  bool stopping_ = false;
  std::exception_ptr first_error_;
};

/// The effective worker count for @p jobs over @p count items: @p jobs
/// capped by @p count, with jobs <= 0 meaning "one per hardware thread".
int effective_jobs(int jobs, std::size_t count);

/// Runs body(0) … body(count-1), distributing indices over
/// effective_jobs(jobs, count) workers (dynamic pickup — items need not
/// take uniform time). jobs <= 1 degenerates to a plain serial loop on the
/// calling thread with zero threading overhead.
///
/// The first exception thrown by @p body is rethrown here; once one is
/// raised, remaining indices may be skipped. @p body must make each index
/// independent of every other (write to its own slot, seed its own RNG from
/// the index), so that results are identical at any job count.
void parallel_for(int jobs, std::size_t count,
                  const std::function<void(std::size_t)>& body);

/// Scans argv for `--jobs N` / `--jobs=N` (the bench drivers' shared flag)
/// and returns N, or @p default_jobs when absent. N = 0 conventionally
/// means "one worker per hardware thread" (see effective_jobs). N must be
/// a whole non-negative int; anything else, or a trailing `--jobs` with no
/// value, throws PreconditionError naming the flag.
int parse_jobs_flag(int argc, char** argv, int default_jobs = 1);

}  // namespace meda::util
