#include "util/thread_pool.hpp"

#include <atomic>
#include <utility>

#include "util/check.hpp"
#include "util/cli.hpp"

namespace meda::util {

ThreadPool::ThreadPool(int threads) {
  MEDA_REQUIRE(threads >= 1, "thread pool needs at least one worker");
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++in_flight_;
    queue_.push_back(std::move(task));
  }
  task_ready_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_) {
    const std::exception_ptr error = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock,
                       [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      task();
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

int effective_jobs(int jobs, std::size_t count) {
  if (jobs <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    jobs = hw > 0 ? static_cast<int>(hw) : 1;
  }
  if (count < static_cast<std::size_t>(jobs))
    jobs = static_cast<int>(count);
  return jobs < 1 ? 1 : jobs;
}

void parallel_for(int jobs, std::size_t count,
                  const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  const int workers = effective_jobs(jobs, count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  ThreadPool pool(workers);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  for (int w = 0; w < workers; ++w) {
    pool.submit([&] {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < count && !failed.load(std::memory_order_relaxed);
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        try {
          body(i);
        } catch (...) {
          failed.store(true, std::memory_order_relaxed);
          throw;  // the pool records the first exception for wait()
        }
      }
    });
  }
  pool.wait();
}

int parse_jobs_flag(int argc, char** argv, int default_jobs) {
  if (!has_flag(argc, argv, "--jobs")) return default_jobs;
  return parse_flag<int>("--jobs", flag_value(argc, argv, "--jobs"), 0);
}

}  // namespace meda::util
