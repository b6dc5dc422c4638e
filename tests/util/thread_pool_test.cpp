#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace meda::util {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i)
      pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
  }
}

TEST(ThreadPool, WaitRethrowsTheFirstTaskException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task boom"); });
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // The pool stays usable after the error is collected.
  std::atomic<int> count{0};
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, RejectsNonPositiveWorkerCounts) {
  EXPECT_THROW(ThreadPool pool(0), PreconditionError);
}

TEST(EffectiveJobs, CapsByItemCountAndResolvesAuto) {
  EXPECT_EQ(effective_jobs(4, 100), 4);
  EXPECT_EQ(effective_jobs(8, 3), 3);     // never more workers than items
  EXPECT_EQ(effective_jobs(1, 100), 1);
  EXPECT_GE(effective_jobs(0, 100), 1);   // 0 = hardware concurrency
  EXPECT_GE(effective_jobs(-1, 100), 1);
}

TEST(ParallelFor, VisitsEachIndexExactlyOnce) {
  for (const int jobs : {1, 2, 8}) {
    std::vector<std::atomic<int>> visits(257);
    for (auto& v : visits) v.store(0);
    parallel_for(jobs, visits.size(),
                 [&](std::size_t i) { visits[i].fetch_add(1); });
    for (std::size_t i = 0; i < visits.size(); ++i)
      EXPECT_EQ(visits[i].load(), 1) << "jobs=" << jobs << " i=" << i;
  }
}

TEST(ParallelFor, SerialFallbackPreservesOrder) {
  // jobs = 1 must run on the calling thread, in index order.
  std::vector<std::size_t> order;
  parallel_for(1, 10, [&](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(ParallelFor, SlotWritesMatchTheSerialPath) {
  // The campaign pattern: each index writes its own slot; the gathered
  // result must be identical at any job count.
  auto run = [](int jobs) {
    std::vector<double> slots(64, 0.0);
    parallel_for(jobs, slots.size(), [&](std::size_t i) {
      slots[i] = static_cast<double>(i * i) / 7.0;
    });
    return slots;
  };
  const std::vector<double> serial = run(1);
  EXPECT_EQ(run(4), serial);
  EXPECT_EQ(run(16), serial);
}

TEST(ParallelFor, PropagatesBodyExceptions) {
  EXPECT_THROW(
      parallel_for(4, 32,
                   [](std::size_t i) {
                     if (i == 17) throw std::runtime_error("body boom");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, EmptyRangeIsANoOp) {
  parallel_for(4, 0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ShutdownUnderLoadDrainsEveryQueuedJob) {
  // A long-lived service destroys its pool while jobs are still queued; the
  // destructor must drain them deterministically — every submitted job runs
  // exactly once, no hang, no drop. Slow jobs keep the queue non-empty at
  // destruction time.
  std::atomic<int> executed{0};
  constexpr int kJobs = 64;
  {
    ThreadPool pool(2);
    for (int i = 0; i < kJobs; ++i) {
      pool.submit([&executed] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        executed.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // No wait(): destruction races the queue on purpose.
  }
  EXPECT_EQ(executed.load(), kJobs);
}

TEST(ThreadPool, ShutdownUnderLoadWithThrowingJobsDoesNotHang) {
  // Destruction with queued jobs that throw: errors are swallowed by the
  // drain (there is no wait() left to rethrow into), but every job still
  // runs and the destructor still joins.
  std::atomic<int> executed{0};
  constexpr int kJobs = 32;
  {
    ThreadPool pool(3);
    for (int i = 0; i < kJobs; ++i) {
      pool.submit([&executed, i] {
        executed.fetch_add(1, std::memory_order_relaxed);
        if (i % 2 == 0) throw std::runtime_error("job boom");
      });
    }
  }
  EXPECT_EQ(executed.load(), kJobs);
}

TEST(ParseJobsFlag, ParsesBothSpellings) {
  const char* argv1[] = {"bench", "--jobs", "4"};
  EXPECT_EQ(parse_jobs_flag(3, const_cast<char**>(argv1)), 4);
  const char* argv2[] = {"bench", "--jobs=8"};
  EXPECT_EQ(parse_jobs_flag(2, const_cast<char**>(argv2)), 8);
  const char* argv3[] = {"bench"};
  EXPECT_EQ(parse_jobs_flag(1, const_cast<char**>(argv3)), 1);
  EXPECT_EQ(parse_jobs_flag(1, const_cast<char**>(argv3), 7), 7);
  const char* argv4[] = {"bench", "--jobs=0"};
  EXPECT_EQ(parse_jobs_flag(2, const_cast<char**>(argv4)), 0);
}

TEST(ParseJobsFlag, ATrailingFlagWithoutAValueIsRejected) {
  const char* spaced[] = {"bench", "--smoke", "--jobs"};
  const char* glued[] = {"bench", "--smoke", "--jobs="};
  for (const char** argv : {spaced, glued}) {
    try {
      parse_jobs_flag(3, const_cast<char**>(argv), 4);
      ADD_FAILURE() << "a trailing " << argv[2] << " ran on the default";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("--jobs"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ParseJobsFlag, RejectsMalformedValues) {
  for (const char* value : {"abc", "4x", "-1", "99999999999", ""}) {
    const char* spaced[] = {"bench", "--jobs", value};
    try {
      parse_jobs_flag(3, const_cast<char**>(spaced));
      ADD_FAILURE() << "--jobs '" << value << "' was accepted";
    } catch (const PreconditionError& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("--jobs"), std::string::npos) << message;
      EXPECT_NE(message.find("'" + std::string(value) + "'"),
                std::string::npos)
          << message;
    }
    const std::string joined = std::string("--jobs=") + value;
    const char* glued[] = {"bench", joined.c_str()};
    EXPECT_THROW(parse_jobs_flag(2, const_cast<char**>(glued)),
                 PreconditionError)
        << joined;
  }
}

}  // namespace
}  // namespace meda::util
