#include "util/handoff.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace meda::util {
namespace {

using namespace std::chrono_literals;

/// Spins until @p done holds, for at most a few seconds.
template <typename F>
bool eventually(F&& done) {
  for (int i = 0; i < 5000 && !done(); ++i) std::this_thread::sleep_for(1ms);
  return done();
}

TEST(Handoff, HelpersAreOneFewerThanTheCpus) {
  EXPECT_GE(helper_count(), 0);
  EXPECT_LT(helper_count(),
            std::max(1, static_cast<int>(std::thread::hardware_concurrency())));
}

TEST(Handoff, AHelperRunsTheWorkAndSettleWaitsForIt) {
  if (helper_count() == 0) GTEST_SKIP() << "no helper threads here";
  std::atomic<bool> started{false}, release{false};
  int written = 0;
  Handoff handoff([&] {
    started = true;
    while (!release) std::this_thread::yield();
    written = 7;
  });
  ASSERT_TRUE(eventually([&] { return started.load(); }));
  EXPECT_EQ(helpers_busy(), 1);
  std::thread releaser([&] {
    std::this_thread::sleep_for(5ms);
    release = true;
  });
  EXPECT_TRUE(handoff.settle());  // waits for the running work
  releaser.join();
  EXPECT_EQ(written, 7);
  EXPECT_EQ(helpers_busy(), 0);
  EXPECT_TRUE(handoff.settle());  // idempotent
}

TEST(Handoff, SettlingWithdrawsWorkNoHelperStarted) {
  if (helper_count() == 0) GTEST_SKIP() << "no helper threads here";
  // Occupy every helper, so the next handoff finds none free.
  std::atomic<bool> release{false};
  std::vector<std::unique_ptr<Handoff>> blockers;
  while (helpers_busy() < helper_count()) {
    blockers.push_back(std::make_unique<Handoff>([&] {
      while (!release) std::this_thread::yield();
    }));
    std::this_thread::sleep_for(1ms);
  }
  std::atomic<bool> ran{false};
  Handoff late([&] { ran = true; });
  EXPECT_FALSE(late.settle());
  release = true;
  blockers.clear();
  EXPECT_FALSE(ran.load());
  EXPECT_EQ(helpers_busy(), 0);
}

TEST(Handoff, WorkThatThrowsSettlesAsNotRun) {
  if (helper_count() == 0) GTEST_SKIP() << "no helper threads here";
  std::atomic<bool> started{false};
  Handoff handoff([&] {
    started = true;
    throw std::runtime_error("boom");
  });
  if (!eventually([&] { return started.load(); }))
    GTEST_SKIP() << "no helper picked the work up";
  EXPECT_FALSE(handoff.settle());
  // The helper survives and takes the next piece of work.
  std::atomic<bool> ran{false};
  Handoff next([&] { ran = true; });
  EXPECT_TRUE(eventually([&] { return ran.load(); }));
  EXPECT_TRUE(next.settle());
}

TEST(Handoff, DestructionSettles) {
  std::atomic<int> count{0};
  {
    std::vector<std::unique_ptr<Handoff>> handoffs;
    for (int i = 0; i < 16; ++i)
      handoffs.push_back(std::make_unique<Handoff>([&] { ++count; }));
  }
  // Every handoff was run or withdrawn; none runs after its owner is gone.
  const int settled = count.load();
  std::this_thread::sleep_for(5ms);
  EXPECT_EQ(count.load(), settled);
  EXPECT_EQ(helpers_busy(), 0);
}

TEST(EffectiveJobs, CapsByItemCountAndResolvesAuto) {
  // One CPU count: the helpers plus the calling thread.
  const int cpus = helper_count() + 1;
  EXPECT_EQ(effective_jobs(4, 100), std::min(4, cpus));
  EXPECT_EQ(effective_jobs(8, 3), std::min(3, cpus));  // never more than items
  EXPECT_EQ(effective_jobs(1, 100), 1);
  EXPECT_EQ(effective_jobs(0, 100), cpus);  // 0 = one per CPU
  EXPECT_EQ(effective_jobs(-1, 100), cpus);
  EXPECT_EQ(effective_jobs(cpus + 7, 100), cpus);  // never more than CPUs
  EXPECT_EQ(effective_jobs(4, 0), 1);
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

TEST(ParallelFor, RunsOnTheCallerWhenEveryHelperIsBusy) {
  // Occupy every helper, so no copy of the loop finds one free: the calling
  // thread covers every index itself, and nothing waits for a helper.
  std::atomic<bool> release{false};
  std::vector<std::unique_ptr<Handoff>> blockers;
  while (helpers_busy() < helper_count()) {
    blockers.push_back(std::make_unique<Handoff>([&] {
      while (!release) std::this_thread::yield();
    }));
    std::this_thread::sleep_for(1ms);
  }
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> visits(64, 0);
  std::vector<std::thread::id> ran_on(visits.size());
  parallel_for(0, visits.size(), [&](std::size_t i) {
    ++visits[i];
    ran_on[i] = std::this_thread::get_id();
  });
  release = true;
  blockers.clear();
  for (std::size_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i], 1) << "i=" << i;
    EXPECT_EQ(ran_on[i], caller) << "i=" << i;
  }
  EXPECT_EQ(helpers_busy(), 0);
}

}  // namespace
}  // namespace meda::util
