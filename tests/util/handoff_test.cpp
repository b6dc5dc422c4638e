#include "util/handoff.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
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

}  // namespace
}  // namespace meda::util
