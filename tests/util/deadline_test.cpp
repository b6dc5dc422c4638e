#include "util/deadline.hpp"

#include <gtest/gtest.h>

namespace meda::util {
namespace {

TEST(Deadline, DefaultTokenIsInactiveAndNeverExpires) {
  Deadline d;
  EXPECT_FALSE(d.active());
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(d.expired());
}

TEST(Deadline, CheckBudgetSurvivesExactlyNPolls) {
  Deadline d = Deadline::after_checks(3);
  EXPECT_TRUE(d.active());
  EXPECT_FALSE(d.expired());  // poll 1
  EXPECT_FALSE(d.expired());  // poll 2
  EXPECT_FALSE(d.expired());  // poll 3
  EXPECT_TRUE(d.expired());   // poll 4: budget exhausted
}

TEST(Deadline, ZeroCheckBudgetIsAlreadyExpired) {
  Deadline d = Deadline::after_checks(0);
  EXPECT_TRUE(d.expired());
}

TEST(Deadline, ExpiryIsSticky) {
  Deadline d = Deadline::after_checks(1);
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(d.expired());
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(d.expired());
}

TEST(Deadline, CopiesShareTheBudgetAndTheExpiry) {
  // The solver stack passes Deadline by value (SolveConfig copies); every
  // copy must drain the same budget and observe the same expiry — this is
  // what lets an expired pmax self-terminate the following rmin.
  Deadline a = Deadline::after_checks(2);
  Deadline b = a;
  EXPECT_FALSE(a.expired());  // drains the shared budget
  EXPECT_FALSE(b.expired());
  EXPECT_TRUE(a.expired());
  EXPECT_TRUE(b.expired());
}

TEST(Deadline, CheckBudgetBoundaryIsDeterministic) {
  // Exhaustion exactly at the boundary: budget N flips on poll N+1, on
  // every machine, with no time component involved.
  for (const std::uint64_t budget : {1ull, 7ull, 64ull}) {
    Deadline d = Deadline::after_checks(budget);
    for (std::uint64_t poll = 0; poll < budget; ++poll)
      EXPECT_FALSE(d.expired()) << "budget=" << budget << " poll=" << poll;
    EXPECT_TRUE(d.expired()) << "budget=" << budget;
  }
}

}  // namespace
}  // namespace meda::util
