#include "core/recovery.hpp"

#include <gtest/gtest.h>

namespace meda::core {
namespace {

TEST(Recovery, ActionNamesAreStable) {
  // The names appear in CSV output and execution reports; pin them.
  EXPECT_EQ(to_string(RecoveryAction::kWatchdogResense), "watchdog-resense");
  EXPECT_EQ(to_string(RecoveryAction::kSynthesisRetry), "synthesis-retry");
  EXPECT_EQ(to_string(RecoveryAction::kBackoff), "backoff");
  EXPECT_EQ(to_string(RecoveryAction::kQuarantine), "quarantine");
  EXPECT_EQ(to_string(RecoveryAction::kJobAbort), "job-abort");
}

TEST(Recovery, CountersAnyReflectsActivity) {
  RecoveryCounters counters;
  EXPECT_FALSE(counters.any());
  counters.backoff_cycles = 1;
  EXPECT_TRUE(counters.any());
  counters = RecoveryCounters{};
  counters.aborted_jobs = 1;
  EXPECT_TRUE(counters.any());
}

}  // namespace
}  // namespace meda::core
