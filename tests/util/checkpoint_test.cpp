#include "util/checkpoint.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "util/check.hpp"

namespace meda::util {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(DigestBuilder, DistinguishesValuesAndOrder) {
  EXPECT_NE(DigestBuilder().mix(1).value(), DigestBuilder().mix(2).value());
  EXPECT_NE(DigestBuilder().mix(1).mix(2).value(),
            DigestBuilder().mix(2).mix(1).value());
}

TEST(DigestBuilder, StringsAreLengthPrefixed) {
  // Without the length prefix "ab"+"c" and "a"+"bc" would hash the same
  // byte stream — and two assay lists could share a checkpoint digest.
  EXPECT_NE(
      DigestBuilder().mix(std::string("ab")).mix(std::string("c")).value(),
      DigestBuilder().mix(std::string("a")).mix(std::string("bc")).value());
}

TEST(SlotCheckpoint, InactiveByDefault) {
  SlotCheckpoint cp;
  EXPECT_FALSE(cp.active());
  EXPECT_EQ(cp.restored(0), nullptr);
  cp.record(0, "ignored");  // no-op, must not throw
  cp.flush();
}

TEST(SlotCheckpoint, RoundTripsRecordedSlots) {
  const std::string path = temp_path("cp_roundtrip.txt");
  std::remove(path.c_str());
  {
    SlotCheckpoint cp;
    cp.open(path, 0xABCDu, false, 4);
    EXPECT_TRUE(cp.active());
    cp.record(0, "alpha");
    cp.record(2, "gamma 3 4");
    cp.flush();
  }
  SlotCheckpoint resumed;
  resumed.open(path, 0xABCDu, true, 4);
  EXPECT_EQ(resumed.restored_count(), 2u);
  ASSERT_NE(resumed.restored(0), nullptr);
  EXPECT_EQ(*resumed.restored(0), "alpha");
  EXPECT_EQ(resumed.restored(1), nullptr);
  ASSERT_NE(resumed.restored(2), nullptr);
  EXPECT_EQ(*resumed.restored(2), "gamma 3 4");
  EXPECT_EQ(resumed.restored(3), nullptr);
}

TEST(SlotCheckpoint, DigestMismatchStartsFresh) {
  const std::string path = temp_path("cp_digest.txt");
  std::remove(path.c_str());
  {
    SlotCheckpoint cp;
    cp.open(path, 1, false, 2);
    cp.record(0, "old config");
    cp.flush();
  }
  SlotCheckpoint resumed;
  resumed.open(path, 2, true, 2);  // different digest: incompatible
  EXPECT_EQ(resumed.restored_count(), 0u);
  EXPECT_EQ(resumed.restored(0), nullptr);
}

TEST(SlotCheckpoint, SlotCountMismatchStartsFresh) {
  const std::string path = temp_path("cp_count.txt");
  std::remove(path.c_str());
  {
    SlotCheckpoint cp;
    cp.open(path, 7, false, 2);
    cp.record(0, "two-slot grid");
    cp.flush();
  }
  SlotCheckpoint resumed;
  resumed.open(path, 7, true, 3);
  EXPECT_EQ(resumed.restored_count(), 0u);
}

TEST(SlotCheckpoint, ResumeFalseIgnoresTheExistingFile) {
  const std::string path = temp_path("cp_noresume.txt");
  std::remove(path.c_str());
  {
    SlotCheckpoint cp;
    cp.open(path, 7, false, 2);
    cp.record(0, "stale");
    cp.flush();
  }
  SlotCheckpoint fresh;
  fresh.open(path, 7, false, 2);
  EXPECT_EQ(fresh.restored_count(), 0u);
}

TEST(SlotCheckpoint, TruncatedFileRestoresOnlyCompleteLines) {
  // Simulates a kill mid-write with a pre-rename tool: a torn trailing line
  // must not poison the resume — its slot is simply recomputed.
  const std::string path = temp_path("cp_torn.txt");
  std::remove(path.c_str());
  {
    SlotCheckpoint cp;
    cp.open(path, 9, false, 3);
    cp.record(0, "complete");
    cp.record(1, "will be torn");
    cp.flush();
  }
  std::string content = read_file(path);
  ASSERT_FALSE(content.empty());
  content.resize(content.size() - 8);  // tear the tail of the last line
  {
    std::ofstream out(path, std::ios::trunc);
    out << content;
  }
  SlotCheckpoint resumed;
  resumed.open(path, 9, true, 3);
  EXPECT_EQ(resumed.restored_count(), 1u);
  ASSERT_NE(resumed.restored(0), nullptr);
  EXPECT_EQ(*resumed.restored(0), "complete");
  EXPECT_EQ(resumed.restored(1), nullptr);
}

TEST(SlotCheckpoint, FlushEveryRewritesPeriodically) {
  const std::string path = temp_path("cp_periodic.txt");
  std::remove(path.c_str());
  SlotCheckpoint cp;
  cp.open(path, 5, false, kCheckpointFlushEvery + 1);
  const auto payload = [](int slot) { return "p" + std::to_string(slot); };
  for (int slot = 0; slot < kCheckpointFlushEvery - 1; ++slot) {
    cp.record(static_cast<std::size_t>(slot), payload(slot));
    EXPECT_TRUE(read_file(path).empty()) << slot;  // below the cadence
  }
  const int last = kCheckpointFlushEvery - 1;
  cp.record(static_cast<std::size_t>(last), payload(last));  // writes
  const std::string content = read_file(path);
  EXPECT_NE(content.find("meda-checkpoint v1"), std::string::npos);
  for (int slot = 0; slot <= last; ++slot)
    EXPECT_NE(content.find(std::to_string(slot) + " " + payload(slot)),
              std::string::npos)
        << slot;
}

TEST(SlotCheckpoint, RejectsMultilinePayloadsAndBadSlots) {
  SlotCheckpoint cp;
  cp.open(temp_path("cp_reject.txt"), 5, false, 2);
  EXPECT_THROW(cp.record(0, "two\nlines"), PreconditionError);
  EXPECT_THROW(cp.record(2, "out of range"), PreconditionError);
}

}  // namespace
}  // namespace meda::util
