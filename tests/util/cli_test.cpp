#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

namespace meda::util {
namespace {

/// The message parse_flag throws for @p text, or "" when it parses.
template <typename T>
std::string rejection(const std::string& text,
                      T min = std::numeric_limits<T>::lowest()) {
  try {
    parse_flag<T>("--flag", text, min);
  } catch (const PreconditionError& e) {
    return e.what();
  }
  return "";
}

TEST(ParseFlag, ParsesWholeValues) {
  EXPECT_EQ(parse_flag<int>("--runs", "12"), 12);
  EXPECT_EQ(parse_flag<int>("--reactive", "-3"), -3);
  EXPECT_EQ(parse_flag<int>("--runs", "1", 1), 1);
  EXPECT_EQ(parse_flag<std::uint64_t>("--seed", "18446744073709551615"),
            18446744073709551615ull);
  EXPECT_DOUBLE_EQ(parse_flag<double>("--threshold", "1.25"), 1.25);
  EXPECT_DOUBLE_EQ(parse_flag<double>("--threshold", "2e-1"), 0.2);
}

TEST(ParseFlag, RejectsTrailingCharacters) {
  for (const char* text : {"2x", "4 ", " 4", "1.5", "0x10", ""})
    EXPECT_NE(rejection<int>(text), "") << "'" << text << "'";
  EXPECT_NE(rejection<double>("2x"), "");
  EXPECT_NE(rejection<double>("1.25.0"), "");
  EXPECT_NE(rejection<std::uint64_t>("7seven"), "");
}

TEST(ParseFlag, RejectsOutOfRangeValues) {
  EXPECT_NE(rejection<int>("99999999999"), "");
  EXPECT_NE(rejection<int>("-99999999999"), "");
  EXPECT_NE(rejection<std::uint64_t>("18446744073709551616"), "");
  EXPECT_NE(rejection<double>("1e999"), "");
}

TEST(ParseFlag, RejectsNegativesForUnsignedTypes) {
  const std::string message = rejection<std::uint64_t>("-1");
  EXPECT_NE(message.find("a non-negative integer"), std::string::npos)
      << message;
  EXPECT_NE(rejection<unsigned>("-0"), "");
}

TEST(ParseFlag, RejectsValuesBelowTheMinimum) {
  EXPECT_NE(rejection<int>("0", 1), "");
  EXPECT_NE(rejection<int>("-1", 0), "");
  EXPECT_NE(rejection<double>("-0.5", 0.0), "");
  EXPECT_EQ(rejection<int>("0", 0), "");
  const std::string message = rejection<int>("0", 1);
  EXPECT_NE(message.find("an integer >= 1"), std::string::npos) << message;
}

TEST(ParseFlag, ATrailingFlagWithoutAValueIsRejected) {
  // Spaced: the flag ends argv, so there is no value to read.
  const char* spaced[] = {"bench", "A.json", "B.json", "--threshold"};
  try {
    flag_value(4, const_cast<char**>(spaced), "--threshold", "1.25");
    ADD_FAILURE() << "a trailing --threshold fell back to its default";
  } catch (const PreconditionError& e) {
    EXPECT_STREQ(e.what(), "--threshold: missing value");
  }
  // Glued: the value is empty, and the typed parse rejects it by name.
  const char* glued[] = {"bench", "A.json", "B.json", "--threshold="};
  const std::string value =
      flag_value(4, const_cast<char**>(glued), "--threshold", "1.25");
  EXPECT_EQ(value, "");
  try {
    parse_flag<double>("--threshold", value);
    ADD_FAILURE() << "an empty --threshold= was accepted";
  } catch (const PreconditionError& e) {
    EXPECT_STREQ(e.what(), "--threshold: expected a number, got ''");
  }
  // A flag that is absent still falls back, and one with a value reads it.
  EXPECT_EQ(flag_value(3, const_cast<char**>(spaced), "--threshold", "1.25"),
            "1.25");
  const char* valued[] = {"bench", "--threshold", "2"};
  EXPECT_EQ(flag_value(3, const_cast<char**>(valued), "--threshold", "1.25"),
            "2");
}

TEST(ParseFlag, AFollowingFlagIsNotAValue) {
  // `chaos_campaign --checkpoint --smoke` must not write its checkpoint to a
  // file named `--smoke`.
  const char* spaced[] = {"chaos_campaign", "--checkpoint", "--smoke",
                          "--jobs", "2"};
  try {
    flag_value(5, const_cast<char**>(spaced), "--checkpoint", "");
    ADD_FAILURE() << "--checkpoint took --smoke as its value";
  } catch (const PreconditionError& e) {
    EXPECT_STREQ(e.what(), "--checkpoint: missing value");
  }
  // A single-dash value, such as a negative number, is still a value, and
  // the glued form accepts anything.
  const char* negative[] = {"run_assay", "--reactive", "-3"};
  EXPECT_EQ(flag_value(3, const_cast<char**>(negative), "--reactive"), "-3");
  const char* glued[] = {"chaos_campaign", "--checkpoint=--smoke"};
  EXPECT_EQ(flag_value(2, const_cast<char**>(glued), "--checkpoint"),
            "--smoke");
}

TEST(ParseFlag, MessageNamesTheFlagAndTheValue) {
  try {
    parse_flag<int>("--reps", "abc", 1);
    ADD_FAILURE() << "'abc' was accepted";
  } catch (const PreconditionError& e) {
    EXPECT_STREQ(e.what(), "--reps: expected an integer >= 1, got 'abc'");
  }
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
