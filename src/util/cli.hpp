#pragma once

#include <charconv>
#include <limits>
#include <string>
#include <type_traits>

#include "util/check.hpp"

/// @file cli.hpp
/// Tiny argv helpers shared by the bench drivers and examples. Boolean
/// flags are bare (`--full`); valued flags accept both `--flag value` and
/// `--flag=value`.
namespace meda::util {

/// True when @p name (e.g. "--resume") appears in argv, bare or as the
/// `--name=value` prefix.
bool has_flag(int argc, char** argv, const std::string& name);

/// Value of `--name value` / `--name=value`, or @p fallback when the flag is
/// absent. A bare `--name` that ends argv or is followed by another flag
/// (an argument starting with `--`) throws PreconditionError naming the
/// flag; a `--name=` value, empty or not, is returned as is, for the
/// caller's parser to judge.
std::string flag_value(int argc, char** argv, const std::string& name,
                       const std::string& fallback = "");

/// Parses the whole of @p text, the value of @p flag, as a T (an integer
/// type or double). Trailing characters, a sign an unsigned T cannot hold,
/// a value out of T's range and one below @p min throw PreconditionError
/// naming @p flag and the value.
template <typename T>
T parse_flag(const std::string& flag, const std::string& text,
             T min = std::numeric_limits<T>::lowest()) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error == std::errc{} && stop == end && !(value < min)) return value;
  std::string expected = "an integer";
  if constexpr (std::is_floating_point_v<T>)
    expected = "a number";
  else if (min > 0)
    expected += " >= " + std::to_string(min);
  else if (min == 0)
    expected = "a non-negative integer";
  throw PreconditionError(flag + ": expected " + expected + ", got '" +
                          text + "'");
}

/// Scans argv for `--jobs N` / `--jobs=N` (the bench drivers' shared flag)
/// and returns N, or @p default_jobs when absent. N = 0 conventionally
/// means one worker per CPU the process may run on (effective_jobs in
/// handoff.hpp). N must be a whole non-negative int; anything
/// else, or a trailing `--jobs` with no value, throws PreconditionError
/// naming the flag.
int parse_jobs_flag(int argc, char** argv, int default_jobs = 1);

}  // namespace meda::util
