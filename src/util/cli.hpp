#pragma once

#include <charconv>
#include <limits>
#include <string>
#include <type_traits>

#include "util/check.hpp"

/// @file cli.hpp
/// Tiny argv helpers shared by the bench drivers and examples. Flags follow
/// the same conventions as parse_jobs_flag (thread_pool.hpp): boolean flags
/// are bare (`--full`), valued flags accept both `--flag value` and
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

}  // namespace meda::util
