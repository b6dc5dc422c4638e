#include "util/cli.hpp"

namespace meda::util {

bool has_flag(int argc, char** argv, const std::string& name) {
  const std::string prefix = name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == name || arg.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

std::string flag_value(int argc, char** argv, const std::string& name,
                       const std::string& fallback) {
  const std::string prefix = name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
    if (arg != name) continue;
    if (i + 1 == argc || std::string(argv[i + 1]).rfind("--", 0) == 0)
      throw PreconditionError(name + ": missing value");
    return argv[i + 1];
  }
  return fallback;
}

int parse_jobs_flag(int argc, char** argv, int default_jobs) {
  if (!has_flag(argc, argv, "--jobs")) return default_jobs;
  return parse_flag<int>("--jobs", flag_value(argc, argv, "--jobs"), 0);
}

}  // namespace meda::util
