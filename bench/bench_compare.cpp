// bench_compare: diff two Google-Benchmark JSON files and flag regressions.
//
//   bench_compare BASELINE.json CANDIDATE.json [options]
//
//   --threshold R   relative slowdown that counts as a regression
//                   (default 1.25: candidate > 1.25x baseline fails)
//   --metric M      cpu (default) or real time
//   --json PATH     also write the diff as machine-readable JSON
//
// Exit codes: 0 = no regression beyond threshold, 1 = at least one
// regression, 2 = usage or parse error. The human report prints every
// matched benchmark with its ratio, then added/removed names; CI runs this
// against the committed BENCH_synthesis.json baseline (see
// docs/performance.md for the BENCH_history/ trajectory convention).

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/benchjson.hpp"
#include "util/cli.hpp"

namespace {

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

std::string fmt_ns(double ns) {
  char buf[64];
  if (ns >= 1e9) {
    std::snprintf(buf, sizeof buf, "%.3f s", ns / 1e9);
  } else if (ns >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.3f ms", ns / 1e6);
  } else if (ns >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.3f us", ns / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.0f ns", ns);
  }
  return buf;
}

}  // namespace

int main(int argc, char** argv) try {
  using meda::util::flag_value;
  using meda::util::has_flag;

  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      // Skip a valued flag's detached value.
      if ((arg == "--threshold" || arg == "--metric" || arg == "--json") &&
          i + 1 < argc)
        ++i;
      continue;
    }
    files.push_back(arg);
  }
  if (has_flag(argc, argv, "--help") || files.size() != 2) {
    std::fprintf(stderr,
                 "usage: bench_compare BASELINE.json CANDIDATE.json"
                 " [--threshold R] [--metric cpu|real] [--json PATH]\n");
    return 2;
  }

  const double threshold = meda::util::parse_flag<double>(
      "--threshold", flag_value(argc, argv, "--threshold", "1.25"));
  if (!(threshold > 0.0)) {
    std::fprintf(stderr, "bench_compare: --threshold must be positive\n");
    return 2;
  }
  const std::string metric = flag_value(argc, argv, "--metric", "cpu");
  if (metric != "cpu" && metric != "real") {
    std::fprintf(stderr, "bench_compare: --metric must be cpu or real\n");
    return 2;
  }

  std::vector<meda::util::BenchEntry> baseline, candidate;
  for (int side = 0; side < 2; ++side) {
    std::string text, error;
    if (!read_file(files[side], text)) {
      std::fprintf(stderr, "bench_compare: cannot read %s\n",
                   files[side].c_str());
      return 2;
    }
    auto& entries = side == 0 ? baseline : candidate;
    if (!meda::util::parse_benchmark_json(text, entries, &error)) {
      std::fprintf(stderr, "bench_compare: %s: %s\n", files[side].c_str(),
                   error.c_str());
      return 2;
    }
  }

  const meda::util::BenchComparison diff =
      meda::util::compare_benchmarks(baseline, candidate, metric == "cpu");

  int regressions = 0;
  std::printf("bench_compare: %s vs %s (%s time, threshold %.2fx)\n",
              files[0].c_str(), files[1].c_str(), metric.c_str(), threshold);
  std::printf("%-40s %14s %14s %8s\n", "benchmark", "baseline", "candidate",
              "ratio");
  for (const meda::util::BenchDelta& d : diff.matched) {
    const bool regressed = d.ratio > threshold;
    if (regressed) ++regressions;
    std::printf("%-40s %14s %14s %7.2fx%s\n", d.name.c_str(),
                fmt_ns(d.baseline_ns).c_str(), fmt_ns(d.candidate_ns).c_str(),
                d.ratio, regressed ? "  REGRESSED" : "");
  }
  for (const std::string& name : diff.only_baseline)
    std::printf("%-40s removed (baseline only)\n", name.c_str());
  for (const std::string& name : diff.only_candidate)
    std::printf("%-40s added (candidate only)\n", name.c_str());
  std::printf("%d regression(s) beyond %.2fx across %zu matched benchmark(s)\n",
              regressions, threshold, diff.matched.size());

  const std::string json_path = flag_value(argc, argv, "--json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "bench_compare: cannot write %s\n",
                   json_path.c_str());
      return 2;
    }
    out << "{\n  \"threshold\": " << threshold << ",\n  \"metric\": \""
        << metric << "\",\n  \"regressions\": " << regressions
        << ",\n  \"benchmarks\": [";
    for (std::size_t i = 0; i < diff.matched.size(); ++i) {
      const meda::util::BenchDelta& d = diff.matched[i];
      out << (i ? "," : "") << "\n    {\"name\": \"" << d.name
          << "\", \"baseline_ns\": " << d.baseline_ns
          << ", \"candidate_ns\": " << d.candidate_ns
          << ", \"ratio\": " << d.ratio << ", \"regressed\": "
          << (d.ratio > threshold ? "true" : "false") << "}";
    }
    out << "\n  ],\n  \"only_baseline\": [";
    for (std::size_t i = 0; i < diff.only_baseline.size(); ++i)
      out << (i ? "," : "") << "\"" << diff.only_baseline[i] << "\"";
    out << "],\n  \"only_candidate\": [";
    for (std::size_t i = 0; i < diff.only_candidate.size(); ++i)
      out << (i ? "," : "") << "\"" << diff.only_candidate[i] << "\"";
    out << "]\n}\n";
  }

  return regressions > 0 ? 1 : 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "bench_compare: %s\n", e.what());
  return 2;
}
