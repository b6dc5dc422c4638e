#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "obs/capture.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace meda::obs {

namespace {

/// Exponent e such that a positive value lands in the log2 bucket
/// (2^(e-1), 2^e]. Exact powers of two land on their own bound, mirroring
/// the cumulative `value ≤ bound` convention of the fixed layouts.
int log2_bucket(double value) {
  int e = 0;
  const double m = std::frexp(value, &e);  // value = m * 2^e, m in [0.5, 1)
  return m == 0.5 ? e - 1 : e;
}

}  // namespace

Histogram::Histogram(std::span<const double> upper_bounds)
    : bounds_(upper_bounds.begin(), upper_bounds.end()),
      counts_(upper_bounds.size(), 0) {
  MEDA_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()),
               "histogram bounds must ascend");
}

Histogram Histogram::log2() {
  Histogram h;
  h.kind_ = Kind::kLog2;
  return h;
}

void Histogram::observe(double value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  if (kind_ == Kind::kFixed) {
    for (std::size_t i = 0; i < bounds_.size(); ++i) {
      if (value <= bounds_[i]) {
        // Cumulative buckets: every bound ≥ value counts the observation.
        for (std::size_t j = i; j < bounds_.size(); ++j) ++counts_[j];
        return;
      }
    }
  } else if (value <= 0.0) {
    ++zero_count_;
  } else {
    ++log2_counts_[log2_bucket(value)];
  }
}

std::vector<std::pair<double, std::uint64_t>> Histogram::cumulative_buckets()
    const {
  std::vector<std::pair<double, std::uint64_t>> out;
  if (kind_ == Kind::kFixed) {
    out.reserve(bounds_.size());
    for (std::size_t i = 0; i < bounds_.size(); ++i)
      out.emplace_back(bounds_[i], counts_[i]);
    return out;
  }
  // Log2: render a gap-free run of power-of-two bounds spanning the
  // observed exponents, with a leading 0 bound when non-positive values
  // were seen. The rendered list depends only on the observation multiset,
  // which keeps snapshots deterministic at any --jobs count.
  std::uint64_t cumulative = zero_count_;
  if (zero_count_ > 0) out.emplace_back(0.0, cumulative);
  if (!log2_counts_.empty()) {
    const int lo = log2_counts_.begin()->first;
    const int hi = log2_counts_.rbegin()->first;
    for (int e = lo; e <= hi; ++e) {
      const auto it = log2_counts_.find(e);
      if (it != log2_counts_.end()) cumulative += it->second;
      out.emplace_back(std::ldexp(1.0, e), cumulative);
    }
  }
  return out;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(count_))));
  double at = max_;  // ranks past the last finite bucket fall in +Inf
  for (const auto& [bound, cumulative] : cumulative_buckets()) {
    if (cumulative >= rank) {
      at = bound;
      break;
    }
  }
  return std::clamp(at, min_, max_);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  s.count = count_;
  s.sum = sum_;
  s.min = min();
  s.max = max();
  s.p50 = quantile(0.50);
  s.p90 = quantile(0.90);
  s.p99 = quantile(0.99);
  return s;
}

void MetricsRegistry::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

void MetricsRegistry::add(std::string_view name, std::uint64_t delta) {
  if (!enabled()) return;
  if (Capture* capture = Capture::diverting(*this)) {
    capture->metrics_.push_back(
        {Capture::MetricRecord::Kind::kAdd, std::string(name), delta, 0.0, {}});
    return;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) {
    it->second += delta;
  } else {
    counters_.emplace(std::string(name), delta);
  }
}

void MetricsRegistry::set(std::string_view name, double value) {
  if (!enabled()) return;
  if (Capture* capture = Capture::diverting(*this)) {
    capture->metrics_.push_back(
        {Capture::MetricRecord::Kind::kSet, std::string(name), 0, value, {}});
    return;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) {
    it->second = value;
  } else {
    gauges_.emplace(std::string(name), value);
  }
}

void MetricsRegistry::observe(std::string_view name, double value,
                              std::span<const double> upper_bounds) {
  if (!enabled()) return;
  if (Capture* capture = Capture::diverting(*this)) {
    capture->metrics_.push_back(
        {Capture::MetricRecord::Kind::kObserve, std::string(name), 0, value,
         std::vector<double>(upper_bounds.begin(), upper_bounds.end())});
    return;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram(upper_bounds))
             .first;
  }
  it->second.observe(value);
}

void MetricsRegistry::observe_log2(std::string_view name, double value) {
  if (!enabled()) return;
  if (Capture* capture = Capture::diverting(*this)) {
    capture->metrics_.push_back(
        {Capture::MetricRecord::Kind::kObserveLog2, std::string(name), 0,
         value, {}});
    return;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram::log2()).first;
  }
  it->second.observe(value);
}

std::uint64_t MetricsRegistry::counter(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second : 0;
}

double MetricsRegistry::gauge(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  return it != gauges_.end() ? it->second : 0.0;
}

const Histogram* MetricsRegistry::histogram(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = histograms_.find(name);
  return it != histograms_.end() ? &it->second : nullptr;
}

namespace {

/// Shortest round-trip double rendering (snapshots must be stable).
std::string fmt_value(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  std::string s = os.str();
  // Prefer the shorter fixed form when it round-trips.
  std::ostringstream brief;
  brief.precision(12);
  brief << v;
  if (std::stod(brief.str()) == v) s = brief.str();
  return s;
}

}  // namespace

std::string MetricsRegistry::snapshot_text() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  for (const auto& [name, value] : counters_)
    os << name << ' ' << value << '\n';
  for (const auto& [name, value] : gauges_)
    os << name << ' ' << fmt_value(value) << '\n';
  for (const auto& [name, h] : histograms_) {
    for (const auto& [bound, cumulative] : h.cumulative_buckets())
      os << name << "{le=\"" << fmt_value(bound) << "\"} " << cumulative
         << '\n';
    os << name << "{le=\"+Inf\"} " << h.count() << '\n';
    const HistogramSnapshot s = h.snapshot();
    os << name << "_sum " << fmt_value(s.sum) << '\n';
    os << name << "_count " << s.count << '\n';
    os << name << "_min " << fmt_value(s.min) << '\n';
    os << name << "_max " << fmt_value(s.max) << '\n';
    os << name << "_p50 " << fmt_value(s.p50) << '\n';
    os << name << "_p90 " << fmt_value(s.p90) << '\n';
    os << name << "_p99 " << fmt_value(s.p99) << '\n';
  }
  return os.str();
}

std::string MetricsRegistry::snapshot_json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    os << (first ? "" : ",") << "\n    " << json_quote(name) << ": "
       << value;
    first = false;
  }
  os << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges_) {
    os << (first ? "" : ",") << "\n    " << json_quote(name) << ": "
       << fmt_value(value);
    first = false;
  }
  os << "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    const HistogramSnapshot s = h.snapshot();
    os << (first ? "" : ",") << "\n    " << json_quote(name)
       << ": {\"count\": " << s.count << ", \"sum\": " << fmt_value(s.sum)
       << ", \"min\": " << fmt_value(s.min)
       << ", \"max\": " << fmt_value(s.max)
       << ", \"p50\": " << fmt_value(s.p50)
       << ", \"p90\": " << fmt_value(s.p90)
       << ", \"p99\": " << fmt_value(s.p99) << ", \"buckets\": [";
    bool first_bucket = true;
    for (const auto& [bound, cumulative] : h.cumulative_buckets()) {
      os << (first_bucket ? "" : ",") << "{\"le\": " << fmt_value(bound)
         << ", \"count\": " << cumulative << "}";
      first_bucket = false;
    }
    os << "]}";
    first = false;
  }
  os << "\n  }\n}\n";
  return os.str();
}

void MetricsRegistry::write_snapshot(const std::string& path) const {
  std::ofstream out(path);
  MEDA_REQUIRE(out.is_open(), "cannot open " + path + " for writing");
  out << (path.size() >= 5 && path.substr(path.size() - 5) == ".json"
              ? snapshot_json()
              : snapshot_text());
}

}  // namespace meda::obs
