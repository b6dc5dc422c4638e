#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// @file metrics.hpp
/// Metrics registry: named counters, gauges, and histograms with a stable
/// text/JSON snapshot format.
///
/// Series are created on first use and iterate in name order, so two runs
/// that record the same series produce byte-identical snapshots. Every
/// instrumented quantity except wall-clock time is deterministic for a fixed
/// seed; time-valued series are suffixed `_seconds` by convention so
/// downstream consumers (and the determinism tests) can strip them.
///
/// Histograms come in two kinds:
///
///  - **fixed-bucket** — caller-supplied ascending upper bounds (the shared
///    layouts below), an implicit +inf bucket on top;
///  - **log2-bucket** — bounds are powers of two, materialized lazily from
///    the observed range (plus a `0` bucket for non-positive values). Right
///    for open-ended integer quantities (entry ages, strategy sizes, sweep
///    counts) where no fixed layout fits every workload.
///
/// Both kinds track exact min/max/sum/count and derive deterministic
/// quantiles (p50/p90/p99) from the buckets: a quantile is the smallest
/// bucket upper bound covering the rank, clamped into [min, max]. Snapshots
/// are therefore byte-identical for the same multiset of observations —
/// the property the campaign determinism tests pin at any --jobs count.
///
/// Like the tracer, the registry is a null sink until enable() is called:
/// record calls check one flag and return.
///
/// Thread safety: record and read calls are mutex-protected so campaign
/// worker threads (util::ThreadPool) can share the process-global registry;
/// a scheduler's helper thread records through an obs::Capture instead,
/// replayed in order when the scheduler adopts its work.
/// Counters and histograms are commutative — their totals are identical at
/// any job count — but gauges are last-write-wins, so a gauge set from
/// concurrent workers keeps an arbitrary thread's value.

namespace meda::obs {

/// Derived summary of one histogram (see quantile() for the derivation).
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Bucketed distribution: counts of observations ≤ each upper bound, plus
/// an implicit +inf bucket, with exact count/sum/min/max on the side.
class Histogram {
 public:
  Histogram() = default;
  /// Fixed-bucket histogram over ascending @p upper_bounds.
  explicit Histogram(std::span<const double> upper_bounds);
  /// Log2-bucket histogram (bounds materialize from the observed range).
  static Histogram log2();

  void observe(double value);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

  /// Deterministic bucket quantile for q in [0, 1]: the smallest bucket
  /// upper bound whose cumulative count reaches rank ceil(q·count), clamped
  /// into [min, max] (observations in the +inf bucket resolve to max).
  double quantile(double q) const;

  /// count/sum/min/max plus p50/p90/p99 in one deterministic struct.
  HistogramSnapshot snapshot() const;

  /// The rendered bucket list: ascending (upper_bound, cumulative_count)
  /// pairs, excluding the implicit +inf bucket (whose count is count()).
  /// Fixed histograms list their configured bounds; log2 histograms list
  /// every power of two between the smallest and largest observed bucket
  /// (plus a 0 bucket when non-positive values were observed).
  std::vector<std::pair<double, std::uint64_t>> cumulative_buckets() const;

  /// Fixed-kind accessors (empty for log2 histograms).
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  enum class Kind : unsigned char { kFixed, kLog2 };

  Kind kind_ = Kind::kFixed;
  std::vector<double> bounds_;        ///< fixed: ascending upper bounds
  std::vector<std::uint64_t> counts_; ///< fixed: cumulative, one per bound
  std::map<int, std::uint64_t> log2_counts_;  ///< log2: exponent → count
  std::uint64_t zero_count_ = 0;      ///< log2: observations ≤ 0
  std::uint64_t count_ = 0;           ///< incl. the +inf bucket
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Shared bucket layouts for the library's instrumentation sites.
inline constexpr double kPow2Buckets[] = {1,   2,   4,    8,    16,  32,
                                          64,  128, 256,  512,  1024,
                                          2048, 4096, 8192, 16384};
inline constexpr double kStateCountBuckets[] = {
    50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000};
inline constexpr double kSecondsBuckets[] = {
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0};
/// Gauss-Seidel per-sweep max-residual layout: decades from convergence
/// tolerance (1e-9 and below) up to the first-sweep O(1) changes.
inline constexpr double kResidualBuckets[] = {
    1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6,
    1e-5,  1e-4,  1e-3,  1e-2, 0.1,  1.0};

/// Name-addressed registry of counters, gauges, and histograms.
class MetricsRegistry {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  void disable() { enabled_.store(false, std::memory_order_relaxed); }

  /// Drops every series (the enabled flag is unchanged).
  void clear();

  // Recording (no-ops while disabled) -------------------------------------
  void add(std::string_view name, std::uint64_t delta = 1);
  void set(std::string_view name, double value);
  void observe(std::string_view name, double value,
               std::span<const double> upper_bounds);
  /// Observe into a log2-bucket histogram (created on first use).
  void observe_log2(std::string_view name, double value);

  // Inspection ------------------------------------------------------------
  /// Counter value, or 0 when the counter does not exist.
  std::uint64_t counter(std::string_view name) const;
  /// Gauge value, or 0.0 when the gauge does not exist.
  double gauge(std::string_view name) const;
  /// Pointer into the registry (stable across later inserts); dereference
  /// only while no other thread is recording.
  const Histogram* histogram(std::string_view name) const;
  bool empty() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  // Snapshots -------------------------------------------------------------
  /// Stable text snapshot: one `name value` line per series, name-sorted;
  /// histograms render as `name{le="b"} n` cumulative-bucket lines followed
  /// by `name_sum/_count/_min/_max/_p50/_p90/_p99` derived lines.
  std::string snapshot_text() const;
  /// The same snapshot as a JSON object with "counters" / "gauges" /
  /// "histograms" members (each histogram carries its buckets plus the
  /// derived count/sum/min/max/p50/p90/p99 fields).
  std::string snapshot_json() const;
  void write_snapshot(const std::string& path) const;  ///< JSON iff *.json

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace meda::obs
