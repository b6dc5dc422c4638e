// Concurrent metrics recording from parallel_for workers and plain threads:
// counters and histograms are commutative, so the registry must produce
// byte-identical snapshots regardless of worker count or interleaving. Run
// under TSan (cmake -DMEDA_SANITIZE_THREAD=ON) to exercise the locking
// itself.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/handoff.hpp"

namespace meda::obs {
namespace {

// The per-index workload: deterministic in the index alone, so any
// distribution of indices over workers records the same multiset.
void record_index(MetricsRegistry& registry, std::size_t i) {
  registry.add("work.items");
  registry.add("work.units", i % 7);
  registry.observe("work.size", static_cast<double>(i % 100),
                   kStateCountBuckets);
  registry.observe_log2("work.age", static_cast<double>(i % 1000));
}

constexpr std::size_t kItems = 2000;

std::string snapshot_at_jobs(int jobs) {
  MetricsRegistry registry;
  registry.enable();
  util::parallel_for(jobs, kItems,
                     [&](std::size_t i) { record_index(registry, i); });
  return registry.snapshot_text();
}

TEST(MetricsConcurrency, CountersAndHistogramsSurviveConcurrentUpdates) {
  // Test-local threads: four writers at once on any host.
  MetricsRegistry registry;
  registry.enable();
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&registry] {
      for (std::size_t i = 0; i < kItems; ++i) record_index(registry, i);
    });
  }
  for (std::thread& writer : writers) writer.join();
  EXPECT_EQ(registry.counter("work.items"), 4u * kItems);
  const Histogram* h = registry.histogram("work.age");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 4u * kItems);
}

TEST(MetricsConcurrency, SnapshotsAreByteIdenticalAtAnyJobCount) {
  const std::string serial = snapshot_at_jobs(1);
  EXPECT_EQ(snapshot_at_jobs(2), serial);
  EXPECT_EQ(snapshot_at_jobs(4), serial);
  EXPECT_EQ(snapshot_at_jobs(8), serial);
}

TEST(MetricsConcurrency, ConcurrentFirstTouchCreatesEachSeriesOnce) {
  // Many threads racing to create the same histogram must converge on one
  // series with the full count (no lost updates on first touch).
  MetricsRegistry registry;
  registry.enable();
  util::parallel_for(8, 64, [&](std::size_t i) {
    registry.observe_log2("contended", static_cast<double>(i));
    registry.add("contended.count");
  });
  const Histogram* h = registry.histogram("contended");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 64u);
  EXPECT_EQ(registry.counter("contended.count"), 64u);
}

}  // namespace
}  // namespace meda::obs
