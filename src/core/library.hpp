#pragma once

#include <cstdint>
#include <unordered_map>

#include "assay/helper.hpp"
#include "core/synthesizer.hpp"
#include "util/matrix.hpp"

/// @file library.hpp
/// The offline/online strategy library of the hybrid scheduling scheme
/// (Section VI-D): pre-synthesized strategies are cached and retrieved by
/// (routing job, key family, health digest); a health change within the
/// job's hazard area changes the digest and forces a fresh synthesis. The
/// digest is health_digest of the view the job synthesizes over, and the
/// family (DigestClass) tells the plain, detour and replica views apart.
///
/// Introspection: the library keeps per-digest-class hit/miss/insert/
/// overwrite counts (LibraryStats) and, when the global metrics
/// registry is enabled, feeds two log2 histograms — `library.entry_age`
/// (operations between an entry's insertion and a hit on it, a reuse-
/// distance proxy) and `library.strategy_cells` (stored strategy size).
/// Ages are measured on a logical operation clock (one tick per lookup or
/// store), so the numbers are deterministic for a fixed workload.

namespace meda::core {

/// FNV-1a digest of the health values inside @p area (clipped to the
/// matrix). Two health matrices that agree on the area produce equal
/// digests; the digest therefore identifies the inputs that can affect a
/// routing job's synthesized strategy.
std::uint64_t health_digest(const IntMatrix& health, const Rect& area);

/// The key family a library entry belongs to, part of its key: the same
/// job and digest in two families are two entries. A contention detour and
/// a replica synthesize over masked health views (droplet footprints, or
/// the sibling replicas' corridor bands, clamped dead), and a masked view
/// can equal another family's matrix, so the family keeps each entry to
/// the jobs that synthesize over the same kind of view.
enum class DigestClass : unsigned char {
  kPlain,    ///< the sensed health view (normal routing jobs)
  kDetour,   ///< the droplet-masked view (contention detours)
  kReplica,  ///< the corridor-masked view (replica routes)
};

/// Stable label: "plain" / "detour" / "replica".
const char* to_string(DigestClass cls);

/// Operation counts for one digest class.
struct LibraryClassStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;     ///< stores that created a new entry
  std::uint64_t overwrites = 0;  ///< stores that replaced an entry

  /// The field list (see RecoveryCounters::for_each_field).
  template <typename F, typename... C>
  static void for_each_field(F&& f, C&&... c) {
    f("hits", c.hits...);
    f("misses", c.misses...);
    f("inserts", c.inserts...);
    f("overwrites", c.overwrites...);
  }

  LibraryClassStats& operator+=(const LibraryClassStats& other) {
    for_each_field([](const char*, auto& a, const auto& b) { a += b; }, *this,
                   other);
    return *this;
  }
  friend bool operator==(const LibraryClassStats&,
                         const LibraryClassStats&) = default;
};

/// Per-class operation counts plus the cross-class roll-up.
struct LibraryStats {
  LibraryClassStats plain;
  LibraryClassStats detour;
  LibraryClassStats replica;

  /// The class list: calls `f(to_string(cls), s.<cls>...)` per digest class
  /// in declaration order (see RecoveryCounters::for_each_field).
  template <typename F, typename... S>
  static void for_each_field(F&& f, S&&... s) {
    f(to_string(DigestClass::kPlain), s.plain...);
    f(to_string(DigestClass::kDetour), s.detour...);
    f(to_string(DigestClass::kReplica), s.replica...);
  }

  LibraryClassStats totals() const {
    LibraryClassStats t;
    for_each_field([&t](const char*, const LibraryClassStats& c) { t += c; },
                   *this);
    return t;
  }
  LibraryStats& operator+=(const LibraryStats& other) {
    for_each_field([](const char*, auto& a, const auto& b) { a += b; }, *this,
                   other);
    return *this;
  }
  friend bool operator==(const LibraryStats&, const LibraryStats&) = default;
};

/// Cache of synthesized strategies keyed by (δ_s, δ_g, δ_h, family, health
/// digest).
///
/// Single owner, not thread-safe, like the scheduler that owns it: every
/// scheduler, experiment run and campaign task builds its own library.
/// Copies share the stored strategies' immutable tables (see Strategy), so
/// copying a library, storing a result or copying out a hit copies no
/// table; perfbench copies its offline libraries once per op.
class StrategyLibrary {
 public:
  /// Returns the cached result for the job under the family and digest, if
  /// present; the hit or miss counts toward @p cls's stats. The pointer is
  /// valid until the next `store()`.
  const SynthesisResult* lookup(const assay::RoutingJob& rj,
                                std::uint64_t digest,
                                DigestClass cls = DigestClass::kPlain) const;

  /// Stores @p result for the job/family/digest (overwrites an existing
  /// entry — health can only degrade, so newer entries supersede older
  /// ones).
  void store(const assay::RoutingJob& rj, std::uint64_t digest,
             SynthesisResult result, DigestClass cls = DigestClass::kPlain);

  std::size_t size() const { return entries_.size(); }
  const LibraryStats& stats() const { return stats_; }
  std::uint64_t hits() const { return stats_.totals().hits; }
  std::uint64_t misses() const { return stats_.totals().misses; }

 private:
  struct Key {
    Rect start, goal, hazard;
    DigestClass cls = DigestClass::kPlain;
    std::uint64_t digest = 0;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept;
  };
  struct Entry {
    SynthesisResult result;
    std::uint64_t inserted_tick = 0;  ///< operation-clock time of insertion
  };

  std::unordered_map<Key, Entry, KeyHash> entries_;
  mutable std::uint64_t tick_ = 0;
  mutable LibraryStats stats_;
};

}  // namespace meda::core
