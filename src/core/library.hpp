#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "assay/helper.hpp"
#include "core/synthesizer.hpp"
#include "util/matrix.hpp"

/// @file library.hpp
/// The offline/online strategy library of the hybrid scheduling scheme
/// (Section VI-D): pre-synthesized strategies are cached and retrieved by
/// (routing job, health digest); a health change within the job's hazard
/// area changes the digest and forces a fresh synthesis.
///
/// Introspection: the library keeps per-digest-class hit/miss/insert/
/// overwrite/eviction counts (LibraryStats) and, when the global metrics
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

/// Salt separating detour-digest keys from plain health-digest keys in the
/// same library. Contention detours synthesize against a droplet-masked
/// health view; without the salt, a plain health matrix that happens to
/// equal some masked view would collide with the detour entry and the two
/// key families could serve each other's strategies.
inline constexpr std::uint64_t kDetourDigestSalt = 0xDE70C2C41E5ull;

/// Library key for a contention-detour entry: the digest of the
/// droplet-*masked* health view (folding the obstacle rectangles into the
/// key position by position) xor kDetourDigestSalt. See
/// Runner::ensure_strategy for the caching rationale.
std::uint64_t detour_digest(const IntMatrix& masked_health, const Rect& area);

/// Salt separating replica-corridor keys from the plain and detour key
/// families. Replicated droplets synthesize against a health view with the
/// sibling replicas' corridor bands clamped dead; the masked view could
/// coincide with a plain (or detour-masked) matrix, so the families must
/// not share keys.
inline constexpr std::uint64_t kReplicaDigestSalt = 0x4E4D52AC0551Dull;

/// Library key for a replica-corridor entry: the digest of the
/// corridor-masked health view xor kReplicaDigestSalt. The mask folds the
/// replica's band geometry into the key, so an entry is only served to a
/// replica whose corridor kills the same cells.
std::uint64_t replica_digest(const IntMatrix& masked_health, const Rect& area);

/// Which digest family a library operation belongs to (stats bucketing
/// only — the digest itself already separates the key spaces).
enum class DigestClass : unsigned char {
  kPlain,    ///< health_digest keys (normal routing jobs)
  kDetour,   ///< detour_digest keys (contention detours)
  kReplica,  ///< replica_digest keys (corridor-masked replica routes)
};

/// Stable label: "plain" / "detour" / "replica".
const char* to_string(DigestClass cls);

/// Operation counts for one digest class.
struct LibraryClassStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;     ///< stores that created a new entry
  std::uint64_t overwrites = 0;  ///< stores that replaced an entry
  std::uint64_t evictions = 0;   ///< entries dropped by the FIFO capacity

  LibraryClassStats& operator+=(const LibraryClassStats& other) {
    hits += other.hits;
    misses += other.misses;
    inserts += other.inserts;
    overwrites += other.overwrites;
    evictions += other.evictions;
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

  LibraryClassStats totals() const {
    LibraryClassStats t = plain;
    t += detour;
    t += replica;
    return t;
  }
  LibraryStats& operator+=(const LibraryStats& other) {
    plain += other.plain;
    detour += other.detour;
    replica += other.replica;
    return *this;
  }
  friend bool operator==(const LibraryStats&, const LibraryStats&) = default;
};

/// Cache of synthesized strategies keyed by (δ_s, δ_g, δ_h, health digest).
///
/// Single owner, not thread-safe, like the scheduler that owns it: every
/// scheduler, experiment run and campaign task builds its own library.
/// Copies hold independent data (perfbench copies its offline libraries
/// once per round).
class StrategyLibrary {
 public:
  /// Returns the cached result for the job under the digest, if present.
  /// @p cls only attributes the hit/miss to a stats class. The pointer is
  /// valid until the next `store()`, `set_capacity()` or `clear()`.
  const SynthesisResult* lookup(const assay::RoutingJob& rj,
                                std::uint64_t digest,
                                DigestClass cls = DigestClass::kPlain) const;

  /// Stores @p result for the job/digest (overwrites an existing entry —
  /// health can only degrade, so newer entries supersede older ones). When
  /// a capacity is set and the library is full, the oldest entry by
  /// insertion order is evicted first.
  void store(const assay::RoutingJob& rj, std::uint64_t digest,
             SynthesisResult result, DigestClass cls = DigestClass::kPlain);

  /// Caps the entry count; 0 (the default) means unlimited. Shrinking
  /// below the current size evicts oldest-first immediately.
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const { return capacity_; }

  std::size_t size() const { return entries_.size(); }
  const LibraryStats& stats() const { return stats_; }
  std::uint64_t hits() const { return stats_.totals().hits; }
  std::uint64_t misses() const { return stats_.totals().misses; }

  void clear();

  /// A read-only view of one cached entry (used by persistence/inspection).
  struct EntryView {
    Rect start, goal, hazard;
    std::uint64_t digest = 0;
    const SynthesisResult* result = nullptr;
  };

  /// All entries in a deterministic (key-sorted) order.
  std::vector<EntryView> entries() const;

 private:
  struct Key {
    Rect start, goal, hazard;
    std::uint64_t digest = 0;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept;
  };
  struct Entry {
    SynthesisResult result;
    std::uint64_t inserted_tick = 0;  ///< operation-clock time of insertion
    DigestClass cls = DigestClass::kPlain;
  };

  void evict_down_to(std::size_t limit);

  std::unordered_map<Key, Entry, KeyHash> entries_;
  /// Insertion order for FIFO eviction: operation tick → key. Overwrites
  /// keep the original tick (the entry's age is since first insertion).
  std::map<std::uint64_t, Key> insertion_order_;
  std::size_t capacity_ = 0;  ///< 0 = unlimited
  mutable std::uint64_t tick_ = 0;
  mutable LibraryStats stats_;
};

}  // namespace meda::core
