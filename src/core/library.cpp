#include "core/library.hpp"

#include "obs/obs.hpp"

namespace meda::core {

const char* to_string(DigestClass cls) {
  switch (cls) {
    case DigestClass::kPlain: return "plain";
    case DigestClass::kDetour: return "detour";
    case DigestClass::kReplica: return "replica";
  }
  return "plain";
}

namespace {

/// One digest class's counters in LibraryStats and their registry names.
/// The names are string literals, so a counter site builds no name whether
/// or not the registry records.
struct ClassCounters {
  LibraryClassStats LibraryStats::*stats;
  const char* hits;
  const char* misses;
  const char* inserts;
  const char* overwrites;
};

/// Indexed by DigestClass.
constexpr ClassCounters kClassCounters[] = {
    {&LibraryStats::plain, "library.plain.hits", "library.plain.misses",
     "library.plain.inserts", "library.plain.overwrites"},
    {&LibraryStats::detour, "library.detour.hits", "library.detour.misses",
     "library.detour.inserts", "library.detour.overwrites"},
    {&LibraryStats::replica, "library.replica.hits", "library.replica.misses",
     "library.replica.inserts", "library.replica.overwrites"},
};

}  // namespace

std::uint64_t health_digest(const IntMatrix& health, const Rect& area) {
  const Rect chip{0, 0, health.width() - 1, health.height() - 1};
  const Rect clipped = area.intersection_with(chip);
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;  // FNV prime
  };
  if (!clipped.valid()) return h;
  for (int y = clipped.ya; y <= clipped.yb; ++y)
    for (int x = clipped.xa; x <= clipped.xb; ++x)
      mix(static_cast<std::uint64_t>(health(x, y)) + 1);
  return h;
}

std::uint64_t detour_digest(const IntMatrix& masked_health, const Rect& area) {
  return health_digest(masked_health, area) ^ kDetourDigestSalt;
}

std::uint64_t replica_digest(const IntMatrix& masked_health,
                             const Rect& area) {
  return health_digest(masked_health, area) ^ kReplicaDigestSalt;
}

std::size_t StrategyLibrary::KeyHash::operator()(const Key& k) const noexcept {
  std::size_t h = std::hash<Rect>{}(k.start);
  auto mixin = [&h](std::size_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  mixin(std::hash<Rect>{}(k.goal));
  mixin(std::hash<Rect>{}(k.hazard));
  mixin(std::hash<std::uint64_t>{}(k.digest));
  return h;
}

const SynthesisResult* StrategyLibrary::lookup(const assay::RoutingJob& rj,
                                               std::uint64_t digest,
                                               DigestClass cls) const {
  [[maybe_unused]] const std::uint64_t now = tick_++;
  const ClassCounters& c = kClassCounters[static_cast<std::size_t>(cls)];
  LibraryClassStats& s = stats_.*c.stats;
  const Key key{rj.start, rj.goal, rj.hazard, digest};
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++s.misses;
    MEDA_OBS_COUNT(c.misses, 1);
    return nullptr;
  }
  ++s.hits;
  MEDA_OBS_COUNT(c.hits, 1);
  // Reuse distance on the operation clock: library ops between this entry's
  // insertion and this hit. Deterministic for a fixed workload.
  MEDA_OBS_OBSERVE_LOG2("library.entry_age",
                        static_cast<double>(now - it->second.inserted_tick));
  return &it->second.result;
}

void StrategyLibrary::store(const assay::RoutingJob& rj, std::uint64_t digest,
                            SynthesisResult result, DigestClass cls) {
  const std::uint64_t now = tick_++;
  const ClassCounters& c = kClassCounters[static_cast<std::size_t>(cls)];
  LibraryClassStats& s = stats_.*c.stats;
  MEDA_OBS_OBSERVE_LOG2("library.strategy_cells",
                        static_cast<double>(result.strategy.size()));
  const Key key{rj.start, rj.goal, rj.hazard, digest};
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Overwrite in place, keeping the original insertion tick (refreshing
    // content does not renew the entry's age).
    it->second.result = std::move(result);
    ++s.overwrites;
    MEDA_OBS_COUNT(c.overwrites, 1);
    return;
  }
  entries_.emplace(key, Entry{std::move(result), now});
  ++s.inserts;
  MEDA_OBS_COUNT(c.inserts, 1);
}

}  // namespace meda::core
