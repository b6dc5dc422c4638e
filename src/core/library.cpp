#include "core/library.hpp"

#include <algorithm>
#include <tuple>

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

LibraryClassStats& class_stats(LibraryStats& stats, DigestClass cls) {
  switch (cls) {
    case DigestClass::kPlain: return stats.plain;
    case DigestClass::kDetour: return stats.detour;
    case DigestClass::kReplica: return stats.replica;
  }
  return stats.plain;
}

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
  const std::uint64_t now = tick_++;
  LibraryClassStats& s = class_stats(stats_, cls);
  const Key key{rj.start, rj.goal, rj.hazard, digest};
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++s.misses;
    MEDA_OBS_COUNT(std::string("library.") + to_string(cls) + ".misses", 1);
    return nullptr;
  }
  ++s.hits;
  MEDA_OBS_COUNT(std::string("library.") + to_string(cls) + ".hits", 1);
  // Reuse distance on the operation clock: library ops between this entry's
  // insertion and this hit. Deterministic for a fixed workload.
  MEDA_OBS_OBSERVE_LOG2("library.entry_age",
                        static_cast<double>(now - it->second.inserted_tick));
  return &it->second.result;
}

void StrategyLibrary::store(const assay::RoutingJob& rj, std::uint64_t digest,
                            SynthesisResult result, DigestClass cls) {
  const std::uint64_t now = tick_++;
  LibraryClassStats& s = class_stats(stats_, cls);
  MEDA_OBS_OBSERVE_LOG2("library.strategy_cells",
                        static_cast<double>(result.strategy.size()));
  const Key key{rj.start, rj.goal, rj.hazard, digest};
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Overwrite in place, keeping the original insertion tick (and thus
    // the entry's FIFO position — refreshing content does not renew age).
    it->second.result = std::move(result);
    ++s.overwrites;
    MEDA_OBS_COUNT(std::string("library.") + to_string(cls) + ".overwrites",
                   1);
    return;
  }
  if (capacity_ > 0) evict_down_to(capacity_ - 1);
  entries_.emplace(key, Entry{std::move(result), now, cls});
  insertion_order_.emplace(now, key);
  ++s.inserts;
  MEDA_OBS_COUNT(std::string("library.") + to_string(cls) + ".inserts", 1);
}

void StrategyLibrary::set_capacity(std::size_t capacity) {
  capacity_ = capacity;
  if (capacity_ > 0) evict_down_to(capacity_);
}

void StrategyLibrary::evict_down_to(std::size_t limit) {
  while (entries_.size() > limit && !insertion_order_.empty()) {
    const auto oldest = insertion_order_.begin();
    const auto it = entries_.find(oldest->second);
    if (it != entries_.end()) {
      const DigestClass cls = it->second.cls;
      LibraryClassStats& s = class_stats(stats_, cls);
      ++s.evictions;
      MEDA_OBS_COUNT(std::string("library.") + to_string(cls) + ".evictions",
                     1);
      entries_.erase(it);
    }
    insertion_order_.erase(oldest);
  }
}

void StrategyLibrary::clear() {
  entries_.clear();
  insertion_order_.clear();
  tick_ = 0;
  stats_ = LibraryStats{};
}

std::vector<StrategyLibrary::EntryView> StrategyLibrary::entries() const {
  std::vector<EntryView> views;
  views.reserve(entries_.size());
  for (const auto& [key, entry] : entries_)
    views.push_back(EntryView{key.start, key.goal, key.hazard, key.digest,
                              &entry.result});
  std::sort(views.begin(), views.end(),
            [](const EntryView& a, const EntryView& b) {
              return std::tie(a.start, a.goal, a.hazard, a.digest) <
                     std::tie(b.start, b.goal, b.hazard, b.digest);
            });
  return views;
}

}  // namespace meda::core
