#pragma once

#include <cstdint>
#include <istream>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

/// @file checkpoint.hpp
/// Crash-safe slot checkpointing for long campaign sweeps.
///
/// A campaign flattens its (cell, chip) grid into `slot_count` independent
/// work items; SlotCheckpoint persists each completed slot's serialized
/// payload so a killed run can resume with only the missing slots. The file
/// is rewritten atomically (write `<path>.tmp`, then rename over `<path>`),
/// so a `kill -9` at any instant leaves either the previous complete
/// checkpoint or the new one — never a torn file.
///
/// File format (line-oriented text):
///
///     meda-checkpoint v1 <digest-hex> <slot_count>
///     <slot-index> <payload...>
///     ...
///
/// The digest is a caller-computed hash of everything that determines a
/// slot's result (campaign config, seeds, grid shape). On resume, a digest
/// or slot-count mismatch discards the stale file and starts fresh, so a
/// checkpoint can never graft results from a different configuration into a
/// run. Slot indices are payload keys, not an ordering: resuming at a
/// different `--jobs` count completes slots in a different order yet yields
/// the same file contents once all slots land.
namespace meda::util {

/// FNV-1a accumulator for building checkpoint digests out of the config
/// fields and seeds that determine a campaign's results.
class DigestBuilder {
 public:
  DigestBuilder& mix(std::uint64_t v) {
    hash_ ^= v;
    hash_ *= 1099511628211ull;  // FNV prime
    return *this;
  }
  DigestBuilder& mix(std::int64_t v) {
    return mix(static_cast<std::uint64_t>(v));
  }
  DigestBuilder& mix(int v) { return mix(static_cast<std::uint64_t>(
      static_cast<std::int64_t>(v))); }
  DigestBuilder& mix(double v);
  DigestBuilder& mix(const std::string& s);

  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;  // FNV offset basis
};

/// Field-list visitors for slot codecs. A payload struct declares its
/// fields once, as `for_each_field(f, s...)` calling `f("name", s.field...)`
/// in declaration order; encoding walks it with PutField, decoding with
/// GetField, and the checkpoint digest mixes the names with MixFieldName, so
/// a new field changes the payload and discards older checkpoints without a
/// codec edit. Each value is written after one space; doubles round-trip
/// exactly through the C99 `%a` hexfloat form.
struct PutField {
  std::ostream& os;
  template <typename T>
  void operator()(const char*, const T& value) const {
    os << ' ' << value;
  }
  void operator()(const char*, double value) const;
};

/// Reads the fields PutField wrote; a malformed value sets the stream's
/// failbit.
struct GetField {
  std::istream& is;
  template <typename T>
  void operator()(const char*, T& value) const {
    is >> value;
  }
  void operator()(const char*, double& value) const;
};

struct MixFieldName {
  DigestBuilder& digest;
  void operator()(const char* name) const { digest.mix(std::string(name)); }
};

/// Mixes each field's value into a digest: a checkpoint digest walks a
/// config's field list with it. Enums mix as their underlying value.
struct MixFieldValue {
  DigestBuilder& digest;
  template <typename T>
  void operator()(const char*, const T& value) const {
    if constexpr (std::is_enum_v<T>)
      digest.mix(static_cast<std::uint64_t>(value));
    else
      digest.mix(value);
  }
};

/// Newly recorded slots between two periodic rewrites of a checkpoint file.
inline constexpr int kCheckpointFlushEvery = 4;

/// Periodic, atomic checkpoint of completed slots. Thread-safe: pool
/// workers `record()` concurrently; flushes serialize on an internal mutex.
class SlotCheckpoint {
 public:
  /// Inactive checkpoint: restored() is empty and record() is a no-op.
  SlotCheckpoint() = default;

  /// Opens a checkpoint at @p path for @p slot_count slots under @p digest.
  /// When @p resume is true an existing compatible file is loaded and its
  /// completed slots become available via restored(); otherwise any
  /// existing file is ignored (and overwritten by the first flush). The
  /// file is rewritten after every kCheckpointFlushEvery newly recorded
  /// slots and on flush().
  void open(std::string path, std::uint64_t digest, bool resume,
            std::size_t slot_count);

  bool active() const { return !path_.empty(); }

  /// Payload restored for @p slot from a previous run, or nullptr if the
  /// slot still needs computing.
  const std::string* restored(std::size_t slot) const;

  /// Number of slots restored from the existing file at open().
  std::size_t restored_count() const { return restored_count_; }

  /// Records @p slot as complete. @p payload must be single-line (no '\n').
  void record(std::size_t slot, const std::string& payload);

  /// Forces the file to disk (atomic rewrite) regardless of the cadence.
  void flush();

 private:
  void write_file_locked();

  std::string path_;
  std::uint64_t digest_ = 0;
  std::size_t restored_count_ = 0;
  std::vector<std::optional<std::string>> slots_;
  int unflushed_ = 0;
  std::mutex mutex_;
};

}  // namespace meda::util
