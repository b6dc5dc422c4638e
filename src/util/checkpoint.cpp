#include "util/checkpoint.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/check.hpp"

namespace meda::util {

DigestBuilder& DigestBuilder::mix(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return mix(bits);
}

DigestBuilder& DigestBuilder::mix(const std::string& s) {
  mix(static_cast<std::uint64_t>(s.size()));
  for (const char c : s)
    mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  return *this;
}

void PutField::operator()(const char*, double value) const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", value);
  os << ' ' << buf;
}

void GetField::operator()(const char*, double& value) const {
  std::string token;
  if (!(is >> token)) return;
  char* end = nullptr;
  value = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0') is.setstate(std::ios::failbit);
}

void SlotCheckpoint::open(std::string path, std::uint64_t digest, bool resume,
                          std::size_t slot_count) {
  MEDA_REQUIRE(!path.empty(), "checkpoint path must be non-empty");
  std::lock_guard<std::mutex> lock(mutex_);
  path_ = std::move(path);
  digest_ = digest;
  restored_count_ = 0;
  unflushed_ = 0;
  slots_.assign(slot_count, std::nullopt);
  if (!resume) return;

  std::ifstream in(path_);
  if (!in) return;
  std::string line;
  if (!std::getline(in, line)) return;
  // Header: "meda-checkpoint v1 <digest-hex> <slot_count>". Any mismatch
  // (version, digest, grid size) means the file belongs to a different
  // configuration — start fresh rather than resume from it.
  {
    std::istringstream header(line);
    std::string magic, version, digest_hex;
    std::size_t count = 0;
    header >> magic >> version >> digest_hex >> count;
    if (magic != "meda-checkpoint" || version != "v1" || count != slot_count)
      return;
    std::uint64_t file_digest = 0;
    try {
      file_digest = std::stoull(digest_hex, nullptr, 16);
    } catch (...) {
      return;
    }
    if (file_digest != digest_) return;
  }
  while (std::getline(in, line)) {
    // A line without a terminating '\n' (eof hit mid-line) is a torn write
    // from a crashed non-atomic writer: drop it, the slot just recomputes.
    if (in.eof()) break;
    if (line.empty()) continue;
    std::size_t idx = 0;
    std::size_t consumed = 0;
    try {
      idx = std::stoull(line, &consumed);
    } catch (...) {
      continue;  // malformed line (e.g. torn write from a pre-v1 tool)
    }
    if (idx >= slot_count) continue;
    if (consumed >= line.size() || line[consumed] != ' ') continue;
    if (!slots_[idx].has_value()) ++restored_count_;
    slots_[idx] = line.substr(consumed + 1);
  }
}

const std::string* SlotCheckpoint::restored(std::size_t slot) const {
  if (path_.empty() || slot >= slots_.size()) return nullptr;
  const auto& entry = slots_[slot];
  return entry.has_value() ? &*entry : nullptr;
}

void SlotCheckpoint::record(std::size_t slot, const std::string& payload) {
  if (path_.empty()) return;
  MEDA_REQUIRE(slot < slots_.size(), "checkpoint slot out of range");
  MEDA_REQUIRE(payload.find('\n') == std::string::npos,
               "checkpoint payload must be single-line");
  std::lock_guard<std::mutex> lock(mutex_);
  if (!slots_[slot].has_value()) ++unflushed_;
  slots_[slot] = payload;
  if (unflushed_ >= kCheckpointFlushEvery) write_file_locked();
}

void SlotCheckpoint::flush() {
  if (path_.empty()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  write_file_locked();
}

void SlotCheckpoint::write_file_locked() {
  unflushed_ = 0;
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return;  // unwritable directory: checkpointing degrades, the
                       // campaign itself still runs
    char digest_hex[32];
    std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                  static_cast<unsigned long long>(digest_));
    out << "meda-checkpoint v1 " << digest_hex << ' ' << slots_.size()
        << '\n';
    for (std::size_t i = 0; i < slots_.size(); ++i)
      if (slots_[i].has_value()) out << i << ' ' << *slots_[i] << '\n';
  }
  // POSIX rename is atomic: readers (and a resumed run) see either the old
  // complete file or the new one.
  std::rename(tmp.c_str(), path_.c_str());
}

}  // namespace meda::util
