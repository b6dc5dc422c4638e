#include "chip/sensor_channel.hpp"

#include "obs/obs.hpp"
#include "util/check.hpp"

namespace meda {

SensorChannel::SensorChannel(const SensorNoiseConfig& config, int width,
                             int height, int bits, Rng rng)
    : config_(config), width_(width), height_(height), bits_(bits) {
  MEDA_REQUIRE(width >= 1 && height >= 1, "sensor channel needs a chip area");
  MEDA_REQUIRE(bits >= 1 && bits <= 16, "health bits out of range");
  MEDA_REQUIRE(config.bit_flip_p >= 0.0 && config.bit_flip_p <= 1.0 &&
                   config.stuck_fraction >= 0.0 &&
                   config.stuck_fraction <= 1.0 &&
                   config.stuck_at_one_share >= 0.0 &&
                   config.stuck_at_one_share <= 1.0 &&
                   config.frame_drop_p >= 0.0 && config.frame_drop_p < 1.0,
               "sensor noise probabilities out of range");
  flip_ = FixedBernoulli(config.bit_flip_p);
  last_frame_ = IntMatrix(width, height);
  stuck_.assign(last_frame_.size(), StuckCell{});
  // Scan position `flat` is bit flat % bits of cell flat / bits.
  const int n = static_cast<int>(last_frame_.size()) * bits;
  if (config.stuck_fraction > 0.0) {
    const int target =
        static_cast<int>(config.stuck_fraction * static_cast<double>(n) + 0.5);
    for (int flat : sample_without_replacement(rng, n, target)) {
      StuckCell& cell = stuck_[static_cast<std::size_t>(flat / bits)];
      const auto bit = static_cast<std::uint16_t>(1u << (flat % bits));
      cell.mask |= bit;
      if (rng.bernoulli(config.stuck_at_one_share)) cell.ones |= bit;
    }
    stuck_count_ = target;
  }
  free_bits_.reserve(static_cast<std::size_t>(n - stuck_count_));
  for (int flat = 0; flat < n; ++flat) {
    const StuckCell cell = stuck_[static_cast<std::size_t>(flat / bits)];
    if ((cell.mask & (1u << (flat % bits))) == 0) free_bits_.push_back(flat);
  }
}

IntMatrix SensorChannel::read(const IntMatrix& truth, Rng& rng) {
  ++frames_read_;
  if (bits_ == 0) return truth;  // default-constructed: transparent
  MEDA_OBS_COUNT("sensor.frames_read", 1);
  MEDA_REQUIRE(truth.width() == width_ && truth.height() == height_,
               "health frame does not match the channel dimensions");
  // A dropped frame never reaches the controller: it keeps the previous
  // frame. The drop is decided before per-bit noise so the random stream
  // stays aligned whether or not the frame survives.
  if (has_last_ && config_.frame_drop_p > 0.0 &&
      rng.bernoulli(config_.frame_drop_p)) {
    ++frames_dropped_;
    ++staleness_;
    MEDA_OBS_COUNT("sensor.frames_dropped", 1);
    return last_frame_;
  }
  // The whole frame must fit the scan width before the first bit draw, so a
  // rejected frame consumes no draws and leaves last_frame_ as it was. A
  // negative code sets the top bit of the OR.
  const std::vector<int>& codes = truth.data();
  unsigned used = 0;
  for (const int code : codes) used |= static_cast<unsigned>(code);
  MEDA_REQUIRE(used < (1u << bits_),
               "health code does not fit the scan width");

  std::vector<int>& out = last_frame_.data();
  for (std::size_t c = 0; c < codes.size(); ++c)
    out[c] = (codes[c] & ~stuck_[c].mask) | stuck_[c].ones;
  // The k-th flip draw belongs to the k-th non-stuck bit in scan order.
  std::uint64_t flips = 0;
  if (config_.bit_flip_p > 0.0) {
    for (std::size_t k = 0; k < free_bits_.size(); ++k) {
      if (flip_(rng)) {
        const int flat = free_bits_[k];
        out[static_cast<std::size_t>(flat / bits_)] ^= 1 << (flat % bits_);
        ++flips;
      }
    }
  }
  bits_flipped_ += flips;
  if (flips > 0) MEDA_OBS_COUNT("sensor.bits_flipped", flips);
  has_last_ = true;
  staleness_ = 0;
  return last_frame_;
}

}  // namespace meda
