#include "chip/sensor_channel.hpp"

#include <cmath>

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
                   config.frame_drop_p >= 0.0 && config.frame_drop_p < 1.0,
               "sensor noise probabilities out of range");
  if (config.bit_flip_p > 0.0 && config.bit_flip_p < 1.0)
    gap_scale_ = 1.0 / std::log1p(-config.bit_flip_p);
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
      if (rng.bernoulli(kStuckAtOneShare)) cell.ones |= bit;
    }
    stuck_count_ = target;
  }
  free_bits_.reserve(static_cast<std::size_t>(n - stuck_count_));
  for (int flat = 0; flat < n; ++flat) {
    const StuckCell cell = stuck_[static_cast<std::size_t>(flat / bits)];
    if ((cell.mask & (1u << (flat % bits))) == 0) free_bits_.push_back(flat);
  }
  // The all-zero truth read through the stuck DFFs, with no flips.
  truth_ = IntMatrix(width, height, 0);
  for (std::size_t c = 0; c < stuck_.size(); ++c)
    last_frame_.data()[c] = stuck_[c].ones;
}

IntMatrix SensorChannel::read(const IntMatrix& truth, Rng& rng) {
  ++frames_read_;
  if (bits_ == 0) return truth;  // default-constructed: transparent
  MEDA_OBS_COUNT("sensor.frames_read", 1);
  MEDA_REQUIRE(truth.width() == width_ && truth.height() == height_,
               "health frame does not match the channel dimensions");
  // A dropped frame never reaches the controller: it keeps the previous
  // frame. The drop is decided before the flips so the random stream stays
  // aligned whether or not the frame survives.
  if (has_last_ && config_.frame_drop_p > 0.0 &&
      rng.bernoulli(config_.frame_drop_p)) {
    ++frames_dropped_;
    ++staleness_;
    MEDA_OBS_COUNT("sensor.frames_dropped", 1);
    return last_frame_;
  }
  // The codes that differ from the kept truth must fit the scan width
  // before anything changes, so a rejected frame consumes no flip draw and
  // leaves the channel as it was; every other code passed the check when it
  // was accepted. A negative code sets the top bit of the OR.
  const std::vector<int>& codes = truth.data();
  unsigned used = 0;
  changed_.clear();
  for_each_difference(truth, truth_, [&](std::size_t c) {
    changed_.push_back(c);
    used |= static_cast<unsigned>(codes[c]);
  });
  MEDA_REQUIRE(used < (1u << bits_),
               "health code does not fit the scan width");

  // Back to the truth read through the stuck DFFs: the previous frame's
  // flipped cells are restored and the changed codes forced afresh.
  std::vector<int>& kept = truth_.data();
  for (const std::size_t c : changed_) kept[c] = codes[c];
  std::vector<int>& out = last_frame_.data();
  const auto force = [&](std::size_t c) {
    out[c] = (kept[c] & ~stuck_[c].mask) | stuck_[c].ones;
  };
  for (const std::size_t c : flipped_) force(c);
  for (const std::size_t c : changed_) force(c);
  flipped_.clear();
  const auto flip = [&](int flat) {
    const auto c = static_cast<std::size_t>(flat / bits_);
    out[c] ^= 1 << (flat % bits_);
    flipped_.push_back(c);
  };
  if (config_.bit_flip_p == 1.0) {
    for (const int flat : free_bits_) flip(flat);
  } else if (config_.bit_flip_p > 0.0) {
    // Each draw is the number of clean non-stuck bits before the next flip;
    // the first that reaches past the last one ends the frame. The test runs
    // on the double: at a tiny p the gap is far beyond any index, or +inf.
    for (std::size_t k = 0;; ++k) {
      const double u =
          static_cast<double>((rng.next_u64() >> 11) + 1) * 0x1p-53;
      const double gap = std::floor(std::log(u) * gap_scale_);
      if (!(gap < static_cast<double>(free_bits_.size() - k))) break;
      k += static_cast<std::size_t>(gap);
      flip(free_bits_[k]);
    }
  }
  const std::uint64_t flips = flipped_.size();
  bits_flipped_ += flips;
  if (flips > 0) MEDA_OBS_COUNT("sensor.bits_flipped", flips);
  has_last_ = true;
  staleness_ = 0;
  return last_frame_;
}

}  // namespace meda
