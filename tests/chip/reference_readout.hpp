#pragma once

#include <cstdint>
#include <vector>

#include "chip/scan_chain.hpp"
#include "chip/sensor_channel.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

/// @file reference_readout.hpp
/// Reference readout for the sensor-channel oracle tests: the scan-chain
/// read as three separate steps — scan_out_health serializes the frame into
/// a bitstream, each bit is forced by its stuck DFF or corrupted by one
/// Rng::bernoulli trial, and scan_in_health parses the stream back. It keeps
/// one stuck state per scan position and shares no readout code with
/// SensorChannel, whose one-pass read must match it frame for frame, draw
/// for draw.

namespace meda::reference {

class ReadoutChannel {
 public:
  ReadoutChannel(const SensorNoiseConfig& config, int width, int height,
                 int bits, Rng rng)
      : config_(config), width_(width), height_(height), bits_(bits) {
    const std::size_t positions = static_cast<std::size_t>(width) *
                                  static_cast<std::size_t>(height) *
                                  static_cast<std::size_t>(bits);
    stuck_.assign(positions, 0);
    if (config.stuck_fraction > 0.0) {
      const int n = static_cast<int>(positions);
      const int target = static_cast<int>(
          config.stuck_fraction * static_cast<double>(n) + 0.5);
      for (int flat : sample_without_replacement(rng, n, target)) {
        stuck_[static_cast<std::size_t>(flat)] =
            rng.bernoulli(config.stuck_at_one_share) ? 2 : 1;
      }
    }
  }

  IntMatrix read(const IntMatrix& truth, Rng& rng) {
    MEDA_REQUIRE(truth.width() == width_ && truth.height() == height_,
                 "health frame does not match the channel dimensions");
    if (has_last_ && config_.frame_drop_p > 0.0 &&
        rng.bernoulli(config_.frame_drop_p)) {
      ++frames_dropped_;
      ++staleness_;
      return last_frame_;
    }
    std::vector<bool> stream = scan_out_health(truth, bits_);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      if (stuck_[i] != 0) {
        stream[i] = stuck_[i] == 2;
        continue;
      }
      if (config_.bit_flip_p > 0.0 && rng.bernoulli(config_.bit_flip_p)) {
        stream[i] = !stream[i];
        ++bits_flipped_;
      }
    }
    last_frame_ = scan_in_health(stream, width_, height_, bits_);
    has_last_ = true;
    staleness_ = 0;
    return last_frame_;
  }

  std::uint64_t frames_dropped() const { return frames_dropped_; }
  std::uint64_t bits_flipped() const { return bits_flipped_; }
  std::uint64_t staleness() const { return staleness_; }

 private:
  SensorNoiseConfig config_;
  int width_;
  int height_;
  int bits_;
  /// Per scan position: 0 = healthy, 1 = stuck-at-0, 2 = stuck-at-1.
  std::vector<std::uint8_t> stuck_;
  IntMatrix last_frame_;
  bool has_last_ = false;
  std::uint64_t frames_dropped_ = 0;
  std::uint64_t bits_flipped_ = 0;
  std::uint64_t staleness_ = 0;
};

}  // namespace meda::reference
