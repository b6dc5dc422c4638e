#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "chip/scan_chain.hpp"
#include "chip/sensor_channel.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

/// @file reference_readout.hpp
/// Reference readout for the sensor-channel oracle tests: the scan-chain
/// read as three separate steps — scan_out_health serializes the frame into
/// a bitstream, each bit is forced by its stuck DFF, the bits that are not
/// stuck are flipped at geometric gaps, and scan_in_health parses the stream
/// back. It keeps one stuck state per scan position and shares no readout
/// code with SensorChannel, whose two-pass read must match it frame for
/// frame, draw for draw. The gap inversion is the stream contract, written
/// out again here so the two must agree on every draw: it is the part of
/// the read this oracle does not check independently (the statistical tests
/// in sensor_channel_test.cpp do).

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
            rng.bernoulli(kStuckAtOneShare) ? 2 : 1;
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
    std::vector<std::size_t> unstuck;  // non-stuck stream positions, in order
    for (std::size_t i = 0; i < stream.size(); ++i) {
      if (stuck_[i] == 0) {
        unstuck.push_back(i);
      } else {
        stream[i] = stuck_[i] == 2;
      }
    }
    const double p = config_.bit_flip_p;
    if (p == 1.0) {
      for (const std::size_t i : unstuck) stream[i] = !stream[i];
      bits_flipped_ += unstuck.size();
    } else if (p > 0.0) {
      // Geometric gaps by inversion: each draw counts the clean non-stuck
      // positions before the next flip, and the draw that runs past the
      // last one ends the frame.
      const double scale = 1.0 / std::log1p(-p);
      std::size_t next = 0;
      for (;;) {
        const std::uint64_t top = rng.next_u64() >> 11;
        const double u = static_cast<double>(top + 1) / 9007199254740992.0;
        const double gap = std::floor(std::log(u) * scale);
        if (!(gap < static_cast<double>(unstuck.size() - next))) break;
        next += static_cast<std::size_t>(gap);
        stream[unstuck[next]] = !stream[unstuck[next]];
        ++bits_flipped_;
        ++next;
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
