#pragma once

#include <cstdint>
#include <vector>

#include "util/matrix.hpp"
#include "util/rng.hpp"

/// @file sensor_channel.hpp
/// Imperfect health scan-out (robustness extension of Section III).
///
/// The paper's dual-DFF sensor design assumes the b-bit health codes arrive
/// at the controller intact. Real charge-trapping hardware does not: the
/// scan chain is a long shift register clocked at speed, so readouts suffer
/// transient bit flips, individual DFFs can be stuck-at-0/1 (a manufacturing
/// or wear-out defect that persists for the chip's lifetime), and a whole
/// scan frame can be lost to a timing violation — in which case the
/// controller only has the previous (stale) frame to act on.
///
/// SensorChannel models exactly these three error modes on top of the
/// bitstream layout of scan_chain.hpp (scan order: row-major,
/// least-significant health bit first). A read takes two flat passes: every
/// code with its stuck DFFs forced, then one flip draw per non-stuck bit in
/// scan order, from a table of those bits built at construction. The stream
/// contract: one frame-drop draw first (from the second read on, when
/// frame_drop_p > 0), then one 64-bit draw per non-stuck bit in scan order
/// (when bit_flip_p > 0). This is exactly what serializing with
/// scan_out_health, corrupting bit by bit with Rng::bernoulli and parsing
/// with scan_in_health would draw and return.
/// With a default-constructed SensorNoiseConfig the channel is transparent.

namespace meda {

/// Error-channel configuration for the health scan-out path.
struct SensorNoiseConfig {
  /// Per-bit probability of a transient flip (independent per read).
  double bit_flip_p = 0.0;
  /// Fraction of scan-chain DFF positions that are permanently stuck.
  /// Stuck positions are sampled once per chip and persist across reads.
  double stuck_fraction = 0.0;
  /// Share of stuck DFFs that are stuck-at-1 (the rest are stuck-at-0).
  double stuck_at_one_share = 0.5;
  /// Probability a whole scan frame is dropped; the reader then sees the
  /// last successfully transferred frame (staleness). The first frame is
  /// never dropped (there is nothing stale to fall back to).
  double frame_drop_p = 0.0;

  /// True when any error mode is active.
  bool enabled() const {
    return bit_flip_p > 0.0 || stuck_fraction > 0.0 || frame_drop_p > 0.0;
  }
};

/// Stateful noisy readout channel for one chip's health scan chain.
class SensorChannel {
 public:
  /// Transparent channel (no noise, no state).
  SensorChannel() = default;

  /// Samples the persistent stuck-at defects for a width×height×bits scan
  /// chain from @p rng (consumed at construction only).
  SensorChannel(const SensorNoiseConfig& config, int width, int height,
                int bits, Rng rng);

  /// Reads @p truth through the channel: stuck bits, then flips. Transient
  /// randomness (flips, frame drops) draws from @p rng. Every code must fit
  /// the scan width; a frame that does not is rejected before any bit draw
  /// and leaves the last frame as it was.
  IntMatrix read(const IntMatrix& truth, Rng& rng);

  // Channel statistics ---------------------------------------------------
  std::uint64_t frames_read() const { return frames_read_; }
  std::uint64_t frames_dropped() const { return frames_dropped_; }
  std::uint64_t bits_flipped() const { return bits_flipped_; }
  /// Number of permanently stuck DFF positions.
  int stuck_bits() const { return stuck_count_; }
  /// Reads since the last fresh frame (0 right after a successful read).
  std::uint64_t staleness() const { return staleness_; }

 private:
  /// Stuck DFFs of one cell, in read-code bit positions: a set bit of
  /// `mask` is stuck at the value of the same bit of `ones`.
  struct StuckCell {
    std::uint16_t mask = 0;
    std::uint16_t ones = 0;
  };

  SensorNoiseConfig config_{};
  FixedBernoulli flip_{};
  int width_ = 0;
  int height_ = 0;
  int bits_ = 0;
  /// Per-cell persistence, row-major like the frame.
  std::vector<StuckCell> stuck_;
  int stuck_count_ = 0;
  /// Scan positions of the non-stuck DFFs, ascending: the k-th flip draw of
  /// a read decides bit free_bits_[k].
  std::vector<int> free_bits_;
  IntMatrix last_frame_;
  bool has_last_ = false;
  std::uint64_t frames_read_ = 0;
  std::uint64_t frames_dropped_ = 0;
  std::uint64_t bits_flipped_ = 0;
  std::uint64_t staleness_ = 0;
};

}  // namespace meda
