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
/// least-significant health bit first). The channel keeps its frame between
/// reads, with the truth it last accepted. A fresh read costs what changed:
/// it finds the codes that differ from the kept truth by a row-wise compare,
/// restores the cells the previous fresh frame flipped and re-forces the
/// changed codes through their stuck DFFs, which leaves the truth read
/// through the stuck DFFs, then flips the frame's transient bits. The flips
/// of a frame are independent Bernoulli(bit_flip_p) trials over the
/// non-stuck bits, so the number of clean non-stuck bits before the next
/// flip is geometric; a read draws it by inversion,
/// floor(ln U / ln(1 - p)) (Knuth, TAOCP Vol. 2, 3.4.1), and indexes the
/// gaps into a table of the non-stuck scan positions built at construction.
/// The stream contract: one frame-drop draw first (from the second read on,
/// when frame_drop_p > 0), then, when 0 < bit_flip_p < 1, one 64-bit draw
/// per flipped bit plus one that ends the frame. At bit_flip_p = 0 no bit
/// flips and at bit_flip_p = 1 every non-stuck bit flips, both without a
/// draw.
/// With a default-constructed SensorNoiseConfig the channel is transparent.

namespace meda {

/// Share of stuck DFFs that are stuck-at-1 (the rest are stuck-at-0).
inline constexpr double kStuckAtOneShare = 0.5;

/// Error-channel configuration for the health scan-out path.
struct SensorNoiseConfig {
  /// Per-bit probability of a transient flip (independent per read).
  double bit_flip_p = 0.0;
  /// Fraction of scan-chain DFF positions that are permanently stuck.
  /// Stuck positions are sampled once per chip and persist across reads.
  double stuck_fraction = 0.0;
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
  /// the scan width; a frame that does not is rejected before any flip draw
  /// and leaves the channel as it was. Returns the whole frame.
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
  /// 1 / ln(1 - bit_flip_p) when 0 < bit_flip_p < 1: ln U times it is the
  /// gap before the next flip.
  double gap_scale_ = 0.0;
  int width_ = 0;
  int height_ = 0;
  int bits_ = 0;
  /// Per-cell persistence, row-major like the frame.
  std::vector<StuckCell> stuck_;
  int stuck_count_ = 0;
  /// Scan positions of the non-stuck DFFs, ascending: the flip gaps of a
  /// read count entries of this table.
  std::vector<int> free_bits_;
  /// The last accepted truth (all zero before the first read); every code
  /// in it has passed the scan-width check.
  IntMatrix truth_;
  /// The last fresh frame: truth_ read through the stuck DFFs, with the
  /// cells of flipped_ flipped.
  IntMatrix last_frame_;
  /// The cell of each bit that last_frame_'s flips touched, in draw order.
  std::vector<std::size_t> flipped_;
  /// Scratch of a read: the cells whose truth differs from truth_.
  std::vector<std::size_t> changed_;
  bool has_last_ = false;
  std::uint64_t frames_read_ = 0;
  std::uint64_t frames_dropped_ = 0;
  std::uint64_t bits_flipped_ = 0;
  std::uint64_t staleness_ = 0;
};

}  // namespace meda
