#pragma once

#include <vector>

#include "util/matrix.hpp"

/// @file scan_chain.hpp
/// The MEDA scan-chain readout path (Section III-A): every operational
/// cycle the actuation pattern is shifted *into* the MC array as a
/// bitstream, and the sensing results are shifted *out* as a bitstream.
/// With the proposed dual-DFF cell the scan-out carries b bits per MC.
///
/// Bit order: row-major from MC(0, 0), least-significant health bit first
/// within each MC (the original DFF's bit is the MSB of each code — it
/// samples first, see Section III-B). This is the one definition of the
/// layout: SensorChannel reads a frame in this order without materializing
/// the stream.

namespace meda {

/// Serializes a b-bit health matrix into the scan-out bitstream.
/// Every code must fit in @p bits.
std::vector<bool> scan_out_health(const IntMatrix& health, int bits);

/// Parses a scan-out bitstream back into the health matrix.
/// Requires stream.size() == width·height·bits.
IntMatrix scan_in_health(const std::vector<bool>& stream, int width,
                         int height, int bits);

/// Serializes an actuation pattern into the scan-in bitstream (1 bit/MC).
std::vector<bool> scan_out_actuation(const BoolMatrix& pattern);

/// Parses an actuation bitstream. Requires stream.size() == width·height.
BoolMatrix scan_in_actuation(const std::vector<bool>& stream, int width,
                             int height);

}  // namespace meda
