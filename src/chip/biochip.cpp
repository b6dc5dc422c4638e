#include "chip/biochip.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace meda {

DegradationParams DegradationRange::sample(Rng& rng) const {
  MEDA_REQUIRE(0.0 <= tau_lo && tau_lo <= tau_hi && tau_hi <= 1.0,
               "tau range invalid");
  MEDA_REQUIRE(0.0 < c_lo && c_lo <= c_hi, "c range invalid");
  return DegradationParams{rng.uniform(tau_lo, tau_hi),
                           rng.uniform(c_lo, c_hi)};
}

Biochip::Biochip(const BiochipConfig& config, Rng& rng) : config_(config) {
  MEDA_REQUIRE(config.width >= 1 && config.height >= 1,
               "chip dimensions must be positive");
  MEDA_REQUIRE(config.health_bits >= 1 && config.health_bits <= 16,
               "health bits out of range");
  const std::size_t n = static_cast<std::size_t>(config.width) *
                        static_cast<std::size_t>(config.height);
  cells_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    cells_.emplace_back(config.degradation.sample(rng));
  health_ = IntMatrix(config.width, config.height);
  for (std::size_t i = 0; i < n; ++i) requantize(i);
}

const Microelectrode& Biochip::mc(int x, int y) const {
  MEDA_REQUIRE(in_bounds(x, y), "MC coordinates out of bounds");
  return cells_[index(x, y)];
}

void Biochip::actuate(const BoolMatrix& pattern) {
  MEDA_REQUIRE(pattern.width() == config_.width &&
                   pattern.height() == config_.height,
               "actuation pattern dimensions mismatch");
  const std::vector<unsigned char>& set = pattern.data();  // row-major
  for (std::size_t i = 0; i < set.size(); ++i) {
    if (set[i]) {
      cells_[i].actuate();
      requantize(i);
      ++total_actuations_;
    }
  }
  ++cycles_;
}

void Biochip::actuate(const Rect& cells) {
  const Rect clipped = cells.intersection_with(bounds());
  if (!clipped.valid()) return;
  for (int y = clipped.ya; y <= clipped.yb; ++y) {
    for (int x = clipped.xa; x <= clipped.xb; ++x) {
      const std::size_t i = index(x, y);
      cells_[i].actuate();
      requantize(i);
      ++total_actuations_;
    }
  }
}

void Biochip::wear(int x, int y, std::uint64_t n) {
  MEDA_REQUIRE(in_bounds(x, y), "MC coordinates out of bounds");
  const std::size_t i = index(x, y);
  cells_[i].actuate_n(n);
  requantize(i);
}

void Biochip::inject_fault(int x, int y, std::uint64_t fail_at) {
  MEDA_REQUIRE(in_bounds(x, y), "MC coordinates out of bounds");
  const std::size_t i = index(x, y);
  cells_[i].inject_fault(fail_at);
  requantize(i);
}

DoubleMatrix Biochip::degradation_matrix() const {
  DoubleMatrix d(config_.width, config_.height);
  for (int y = 0; y < config_.height; ++y)
    for (int x = 0; x < config_.width; ++x)
      d(x, y) = cells_[index(x, y)].degradation();
  return d;
}

IntMatrix Biochip::health_matrix(const Rect& area) const {
  const Rect clipped = area.intersection_with(bounds());
  MEDA_REQUIRE(clipped.valid(), "health area lies outside the chip");
  IntMatrix h(clipped.width(), clipped.height());
  for (int y = clipped.ya; y <= clipped.yb; ++y)
    for (int x = clipped.xa; x <= clipped.xb; ++x)
      h(x - clipped.xa, y - clipped.ya) = health_(x, y);
  return h;
}

Matrix<std::uint64_t> Biochip::actuation_matrix() const {
  Matrix<std::uint64_t> n(config_.width, config_.height);
  for (int y = 0; y < config_.height; ++y)
    for (int x = 0; x < config_.width; ++x)
      n(x, y) = cells_[index(x, y)].actuations();
  return n;
}

}  // namespace meda
