#pragma once

#include <algorithm>
#include <vector>

#include "util/check.hpp"

/// @file matrix.hpp
/// Dense 2-D array addressed as (x, y) to match the paper's MC_ij convention,
/// where i is the column (x, 1-based in the paper, 0-based here) and j the row.

namespace meda {

/// Dense width×height grid with value semantics. Storage is row-major in y.
template <typename T>
class Matrix {
 public:
  Matrix() = default;

  /// Creates a width×height matrix filled with @p init.
  Matrix(int width, int height, const T& init = T{})
      : width_(width), height_(height) {
    MEDA_REQUIRE(width >= 0 && height >= 0, "matrix dimensions negative");
    data_.assign(static_cast<std::size_t>(width) *
                     static_cast<std::size_t>(height),
                 init);
  }

  int width() const { return width_; }
  int height() const { return height_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  /// True if (x, y) lies inside the grid.
  bool in_bounds(int x, int y) const {
    return x >= 0 && x < width_ && y >= 0 && y < height_;
  }

  /// Bounds-checked element access.
  T& at(int x, int y) {
    MEDA_REQUIRE(in_bounds(x, y), "matrix index out of bounds");
    return data_[index(x, y)];
  }
  const T& at(int x, int y) const {
    MEDA_REQUIRE(in_bounds(x, y), "matrix index out of bounds");
    return data_[index(x, y)];
  }

  /// Unchecked element access for hot loops (caller guarantees bounds).
  T& operator()(int x, int y) { return data_[index(x, y)]; }
  const T& operator()(int x, int y) const { return data_[index(x, y)]; }

  void fill(const T& value) { data_.assign(data_.size(), value); }

  /// Flat storage view (y-major); useful for reductions and hashing.
  const std::vector<T>& data() const { return data_; }
  std::vector<T>& data() { return data_; }

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.width_ == b.width_ && a.height_ == b.height_ &&
           a.data_ == b.data_;
  }

 private:
  std::size_t index(int x, int y) const {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
           static_cast<std::size_t>(x);
  }

  int width_ = 0;
  int height_ = 0;
  std::vector<T> data_;
};

/// Calls @p visit(i) with the flat (row-major) index of every cell in which
/// @p a and @p b differ, in ascending order. Each row is compared whole
/// first, so an equal row costs one block compare. @p visit may write the
/// cell it is given, in either matrix.
template <typename T, typename F>
void for_each_difference(const Matrix<T>& a, const Matrix<T>& b, F&& visit) {
  MEDA_REQUIRE(a.width() == b.width() && a.height() == b.height(),
               "matrices differ in shape");
  const std::size_t width = static_cast<std::size_t>(a.width());
  const T* const pa = a.data().data();
  const T* const pb = b.data().data();
  for (std::size_t row = 0; row < a.size(); row += width) {
    if (std::equal(pa + row, pa + row + width, pb + row)) continue;
    for (std::size_t i = row; i < row + width; ++i)
      if (pa[i] != pb[i]) visit(i);
  }
}

using BoolMatrix = Matrix<unsigned char>;
using DoubleMatrix = Matrix<double>;
using IntMatrix = Matrix<int>;

}  // namespace meda
