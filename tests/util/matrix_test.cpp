#include "util/matrix.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace meda {
namespace {

TEST(Matrix, ConstructionAndFill) {
  DoubleMatrix m(4, 3, 1.5);
  EXPECT_EQ(m.width(), 4);
  EXPECT_EQ(m.height(), 3);
  EXPECT_EQ(m.size(), 12u);
  for (int y = 0; y < 3; ++y)
    for (int x = 0; x < 4; ++x) EXPECT_DOUBLE_EQ(m.at(x, y), 1.5);
  m.fill(0.0);
  EXPECT_DOUBLE_EQ(m.at(3, 2), 0.0);
}

TEST(Matrix, DefaultIsEmpty) {
  IntMatrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.width(), 0);
}

TEST(Matrix, InBounds) {
  IntMatrix m(5, 2);
  EXPECT_TRUE(m.in_bounds(0, 0));
  EXPECT_TRUE(m.in_bounds(4, 1));
  EXPECT_FALSE(m.in_bounds(5, 0));
  EXPECT_FALSE(m.in_bounds(0, 2));
  EXPECT_FALSE(m.in_bounds(-1, 0));
}

TEST(Matrix, AtThrowsOutOfBounds) {
  IntMatrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), PreconditionError);
  EXPECT_THROW(m.at(0, -1), PreconditionError);
}

TEST(Matrix, ElementsAreIndependent) {
  IntMatrix m(3, 3);
  m.at(1, 2) = 7;
  m.at(2, 1) = 9;
  EXPECT_EQ(m.at(1, 2), 7);
  EXPECT_EQ(m.at(2, 1), 9);
  EXPECT_EQ(m.at(0, 0), 0);
}

TEST(Matrix, EqualityComparesDimensionsAndData) {
  IntMatrix a(2, 2), b(2, 2), c(2, 3);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  b.at(0, 0) = 1;
  EXPECT_FALSE(a == b);
}

TEST(Matrix, DataLayoutIsRowMajorInY) {
  IntMatrix m(3, 2);
  m.at(2, 0) = 5;  // index 2
  m.at(0, 1) = 6;  // index 3
  EXPECT_EQ(m.data()[2], 5);
  EXPECT_EQ(m.data()[3], 6);
}

TEST(Matrix, RejectsNegativeDimensions) {
  EXPECT_THROW(IntMatrix(-1, 2), PreconditionError);
}

TEST(Matrix, ForEachDifferenceVisitsTheDifferingCellsInOrder) {
  IntMatrix a(5, 4, 1);
  IntMatrix b = a;
  const auto differences = [&] {
    std::vector<std::size_t> cells;
    for_each_difference(a, b, [&](std::size_t i) { cells.push_back(i); });
    return cells;
  };
  EXPECT_TRUE(differences().empty());
  b(4, 0) = 2;  // the last cell of a row
  b(0, 2) = 0;  // the first cell of another
  b(3, 2) = 7;
  a(2, 3) = 9;  // the last row, differing on the other side
  EXPECT_EQ(differences(), (std::vector<std::size_t>{4, 10, 13, 17}));
  // The visitor may write the cell it is given.
  for_each_difference(a, b, [&](std::size_t i) { b.data()[i] = a.data()[i]; });
  EXPECT_EQ(a, b);
  EXPECT_THROW(for_each_difference(a, IntMatrix(4, 5, 1), [](std::size_t) {}),
               PreconditionError);
  for_each_difference(IntMatrix(0, 3), IntMatrix(0, 3),
                      [](std::size_t) { FAIL(); });
}

}  // namespace
}  // namespace meda
