#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geometry/rect.hpp"
#include "util/check.hpp"

/// @file state_index.hpp
/// Dense rect → state interning over a box. The compiled MDP builder numbers
/// a routing job's droplet states through it, and a Strategy keeps a copy to
/// answer its probes, so both read a state the same way.

namespace meda::core {

/// Dense rect → droplet-state interning over a routing job's hazard box.
/// Each droplet shape (w, h) seen gets (box.w − w + 1)·(box.h − h + 1) slots,
/// one per placement of that shape inside the box, so a lookup is a shape
/// match plus one array read instead of a hash probe.
class StateIndex {
 public:
  /// Marks a rect with no state: never interned, or not placeable in the box.
  static constexpr std::uint32_t kAbsent = 0xffffffffu;

  StateIndex() = default;
  explicit StateIndex(const Rect& box) : box_(box) {
    MEDA_REQUIRE(box.valid(), "state index over an empty box");
  }

  /// State of @p droplet, or kAbsent when it was never interned, its shape
  /// was never seen, or it reaches outside the box.
  std::uint32_t find(const Rect& droplet) const {
    if (!droplet.valid() || !box_.contains(droplet)) return kAbsent;
    const Shape* shape = shape_of(droplet);
    return shape ? slots_[slot_of(*shape, droplet)] : kAbsent;
  }

  /// The slot of @p droplet, kAbsent until a state is stored there; the
  /// shape's slot array is created on first use. Requires a valid droplet
  /// inside the box.
  std::uint32_t& slot(const Rect& droplet) {
    MEDA_REQUIRE(droplet.valid() && box_.contains(droplet),
                 "state index slot outside the box");
    const Shape* shape = shape_of(droplet);
    if (!shape) {
      Shape fresh;
      fresh.width = droplet.width();
      fresh.height = droplet.height();
      fresh.columns = box_.width() - fresh.width + 1;
      fresh.offset = static_cast<std::uint32_t>(slots_.size());
      const std::size_t rows =
          static_cast<std::size_t>(box_.height() - fresh.height + 1);
      slots_.resize(
          slots_.size() + rows * static_cast<std::size_t>(fresh.columns),
          kAbsent);
      shapes_.push_back(fresh);
      shape = &shapes_.back();
    }
    return slots_[slot_of(*shape, droplet)];
  }

 private:
  struct Shape {
    int width = 0;
    int height = 0;
    int columns = 0;           ///< placements per row: box.w − w + 1
    std::uint32_t offset = 0;  ///< first slot in slots_
  };
  const Shape* shape_of(const Rect& droplet) const {
    for (const Shape& shape : shapes_)
      if (shape.width == droplet.width() && shape.height == droplet.height())
        return &shape;
    return nullptr;
  }
  std::size_t slot_of(const Shape& shape, const Rect& droplet) const {
    return shape.offset +
           static_cast<std::size_t>(droplet.ya - box_.ya) *
               static_cast<std::size_t>(shape.columns) +
           static_cast<std::size_t>(droplet.xa - box_.xa);
  }

  Rect box_ = Rect::none();
  std::vector<Shape> shapes_;         ///< in first-seen order
  std::vector<std::uint32_t> slots_;  ///< every shape's slots, concatenated
};

}  // namespace meda::core
