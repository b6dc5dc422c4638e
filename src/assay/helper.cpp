#include "assay/helper.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace meda::assay {

Rect zone(const Rect& start, const Rect& goal, const Rect& chip, int margin) {
  MEDA_REQUIRE(goal.valid(), "zone needs a valid goal");
  MEDA_REQUIRE(chip.valid(), "zone needs valid chip bounds");
  MEDA_REQUIRE(margin >= 0, "zone margin must be non-negative");
  const Rect box = start.valid() ? start.union_with(goal) : goal;
  const Rect inflated = box.inflated(margin);
  // Clamp to the chip (the paper's min(..., 1)/max(..., W) terms).
  return Rect{std::max(inflated.xa, chip.xa), std::max(inflated.ya, chip.ya),
              std::min(inflated.xb, chip.xb), std::min(inflated.yb, chip.yb)};
}

Rect placed_rect(const Loc& loc, int area) {
  const DropletSize size = size_for_area(area);
  return Rect::from_center(loc.x, loc.y, size.w, size.h);
}

namespace {

/// Input droplet areas of @p mo given the output areas of its predecessors.
std::vector<int> input_areas(const MoList& list, const Mo& mo,
                             const std::vector<std::vector<Rect>>& outputs) {
  std::vector<int> areas;
  for (const PreRef& ref : mo.pre) {
    const auto& outs = outputs[static_cast<std::size_t>(ref.mo)];
    MEDA_REQUIRE(ref.out >= 0 && ref.out < static_cast<int>(outs.size()),
                 "predecessor output index out of range");
    areas.push_back(outs[static_cast<std::size_t>(ref.out)].area());
    (void)list;
  }
  return areas;
}

}  // namespace

std::vector<std::vector<Rect>> compute_outputs(const MoList& list) {
  std::vector<std::vector<Rect>> outputs;
  outputs.reserve(list.ops.size());
  for (const Mo& mo : list.ops) {
    const std::vector<int> in = input_areas(list, mo, outputs);
    std::vector<Rect> out;
    switch (mo.type) {
      case MoType::kDispense:
        out = {placed_rect(mo.locs[0], mo.area)};
        break;
      case MoType::kMix:
        out = {placed_rect(mo.locs[0], in[0] + in[1])};
        break;
      case MoType::kSplit:
        out = {placed_rect(mo.locs[0], (in[0] + 1) / 2),
               placed_rect(mo.locs[1], in[0] / 2)};
        break;
      case MoType::kDilute: {
        const int total = in[0] + in[1];
        out = {placed_rect(mo.locs[0], (total + 1) / 2),
               placed_rect(mo.locs[1], total / 2)};
        break;
      }
      case MoType::kMagSense:
        out = {placed_rect(mo.locs[0], in[0])};
        break;
      case MoType::kOutput:
      case MoType::kDiscard:
        break;
    }
    outputs.push_back(std::move(out));
  }
  return outputs;
}

std::vector<RoutingJob> make_routing_jobs(
    const MoList& list, int mo_id,
    const std::vector<std::vector<Rect>>& outputs, const Rect& chip,
    int margin) {
  const Mo& mo = list.op(mo_id);
  MEDA_REQUIRE(outputs.size() == list.ops.size(),
               "outputs do not match the MO list");

  // δ_g of a predecessor reference: where its output droplet sits.
  auto pre_rect = [&](int which) -> Rect {
    const PreRef& ref = mo.pre[static_cast<std::size_t>(which)];
    return outputs[static_cast<std::size_t>(ref.mo)]
                  [static_cast<std::size_t>(ref.out)];
  };
  auto make = [&](int index, const Rect& start, const Rect& goal) {
    return RoutingJob{start, goal, zone(start, goal, chip, margin), mo.id,
                      index};
  };

  const std::vector<int> in = input_areas(list, mo, outputs);
  std::vector<RoutingJob> rjs;
  switch (mo.type) {
    case MoType::kDispense: {
      // The droplet starts off-chip; the dispensing strategy is a movement
      // perpendicular to the entry edge, so start is none.
      rjs.push_back(make(0, Rect::none(), placed_rect(mo.locs[0], mo.area)));
      break;
    }
    case MoType::kOutput:
    case MoType::kDiscard: {
      // Goal is the last on-chip location before exiting through an edge.
      rjs.push_back(make(0, pre_rect(0), placed_rect(mo.locs[0], in[0])));
      break;
    }
    case MoType::kMagSense: {
      rjs.push_back(make(0, pre_rect(0), placed_rect(mo.locs[0], in[0])));
      break;
    }
    case MoType::kMix: {
      // Both inputs route to the mixer location; goals are input-sized
      // (the droplets only become one merged droplet on contact).
      rjs.push_back(make(0, pre_rect(0), placed_rect(mo.locs[0], in[0])));
      rjs.push_back(make(1, pre_rect(1), placed_rect(mo.locs[0], in[1])));
      break;
    }
    case MoType::kSplit: {
      const int a0 = (in[0] + 1) / 2;
      const int a1 = in[0] / 2;
      rjs.push_back(make(0, pre_rect(0), placed_rect(mo.locs[0], a0)));
      rjs.push_back(make(1, pre_rect(0), placed_rect(mo.locs[1], a1)));
      break;
    }
    case MoType::kDilute: {
      // Mix phase: both inputs converge on loc[0]; split phase: the merged
      // halves go to loc[0] (stay) and loc[1].
      const int total = in[0] + in[1];
      const int a0 = (total + 1) / 2;
      const int a1 = total / 2;
      const Rect mix_goal0 = placed_rect(mo.locs[0], in[0]);
      const Rect mix_goal1 = placed_rect(mo.locs[0], in[1]);
      rjs.push_back(make(0, pre_rect(0), mix_goal0));
      rjs.push_back(make(1, pre_rect(1), mix_goal1));
      rjs.push_back(make(2, placed_rect(mo.locs[0], a0),
                         placed_rect(mo.locs[0], a0)));
      rjs.push_back(make(3, placed_rect(mo.locs[0], a1),
                         placed_rect(mo.locs[1], a1)));
      break;
    }
  }
  return rjs;
}

std::vector<RoutingJob> make_all_routing_jobs(const MoList& list,
                                              const Rect& chip, int margin) {
  const auto outputs = compute_outputs(list);
  std::vector<RoutingJob> all;
  for (const Mo& mo : list.ops) {
    auto rjs = make_routing_jobs(list, mo.id, outputs, chip, margin);
    all.insert(all.end(), rjs.begin(), rjs.end());
  }
  return all;
}

}  // namespace meda::assay
