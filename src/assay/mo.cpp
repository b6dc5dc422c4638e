#include "assay/mo.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/check.hpp"

namespace meda::assay {

std::string_view to_string(MoType type) {
  switch (type) {
    case MoType::kDispense: return "dis";
    case MoType::kOutput: return "out";
    case MoType::kDiscard: return "dsc";
    case MoType::kMix: return "mix";
    case MoType::kSplit: return "spt";
    case MoType::kDilute: return "dlt";
    case MoType::kMagSense: return "mag";
  }
  return "?";
}

int input_count(MoType type) {
  switch (type) {
    case MoType::kDispense: return 0;
    case MoType::kOutput:
    case MoType::kDiscard:
    case MoType::kSplit:
    case MoType::kMagSense: return 1;
    case MoType::kMix:
    case MoType::kDilute: return 2;
  }
  return 0;
}

int output_count(MoType type) {
  switch (type) {
    case MoType::kDispense:
    case MoType::kMix:
    case MoType::kMagSense: return 1;
    case MoType::kOutput:
    case MoType::kDiscard: return 0;
    case MoType::kSplit:
    case MoType::kDilute: return 2;
  }
  return 0;
}

/// Number of module-center locations an MO type carries.
static int loc_count(MoType type) {
  switch (type) {
    case MoType::kSplit:
    case MoType::kDilute: return 2;
    default: return 1;
  }
}

const Mo& MoList::op(int id) const {
  MEDA_REQUIRE(id >= 0 && id < static_cast<int>(ops.size()),
               "MO id out of range");
  return ops[static_cast<std::size_t>(id)];
}

DropletSize size_for_area(int area) {
  MEDA_REQUIRE(area >= 1, "droplet area must be positive");
  DropletSize best;
  bool have_best = false;
  // Candidate patterns: h×h and (h+1)×h around sqrt(area).
  const int h_max = static_cast<int>(std::ceil(std::sqrt(area))) + 1;
  for (int h = 1; h <= h_max; ++h) {
    for (int w : {h, h + 1}) {
      const double err =
          std::abs(w * h - area) / static_cast<double>(area);
      const bool better =
          !have_best || err < best.error - 1e-12 ||
          (std::abs(err - best.error) <= 1e-12 && w * h > best.area());
      if (better) {
        best = DropletSize{w, h, err};
        have_best = true;
      }
    }
  }
  MEDA_ASSERT(have_best, "no candidate pattern found");
  return best;
}

MoList merge_assays(const MoList& a, const MoList& b) {
  MoList merged;
  merged.name = a.name + " + " + b.name;
  merged.ops = a.ops;
  const int offset = static_cast<int>(a.ops.size());
  for (Mo mo : b.ops) {
    mo.id += offset;
    for (PreRef& ref : mo.pre) ref.mo += offset;
    merged.ops.push_back(std::move(mo));
  }
  return merged;
}

MoList translate_assay(const MoList& list, double dx, double dy) {
  MoList shifted = list;
  for (Mo& mo : shifted.ops)
    for (Loc& loc : mo.locs) {
      loc.x += dx;
      loc.y += dy;
    }
  return shifted;
}

namespace {

[[noreturn]] void fail(const MoList& list, int id, const std::string& what) {
  std::ostringstream os;
  os << "MO list '" << list.name << "' op " << id << ": " << what;
  throw PreconditionError(os.str());
}

}  // namespace

void validate(const MoList& list, const Rect& chip) {
  MEDA_REQUIRE(chip.valid(), "invalid chip bounds");
  MEDA_REQUIRE(!list.ops.empty(), "empty MO list");

  // consumption[mo][out] counts how many successors consume that droplet.
  std::vector<std::vector<int>> consumption;
  consumption.reserve(list.ops.size());
  std::vector<std::vector<int>> areas;  // output droplet areas per MO
  areas.reserve(list.ops.size());

  for (std::size_t i = 0; i < list.ops.size(); ++i) {
    const Mo& mo = list.ops[i];
    const int id = static_cast<int>(i);
    if (mo.id != id) fail(list, id, "id must equal its list position");
    if (static_cast<int>(mo.pre.size()) != input_count(mo.type))
      fail(list, id, "wrong number of predecessor references");
    if (static_cast<int>(mo.locs.size()) != loc_count(mo.type))
      fail(list, id, "wrong number of locations");
    if (mo.hold_cycles < 0) fail(list, id, "negative hold time");
    if (mo.replicas < 1 || mo.replicas > kMaxReplicas)
      fail(list, id, "replicas must be in [1, kMaxReplicas = " +
                         std::to_string(kMaxReplicas) + "]");
    if (mo.replicas > 1 && mo.type != MoType::kDispense)
      fail(list, id, "replicas > 1 is only meaningful on dispense MOs");

    std::vector<int> in_areas;
    for (const PreRef& ref : mo.pre) {
      if (ref.mo < 0 || ref.mo >= id)
        fail(list, id, "predecessor reference must point backwards");
      const auto& pre_outs = areas[static_cast<std::size_t>(ref.mo)];
      if (ref.out < 0 || ref.out >= static_cast<int>(pre_outs.size()))
        fail(list, id, "predecessor output index out of range");
      auto& uses = consumption[static_cast<std::size_t>(ref.mo)]
                              [static_cast<std::size_t>(ref.out)];
      if (uses > 0) fail(list, id, "predecessor droplet consumed twice");
      ++uses;
      in_areas.push_back(pre_outs[static_cast<std::size_t>(ref.out)]);
    }

    // Propagate droplet areas (Section VI-B sizing).
    std::vector<int> out_areas;
    switch (mo.type) {
      case MoType::kDispense:
        if (mo.area < 1) fail(list, id, "dispense area must be positive");
        out_areas = {mo.area};
        break;
      case MoType::kMix:
        out_areas = {in_areas[0] + in_areas[1]};
        break;
      case MoType::kSplit:
        out_areas = {(in_areas[0] + 1) / 2, in_areas[0] / 2};
        break;
      case MoType::kDilute: {
        const int total = in_areas[0] + in_areas[1];
        out_areas = {(total + 1) / 2, total / 2};
        break;
      }
      case MoType::kMagSense:
        out_areas = {in_areas[0]};
        break;
      case MoType::kOutput:
      case MoType::kDiscard:
        break;
    }

    // Each placed droplet (output or exit location) must fit on the chip.
    for (std::size_t k = 0; k < mo.locs.size(); ++k) {
      const int area = out_areas.empty() ? in_areas[0]
                                         : out_areas[std::min(
                                               k, out_areas.size() - 1)];
      const DropletSize size = size_for_area(area);
      const Rect rect =
          Rect::from_center(mo.locs[k].x, mo.locs[k].y, size.w, size.h);
      if (!chip.contains(rect))
        fail(list, id, "placed droplet " + rect.to_string() +
                           " does not fit on the chip");
    }

    consumption.emplace_back(out_areas.size(), 0);
    areas.push_back(std::move(out_areas));
  }

  // Every produced droplet must eventually be consumed (no orphans sitting
  // on the chip when the bioassay completes).
  for (std::size_t i = 0; i < list.ops.size(); ++i) {
    for (std::size_t k = 0; k < consumption[i].size(); ++k) {
      if (consumption[i][k] == 0)
        fail(list, static_cast<int>(i),
             "output droplet " + std::to_string(k) + " is never consumed");
    }
  }
}

}  // namespace meda::assay
