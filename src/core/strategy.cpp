#include "core/strategy.hpp"

#include <algorithm>

namespace meda::core {

Strategy::Strategy(StateIndex index, std::vector<std::uint8_t> actions) {
  const auto size = static_cast<std::size_t>(std::count_if(
      actions.begin(), actions.end(),
      [](std::uint8_t a) { return a != kNoAction; }));
  if (size == 0) return;
  table_ = std::make_shared<const Table>(
      Table{std::move(index), std::move(actions), size});
}

Strategy::Strategy(const std::vector<std::pair<Rect, Action>>& states) {
  if (states.empty()) return;
  Rect box = Rect::none();
  for (const auto& entry : states) box = box.union_with(entry.first);
  // The index requires every droplet to be valid and inside the box.
  Table table{StateIndex(box), {}, 0};
  for (const auto& [droplet, action] : states) {
    std::uint32_t& slot = table.index.slot(droplet);
    if (slot == StateIndex::kAbsent) {
      slot = static_cast<std::uint32_t>(table.actions.size());
      table.actions.push_back(0);
    }
    table.actions[slot] = static_cast<std::uint8_t>(action);
  }
  table.size = table.actions.size();
  table_ = std::make_shared<const Table>(std::move(table));
}

}  // namespace meda::core
