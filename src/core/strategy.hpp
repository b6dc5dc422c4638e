#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/state_index.hpp"
#include "geometry/rect.hpp"
#include "model/action.hpp"

/// @file strategy.hpp
/// A synthesized droplet routing strategy π: droplet state → microfluidic
/// action (Section VI-C). Memoryless and deterministic — value iteration on
/// an MDP always admits an optimal strategy of this form.
///
/// A strategy is an immutable flat table: the model's StateIndex plus one
/// action byte per droplet state, so a probe is one index lookup and a byte
/// read. Copies share the table, so copying a strategy, a SynthesisResult or
/// a whole StrategyLibrary (a library hit, a store) costs a reference-count
/// bump. Strategy extraction (synthesizer.cpp) and the fallback router build
/// the tables; nothing changes one after it is built.

namespace meda::core {

/// Immutable, shared mapping from droplet rectangles to actions.
class Strategy {
 public:
  /// The action byte of a state that has no action.
  static constexpr std::uint8_t kNoAction = 0xff;

  /// The empty strategy: it covers no state.
  Strategy() = default;

  /// A strategy over a model's states: @p actions holds one byte per state
  /// of @p index, the state's Action or kNoAction.
  Strategy(StateIndex index, std::vector<std::uint8_t> actions);

  /// A strategy over the listed (droplet, action) states, such as a routed
  /// path, indexed over their bounding box. A droplet listed twice keeps its
  /// last action. Requires valid droplets.
  explicit Strategy(const std::vector<std::pair<Rect, Action>>& states);

  /// The action prescribed for @p droplet, or nullopt if the state is not
  /// covered (e.g. the droplet drifted outside the synthesized region and a
  /// re-synthesis is required).
  std::optional<Action> action(const Rect& droplet) const {
    if (!table_) return std::nullopt;
    const std::uint32_t state = table_->index.find(droplet);
    if (state == StateIndex::kAbsent) return std::nullopt;
    const std::uint8_t a = table_->actions[state];
    if (a == kNoAction) return std::nullopt;
    return static_cast<Action>(a);
  }

  /// Number of states with an action.
  std::size_t size() const { return table_ ? table_->size : 0; }
  bool empty() const { return size() == 0; }

 private:
  struct Table {
    StateIndex index;
    std::vector<std::uint8_t> actions;  ///< per state of index
    std::size_t size = 0;               ///< entries other than kNoAction
  };
  std::shared_ptr<const Table> table_;
};

}  // namespace meda::core
