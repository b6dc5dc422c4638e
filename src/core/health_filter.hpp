#pragma once

#include <cstdint>

#include "util/matrix.hpp"

/// @file health_filter.hpp
/// Health estimation over a noisy scan chain (robustness extension of
/// Section VI). The scheduler never acts on a raw scan frame; it acts on
/// this filter's per-cell estimate, which is hardened three ways:
///
///  - **Debounce / majority vote** — a changed reading is adopted only after
///    it repeats for a configurable number of consecutive frames, so a
///    transient bit flip cannot trigger a re-synthesis storm.
///  - **Monotone-wear prior** — charge-trapping degradation only lowers a
///    cell's health (architecture invariant "health can only decay"), so an
///    apparent *increase* needs strictly more confirming reads than a
///    decrease before it is believed.
///  - **Suspect flagging** — cells whose readings keep disagreeing with the
///    settled estimate (stuck DFFs, flaky chain segments) are flagged so the
///    scheduler's recovery ladder can quarantine them.

namespace meda::core {

/// Filter tuning. The defaults are a reasonable operating point for the
/// noise levels of bench/chaos_campaign; `enabled = false` keeps the
/// scheduler on raw scans (the paper's idealized-sensor behavior).
struct HealthFilterConfig {
  bool enabled = false;
  /// Consecutive agreeing reads to accept a *decrease* (wear direction).
  int down_confirm = 2;
  /// Consecutive agreeing reads to accept an *increase* (against the
  /// monotone-wear prior; only a persistent re-read overrides it).
  int up_confirm = 4;
  /// Disagreement score at which a cell is flagged suspect (sticky).
  int suspect_threshold = 12;
  /// Frames between halvings of the disagreement score: transient noise
  /// decays away, persistent disagreement accumulates.
  int suspect_decay_frames = 16;
  /// Cap on the per-cell agreement streak (confidence saturates).
  int confidence_cap = 16;

  /// The field list (see SchedulerConfig::for_each_field).
  template <typename F, typename... C>
  static void for_each_field(F&& f, C&&... c) {
    f("enabled", c.enabled...);
    f("down_confirm", c.down_confirm...);
    f("up_confirm", c.up_confirm...);
    f("suspect_threshold", c.suspect_threshold...);
    f("suspect_decay_frames", c.suspect_decay_frames...);
    f("confidence_cap", c.confidence_cap...);
  }
};

/// Stateful per-cell health estimator. Feed every scanned frame through
/// observe(); read estimate() instead of the scan.
class HealthFilter {
 public:
  HealthFilter() = default;
  explicit HealthFilter(HealthFilterConfig config) : config_(config) {}

  const HealthFilterConfig& config() const { return config_; }

  /// Folds one scanned health frame into the estimate. The first frame
  /// seeds the estimate verbatim.
  void observe(const IntMatrix& scan);

  /// Forced re-sense: the next observe() re-seeds the estimate from the
  /// frame verbatim, bypassing the debounce (used by the recovery ladder
  /// when reality demonstrably contradicts the estimate). Confidence and
  /// candidate state reset; suspect flags and scores are kept.
  void force_resense() { force_resense_ = true; }

  /// True once at least one frame has been observed.
  bool seeded() const { return seeded_; }

  /// Current per-cell health estimate (valid once seeded).
  const IntMatrix& estimate() const { return estimate_; }

  /// Per-cell agreement streak, capped at confidence_cap.
  const IntMatrix& confidence() const { return confidence_; }

  /// Per-cell suspect flags (sticky once set).
  const BoolMatrix& suspect() const { return suspect_; }
  int suspect_count() const { return suspect_count_; }

  std::uint64_t frames() const { return frames_; }
  /// Readings rejected (not yet adopted) by debounce or the wear prior.
  std::uint64_t rejected_updates() const { return rejected_updates_; }
  /// Estimate changes actually adopted after confirmation.
  std::uint64_t adopted_updates() const { return adopted_updates_; }

 private:
  HealthFilterConfig config_{};
  bool seeded_ = false;
  bool force_resense_ = false;
  IntMatrix estimate_;
  IntMatrix confidence_;
  IntMatrix candidate_;   ///< last disagreeing value per cell
  IntMatrix streak_;      ///< consecutive reads of candidate_
  IntMatrix disagree_;    ///< decaying disagreement score
  BoolMatrix suspect_;
  int suspect_count_ = 0;
  std::uint64_t frames_ = 0;
  std::uint64_t rejected_updates_ = 0;
  std::uint64_t adopted_updates_ = 0;
};

}  // namespace meda::core
