#pragma once

#include <cstdint>
#include <vector>

#include "util/matrix.hpp"

/// @file health_filter.hpp
/// Health estimation over a noisy scan chain (robustness extension of
/// Section VI). The scheduler never acts on a raw scan frame; it acts on
/// this filter's per-cell estimate, which is hardened three ways:
///
///  - **Debounce / majority vote** — a changed reading is adopted only after
///    it repeats for a fixed number of consecutive frames, so a
///    transient bit flip cannot trigger a re-synthesis storm.
///  - **Monotone-wear prior** — charge-trapping degradation only lowers a
///    cell's health (architecture invariant "health can only decay"), so an
///    apparent *increase* needs strictly more confirming reads than a
///    decrease before it is believed.
///  - **Suspect flagging** — cells whose readings keep disagreeing with the
///    settled estimate (stuck DFFs, flaky chain segments) are flagged so the
///    scheduler's recovery ladder can quarantine them.
///
/// A frame costs what changed: observe() updates the cells whose reading
/// differs from the estimate, found by a row-wise compare, and the cells
/// that held a candidate after the previous frame. Every other cell reads
/// its estimate with streak 0 and no candidate, which the update would
/// leave as it is. Only the disagreement decay, every kSuspectDecayFrames-th
/// frame, walks the whole chip.

namespace meda::core {

/// Filter switch: `enabled = false` keeps the scheduler on raw scans (the
/// paper's idealized-sensor behavior). The thresholds are HealthFilter's
/// constants.
struct HealthFilterConfig {
  bool enabled = false;

  /// The field list (see SchedulerConfig::for_each_field).
  template <typename F, typename... C>
  static void for_each_field(F&& f, C&&... c) {
    f("enabled", c.enabled...);
  }
};

/// Stateful per-cell health estimator. Feed every scanned frame through
/// observe(); read estimate() instead of the scan. The thresholds are a
/// reasonable operating point for the noise levels of bench/chaos_campaign.
class HealthFilter {
 public:
  /// Consecutive agreeing reads to accept a *decrease* (wear direction).
  static constexpr int kDownConfirm = 2;
  /// Consecutive agreeing reads to accept an *increase* (against the
  /// monotone-wear prior; only a persistent re-read overrides it).
  static constexpr int kUpConfirm = 4;
  /// Disagreement score at which a cell is flagged suspect (sticky).
  static constexpr int kSuspectThreshold = 12;
  /// Frames between halvings of the disagreement score: transient noise
  /// decays away, persistent disagreement accumulates.
  static constexpr int kSuspectDecayFrames = 16;

  /// Folds one scanned health frame into the estimate. The first frame
  /// seeds the estimate verbatim.
  void observe(const IntMatrix& scan);

  /// Forced re-sense: the next observe() re-seeds the estimate from the
  /// frame verbatim, bypassing the debounce (used by the recovery ladder
  /// when reality demonstrably contradicts the estimate). Candidate state
  /// resets; suspect flags and scores are kept.
  void force_resense() { force_resense_ = true; }

  /// True once at least one frame has been observed.
  bool seeded() const { return seeded_; }

  /// Current per-cell health estimate (valid once seeded).
  const IntMatrix& estimate() const { return estimate_; }

  /// Per-cell suspect flags (sticky once set).
  const BoolMatrix& suspect() const { return suspect_; }
  int suspect_count() const { return suspect_count_; }

  std::uint64_t frames() const { return frames_; }
  /// Readings rejected (not yet adopted) by debounce or the wear prior.
  std::uint64_t rejected_updates() const { return rejected_updates_; }
  /// Estimate changes actually adopted after confirmation.
  std::uint64_t adopted_updates() const { return adopted_updates_; }

 private:
  bool seeded_ = false;
  bool force_resense_ = false;
  IntMatrix estimate_;
  IntMatrix candidate_;   ///< last disagreeing value per cell
  IntMatrix streak_;      ///< consecutive reads of candidate_
  IntMatrix disagree_;    ///< decaying disagreement score
  BoolMatrix suspect_;
  /// The cells holding a candidate; every other cell has streak 0.
  std::vector<std::size_t> pending_;
  int suspect_count_ = 0;
  std::uint64_t frames_ = 0;
  std::uint64_t rejected_updates_ = 0;
  std::uint64_t adopted_updates_ = 0;
};

}  // namespace meda::core
