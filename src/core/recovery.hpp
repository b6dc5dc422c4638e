#pragma once

#include <cstdint>
#include <string_view>

/// @file recovery.hpp
/// The scheduler's structured recovery ladder (robustness extension of
/// Algorithm 3). When execution misbehaves — a droplet stops making
/// progress, synthesis comes back infeasible, sensing contradicts reality —
/// the scheduler escalates through a fixed ladder instead of burning its
/// cycle budget or failing the whole bioassay outright:
///
///   1. progress-rate watchdog        → forced re-sense + strategy drop
///   2. re-synthesis, bounded retries → exponential backoff between attempts
///   3. hazard quarantine             → persistently misbehaving cells are
///                                      clamped dead in the health view and
///                                      routed around
///   4. replica failover              → on N-modular-redundant MOs a replica
///                                      that runs out of retries is abandoned
///                                      while its siblings keep racing
///   5. graceful per-job abort        → the MO (and its dependents) abort
///                                      with a structured reason; unrelated
///                                      MOs keep running
///
/// Every rung fired is one `"recovery"` entry of ExecutionStats::events,
/// named by to_string(RecoveryAction), and surfaced in the HTML execution
/// report.

namespace meda::core {

/// Which rung of the ladder fired.
enum class RecoveryAction : unsigned char {
  kWatchdogResense,    ///< stuck droplet: forced re-sense, strategy dropped
  kSynthesisRetry,     ///< infeasible synthesis: retry scheduled
  kBackoff,            ///< exponential backoff wait entered
  kQuarantine,         ///< cells quarantined out of the health view
  kContentionDetour,   ///< droplet-blocked stall: re-route around the
                       ///< blocker instead of quarantining healthy cells
  kJobAbort,           ///< one MO aborted gracefully
  kQuarantineParole,   ///< budget pressure: oldest quarantined cells that
                       ///< re-sensed alive were released back to the router
  kReplicaFailover,    ///< a redundant replica exhausted its per-replica
                       ///< retry budget and was abandoned; the MO keeps
                       ///< running on the surviving replicas (only
                       ///< all-replica failure escalates to kJobAbort)
};

std::string_view to_string(RecoveryAction action);

/// Re-synthesis attempts per routing job before escalating past retries.
inline constexpr int kMaxSynthesisRetries = 3;
/// Backoff before retry i is kBackoffBaseCycles << (i-1) cycles.
inline constexpr int kBackoffBaseCycles = 4;
/// Ceiling on the quarantine set as a fraction of the chip area.
/// Quarantine targets a few persistently misbehaving cells; when the
/// filter floods the scheduler with suspects (a failing *sensing
/// channel*, not a failing substrate), quarantining them all would blind
/// the router to most of a still-routable chip. Past the budget the
/// ladder stops quarantining and trusts the filtered estimate instead.
inline constexpr double kMaxQuarantineFraction = 0.15;

/// Ladder tuning: the knobs callers set to shape their scenario. The
/// budgets above and the detector constants in scheduler.cpp are fixed.
/// `enabled = false` preserves the legacy behavior: any infeasible
/// synthesis fails the whole execution immediately and stuck droplets run
/// into the cycle limit.
struct RecoveryConfig {
  bool enabled = false;
  /// Watchdog firings on the same routing job before its blocked frontier
  /// is quarantined.
  int quarantine_after_watchdogs = 2;

  /// The field list (see SchedulerConfig::for_each_field).
  template <typename F, typename... C>
  static void for_each_field(F&& f, C&&... c) {
    f("enabled", c.enabled...);
    f("quarantine_after_watchdogs", c.quarantine_after_watchdogs...);
  }
};

/// Aggregated ladder counters for one execution.
struct RecoveryCounters {
  int watchdog_fires = 0;
  int forced_resenses = 0;
  int synthesis_retries = 0;
  std::uint64_t backoff_cycles = 0;
  int quarantined_cells = 0;
  int contention_detours = 0;
  int aborted_jobs = 0;
  /// Always 0: no ladder rung installs a fallback route, and the scheduler
  /// has no router besides the synthesizer. Kept only because perfbench
  /// reports it as core.recovery.fallback_routes; it goes with that metric.
  int fallback_routes = 0;
  int paroled_cells = 0;  ///< quarantined cells released on re-sense

  /// The field list: calls `f("name", c.field...)` once per counter, in
  /// declaration order, zipping every struct passed in @p c (none walks
  /// the names only). The roll-up, the run metrics, the campaign slot
  /// codec, its checkpoint digest and the metrics CSV all walk it, so a new
  /// counter is declared above, listed here, and edited nowhere else.
  template <typename F, typename... C>
  static void for_each_field(F&& f, C&&... c) {
    f("watchdog_fires", c.watchdog_fires...);
    f("forced_resenses", c.forced_resenses...);
    f("synthesis_retries", c.synthesis_retries...);
    f("backoff_cycles", c.backoff_cycles...);
    f("quarantined_cells", c.quarantined_cells...);
    f("contention_detours", c.contention_detours...);
    f("aborted_jobs", c.aborted_jobs...);
    f("fallback_routes", c.fallback_routes...);
    f("paroled_cells", c.paroled_cells...);
  }

  bool any() const { return *this != RecoveryCounters{}; }

  /// Sums @p other into this (campaign roll-ups).
  RecoveryCounters& operator+=(const RecoveryCounters& other) {
    for_each_field([](const char*, auto& a, const auto& b) { a += b; }, *this,
                   other);
    return *this;
  }

  friend bool operator==(const RecoveryCounters&, const RecoveryCounters&) =
      default;
};

}  // namespace meda::core
