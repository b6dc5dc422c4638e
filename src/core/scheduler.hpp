#pragma once

#include <cstdint>
#include <string>

#include "assay/benchmarks.hpp"
#include "assay/helper.hpp"
#include "assay/mo.hpp"
#include "core/biochip_io.hpp"
#include "core/health_filter.hpp"
#include "core/library.hpp"
#include "core/recovery.hpp"
#include "core/synthesizer.hpp"
#include "obs/events.hpp"
#include "util/stats.hpp"

/// @file scheduler.hpp
/// The hybrid scheduler of Section VI-D (Algorithm 3): executes a planned
/// bioassay on a MEDA biochip, decomposing each microfluidic operation into
/// routing jobs, retrieving or synthesizing routing strategies, and
/// re-synthesizing whenever the sensed health matrix changes within a job's
/// hazard area. With `adaptive = false` it degenerates into the
/// degradation-unaware baseline of Section VII-A: shortest-path strategies
/// synthesized once against a full-health force model and never revised.

namespace meda::core {

/// Scheduler configuration.
struct SchedulerConfig {
  SynthesisConfig synthesis{};
  /// true — the proposed adaptive framework (synthesize from sensed H,
  /// re-synthesize on health changes); false — the baseline router
  /// (full-health shortest paths, never re-synthesized).
  bool adaptive = true;
  /// Cache strategies in a StrategyLibrary (hybrid scheme). When false,
  /// every job is synthesized on demand (pure online scheme).
  bool use_library = true;
  /// Abort the execution after this many operational cycles.
  std::uint64_t max_cycles = 5000;
  /// Safety margin around routing jobs (ZONE margin, Section VI-B).
  int zone_margin = 3;
  /// Cycles a (re)synthesis takes; the droplet continues under the previous
  /// strategy (or holds) until the new one is ready (Section VI-D discusses
  /// this online-scheme delay; 0 models instantaneous synthesis).
  int synthesis_latency_cycles = 0;
  /// Reactive error recovery (the retrial-based techniques of Section II-C,
  /// as a comparison point for the proactive framework): with
  /// `adaptive = false`, re-route from the sensed health matrix only after
  /// a droplet has made no progress for this many consecutive commanded
  /// cycles. 0 disables recovery (the pure baseline). Ignored when
  /// `adaptive` is true — the proactive router never waits to get stuck.
  int reactive_recovery_stuck_cycles = 0;
  /// Health estimation over the (possibly noisy) scan chain: when enabled
  /// the scheduler acts on the filtered estimate, never on a raw frame.
  HealthFilterConfig filter{};
  /// The structured recovery ladder (watchdog → re-sense → bounded
  /// re-synthesis with backoff → quarantine → replica failover → per-job
  /// abort).
  RecoveryConfig recovery{};
  /// N-modular redundancy degree applied to every dispense MO that feeds a
  /// mix or dilute (the assay's critical reagents): the scheduler launches
  /// this many racing replicas per such dispense, routed through pairwise
  /// region-disjoint corridors, and completes the MO on the first arrival
  /// (k = 1 of N). 1 (the default) disables replication; per-MO
  /// `Mo::replicas` annotations above this floor are honored. Requires
  /// `adaptive` — the baseline router cannot mask corridor views.
  int replicate_critical_dispenses = 1;
  /// Record every replica's per-cycle position trail into
  /// ExecutionStats::replica_routes. Off by default: trails exist for the
  /// disjointness tests and debugging, and campaigns must not pay the
  /// memory (replica route *records* without trails are always kept).
  bool record_replica_trails = false;
};

/// Activation/completion cycle of one MO within an execution (cycle counts
/// are relative to the start of the execution).
struct MoTiming {
  int mo = -1;
  std::uint64_t activated = 0;
  std::uint64_t completed = 0;
  bool done = false;
};

/// Model-vs-reality record of one completed routing job: the synthesized
/// strategy's expected cycle count (computed from the sensed H) against the
/// cycles the route actually took on the chip (driven by the true D).
struct RouteRecord {
  int mo = -1;
  double expected_cycles = 0.0;   ///< model prediction at synthesis time
  std::uint64_t actual_cycles = 0;
};

/// Counters of the N-modular-redundant replica machinery, all deterministic
/// (droplet cycles, not wall time). Zero throughout when no MO replicates.
struct ReplicaCounters {
  int launched = 0;   ///< replica droplets dispensed (includes winners)
  int failovers = 0;  ///< replicas abandoned after exhausting their retries
  int merges = 0;     ///< MOs completed by a first-arrival vote (k = 1)
  int retired = 0;    ///< losing replicas retired to waste after a merge
  /// Replicated MOs whose corridor plan degraded to best-effort
  /// disjointness (zone too thin for N masked bands).
  int best_effort_masks = 0;
  /// Chip cycles consumed by non-winning replica droplets (abandoned +
  /// retired), i.e. the redundancy's extra droplet traffic.
  std::uint64_t droplet_cycles = 0;

  /// The field list (see RecoveryCounters::for_each_field).
  template <typename F, typename... C>
  static void for_each_field(F&& f, C&&... c) {
    f("launched", c.launched...);
    f("failovers", c.failovers...);
    f("merges", c.merges...);
    f("retired", c.retired...);
    f("best_effort_masks", c.best_effort_masks...);
    f("droplet_cycles", c.droplet_cycles...);
  }

  bool any() const { return *this != ReplicaCounters{}; }
  ReplicaCounters& operator+=(const ReplicaCounters& other) {
    for_each_field([](const char*, auto& a, const auto& b) { a += b; }, *this,
                   other);
    return *this;
  }
  friend bool operator==(const ReplicaCounters&,
                         const ReplicaCounters&) = default;
};

/// Outcome of one replica of a replicated MO, recorded when its fate is
/// sealed (merge, abandonment, or execution teardown). The corridor
/// geometry lets tests verify pairwise region-disjointness of the replica
/// routes outside the shared endpoint funnels.
struct ReplicaRouteRecord {
  int mo = -1;
  int replica = -1;          ///< replica index within the MO (0-based)
  bool winner = false;       ///< first arrival — completed the MO
  bool abandoned = false;    ///< failed over (per-replica retries exhausted)
  bool mask_best_effort = false;  ///< corridor plan was not truly disjoint
  Rect band = Rect::none();  ///< corridor band this replica owned
  Rect start_funnel = Rect::none();  ///< shared funnels (disjointness is
  Rect goal_funnel = Rect::none();   ///< only promised outside them)
  /// Per-cycle positions, only with SchedulerConfig::record_replica_trails.
  std::vector<Rect> trail;
};

/// Outcome of one bioassay execution.
struct ExecutionStats {
  bool success = false;
  std::uint64_t cycles = 0;           ///< operational cycles consumed
  int synthesis_calls = 0;            ///< model-checker invocations
  int library_hits = 0;               ///< strategies served from the library
  int resyntheses = 0;                ///< syntheses triggered by H changes
  /// Syntheses served by patching the retained model in place rather than
  /// rebuilding it (SynthesisResult::warm).
  int resyntheses_warm = 0;
  double synthesis_seconds = 0.0;     ///< wall time spent synthesizing
  std::string failure_reason;         ///< empty on success
  std::vector<MoTiming> mo_timings;   ///< per-MO schedule (by MO id)
  std::vector<RouteRecord> routes;    ///< per-route model-vs-reality data
  RecoveryCounters recovery;          ///< ladder counters (all zero if quiet)
  /// The execution's event log, in emission order: recovery-ladder firings
  /// ("recovery" entries, each rung named by to_string(RecoveryAction)),
  /// stall classifications and the other scheduler events.
  std::vector<obs::Event> events;
  int completed_mos = 0;              ///< MOs that finished
  /// MOs that ended gracefully aborted, counted from the MO states (the
  /// ladder counts the same aborts independently in recovery.aborted_jobs).
  int aborted_mos = 0;
  ReplicaCounters replica;            ///< NMR counters (all zero if unused)
  /// Per-replica outcomes of every replicated MO, in seal order.
  std::vector<ReplicaRouteRecord> replica_routes;
};

/// Campaign-level roll-up of many ExecutionStats: the single accumulator the
/// campaign drivers, chaos benches, and HTML report consume instead of
/// hand-rolled private counters.
struct RunRollup {
  int runs = 0;
  int successes = 0;
  int completed_mos = 0;
  int aborted_mos = 0;
  int synthesis_calls = 0;
  int library_hits = 0;
  int resyntheses = 0;
  int resyntheses_warm = 0;
  double synthesis_seconds = 0.0;
  stats::RunningStats cycles;       ///< completion cycles, successful runs only
  RecoveryCounters recovery;        ///< ladder counters summed over all runs
  ReplicaCounters replica;          ///< NMR counters summed over all runs

  /// Folds one execution's outcome into the roll-up.
  void absorb(const ExecutionStats& stats);

  double success_rate() const {
    return runs > 0 ? static_cast<double>(successes) / runs : 0.0;
  }
  double library_hit_rate() const {
    const int lookups = library_hits + synthesis_calls;
    return lookups > 0 ? static_cast<double>(library_hits) / lookups : 0.0;
  }
};

/// Executes planned bioassays on a biochip.
class Scheduler {
 public:
  /// @param library optional shared strategy library (hybrid scheme across
  ///        executions); pass nullptr for a per-run private library.
  explicit Scheduler(SchedulerConfig config = {},
                     StrategyLibrary* library = nullptr);

  const SchedulerConfig& config() const { return config_; }

  /// Runs @p assay to completion (or abort) on @p chip. Algorithm 3.
  ExecutionStats run(BiochipIo& chip, const assay::MoList& assay);

 private:
  SchedulerConfig config_;
  StrategyLibrary* shared_library_;
};

/// The edge-adjacent rectangle a dispensed droplet enters through: the goal
/// pattern translated to touch the nearest chip edge.
Rect dispense_entry_rect(const Rect& goal, const Rect& chip);

/// Geometric halves a droplet splits into: two patterns of the given areas
/// placed side by side (separated by one cell) along the droplet's longer
/// axis, clamped to the chip.
std::pair<Rect, Rect> split_rects(const Rect& droplet, int area0, int area1,
                                  const Rect& chip);

}  // namespace meda::core
