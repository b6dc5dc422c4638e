#include "core/scheduler.hpp"

#include <algorithm>
#include <cmath>

#include "core/fallback_router.hpp"
#include "core/replica_corridors.hpp"
#include "model/outcomes.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"

namespace meda::core {

namespace {

using assay::Mo;
using assay::MoList;
using assay::MoType;
using assay::RoutingJob;

// Recovery-ladder constants: no caller needs another value, so they are not
// RecoveryConfig knobs.

/// EWMA smoothing factor of the progress-rate watchdog (weight of the newest
/// cycle's progress). With kMinProgressRate, a pure stall entered from a
/// full rate fires in ~50 cycles and from an end-of-life crawl (~0.3
/// cells/cycle) in ~39: patient, because a premature firing escalates
/// toward quarantining cells that were merely slow.
constexpr double kProgressAlpha = 0.10;
/// Watchdog threshold on the smoothed progress rate (cells/cycle).
constexpr double kMinProgressRate = 0.005;
/// Contention detours on one stuck task (without progress) before the
/// stall falls through to the quarantine escalation: a livelock safety
/// valve for two droplets that keep detouring around each other.
constexpr int kMaxContentionDetours = 3;
/// Expansion budget of the bounded fallback router (deadline fallbacks and
/// the waste routes of retired replicas): it stands in for a synthesis, so
/// it must stay cheap.
constexpr int kFallbackMaxExpansions = 20000;
/// Cap on the fallback backoff (RecoveryConfig::fallback_backoff_base_cycles
/// doubled per deadline strike), so a long-lived fallback still retries
/// full synthesis every few hundred cycles.
constexpr int kFallbackBackoffMaxCycles = 256;

/// Droplet pattern of @p area centered at an MO location.
Rect placed_rect(const assay::Loc& loc, int area) {
  const assay::DropletSize size = assay::size_for_area(area);
  return Rect::from_center(loc.x, loc.y, size.w, size.h);
}

/// Translates @p r the minimum amount needed to fit inside @p chip.
Rect clamp_into(Rect r, const Rect& chip) {
  MEDA_REQUIRE(r.width() <= chip.width() && r.height() <= chip.height(),
               "pattern larger than the chip");
  int dx = 0, dy = 0;
  if (r.xa < chip.xa) dx = chip.xa - r.xa;
  if (r.xb > chip.xb) dx = chip.xb - r.xb;
  if (r.ya < chip.ya) dy = chip.ya - r.ya;
  if (r.yb > chip.yb) dy = chip.yb - r.yb;
  return r.shifted(dx, dy);
}

}  // namespace

Rect dispense_entry_rect(const Rect& goal, const Rect& chip) {
  MEDA_REQUIRE(chip.contains(goal), "dispense goal must be on the chip");
  const int west = goal.xa - chip.xa;
  const int east = chip.xb - goal.xb;
  const int south = goal.ya - chip.ya;
  const int north = chip.yb - goal.yb;
  const int best = std::min({west, east, south, north});
  if (best == west) return goal.shifted(-west, 0);
  if (best == east) return goal.shifted(east, 0);
  if (best == south) return goal.shifted(0, -south);
  return goal.shifted(0, north);
}

std::pair<Rect, Rect> split_rects(const Rect& droplet, int area0, int area1,
                                  const Rect& chip) {
  MEDA_REQUIRE(droplet.valid(), "split of an invalid droplet");
  const assay::DropletSize s0 = assay::size_for_area(area0);
  const assay::DropletSize s1 = assay::size_for_area(area1);
  const double cx = droplet.center_x();
  const double cy = droplet.center_y();
  Rect part0, part1;
  if (droplet.width() >= droplet.height()) {
    // Split along x: part0 west, part1 east, one free column between them.
    const int total_w = s0.w + 1 + s1.w;
    const int x0 = static_cast<int>(std::lround(cx - total_w / 2.0));
    part0 = Rect::from_size(
        x0, static_cast<int>(std::lround(cy - (s0.h - 1) / 2.0)), s0.w, s0.h);
    part1 = Rect::from_size(
        x0 + s0.w + 1, static_cast<int>(std::lround(cy - (s1.h - 1) / 2.0)),
        s1.w, s1.h);
    const Rect box{part0.xa, std::min(part0.ya, part1.ya), part1.xb,
                   std::max(part0.yb, part1.yb)};
    const Rect clamped = clamp_into(box, chip);
    part0 = part0.shifted(clamped.xa - box.xa, clamped.ya - box.ya);
    part1 = part1.shifted(clamped.xa - box.xa, clamped.ya - box.ya);
  } else {
    // Split along y: part0 south, part1 north.
    const int total_h = s0.h + 1 + s1.h;
    const int y0 = static_cast<int>(std::lround(cy - total_h / 2.0));
    part0 = Rect::from_size(
        static_cast<int>(std::lround(cx - (s0.w - 1) / 2.0)), y0, s0.w, s0.h);
    part1 = Rect::from_size(
        static_cast<int>(std::lround(cx - (s1.w - 1) / 2.0)), y0 + s0.h + 1,
        s1.w, s1.h);
    const Rect box{std::min(part0.xa, part1.xa), part0.ya,
                   std::max(part0.xb, part1.xb), part1.yb};
    const Rect clamped = clamp_into(box, chip);
    part0 = part0.shifted(clamped.xa - box.xa, clamped.ya - box.ya);
    part1 = part1.shifted(clamped.xa - box.xa, clamped.ya - box.ya);
  }
  MEDA_ASSERT(chip.contains(part0) && chip.contains(part1),
              "split parts do not fit on the chip");
  MEDA_ASSERT(part0.manhattan_gap(part1) >= 1, "split parts touch");
  return {part0, part1};
}

namespace {

/// One in-flight single-droplet route (a routing job being executed).
struct RouteTask {
  RoutingJob rj;
  DropletId droplet = -1;
  DropletId partner = -1;  ///< merge partner; arrival = contact with it
  Strategy strategy;
  std::uint64_t digest = 0;
  bool has_strategy = false;
  // Asynchronous (latency-modeled) synthesis in flight.
  bool pending = false;
  int pending_countdown = 0;
  Strategy pending_strategy;
  std::uint64_t pending_digest = 0;
  // Reactive-recovery bookkeeping: consecutive commanded cycles without
  // progress; reaching the threshold requests one re-route from the sensed
  // health view.
  Rect last_pos = Rect::none();
  int stuck_cycles = 0;
  bool reroute_once = false;
  // Recovery-ladder bookkeeping.
  int retries = 0;            ///< failed synthesis attempts (current episode)
  int backoff_remaining = 0;  ///< cycles left in the current backoff wait
  int watchdog_count = 0;     ///< watchdog firings since the last escalation
  Rect watch_pos = Rect::none();
  // Stall-classifier bookkeeping: a contention-classified stall requests
  // one droplet-avoiding re-synthesis instead of a quarantine.
  bool avoid_droplets_once = false;
  int contention_detours = 0;  ///< detours since the droplet last moved
  // Progress-rate watchdog bookkeeping: EWMA of Manhattan progress toward
  // the goal frontier per commanded cycle.
  double progress_rate = 1.0;
  int last_goal_gap = -1;  ///< gap at the previous commanded cycle; -1 = none
  // Deadline-fallback bookkeeping: a deadline-expired synthesis installs a
  // fallback route and backs off full re-synthesis exponentially.
  bool fallback_active = false;
  int deadline_strikes = 0;             ///< consecutive deadline expiries
  std::uint64_t fallback_retry_at = 0;  ///< chip cycle to retry full synthesis
  // Model-vs-reality bookkeeping.
  std::uint64_t created_cycle = 0;
  double first_expected_cycles = -1.0;
  bool recorded = false;
  // Observability: nonzero while an async "job" span is open for this task.
  std::uint64_t job_span_id = 0;
  // Incremental re-synthesis: the model retained across this task's
  // health-delta re-syntheses (primed by the first fresh build of the
  // lineage, patched in place while the topology holds).
  ResynthesisContext resynth;
  // N-modular redundancy: >= 0 marks this task as replica #replica of its
  // MO, synthesized against a corridor-masked health view (sibling bands
  // clamped dead outside the shared funnels — see replica_masked_health).
  int replica = -1;
  Rect band = Rect::none();          ///< corridor band this replica owns
  std::vector<Rect> masked_bands;    ///< sibling bands to clamp dead
  Rect start_funnel = Rect::none();  ///< shared slabs exempt from masking
  Rect goal_funnel = Rect::none();
  bool mask_best_effort = false;  ///< corridor plan was not truly disjoint
  bool mask_degraded = false;     ///< mask dropped after infeasible synthesis
  bool abandoned = false;         ///< failed over; no longer commanded
  bool replica_recorded = false;  ///< ReplicaRouteRecord already sealed
  std::vector<Rect> trail;        ///< per-cycle positions (opt-in)
};

/// A losing replica being retired to waste after the vote: routed to the
/// nearest chip edge by the cheap fallback router, then discarded. Kept
/// outside MoRun — the MO completes (and its run tears down) while its
/// losers are still draining off the chip.
struct RetireTask {
  DropletId droplet = -1;
  int mo = -1;
  Strategy strategy;
  bool has_strategy = false;
  Rect goal = Rect::none();
  std::uint64_t created_cycle = 0;
  Rect last_pos = Rect::none();
  int stuck = 0;    ///< consecutive cycles without movement
  int replans = 0;  ///< fallback re-routes consumed
};

/// What a watchdog-confirmed stall is blocked by (satellite classifier).
enum class StallKind : unsigned char {
  kContention,  ///< another live droplet sits on / next to the target cells
  kDeadCells,   ///< the target cells read dead in the controller's view
  kUnknown,     ///< cells read healthy and no droplet nearby (lying cells)
};

const char* stall_name(StallKind kind) {
  switch (kind) {
    case StallKind::kContention: return "blocked-by-droplet";
    case StallKind::kDeadCells: return "blocked-by-dead-cells";
    case StallKind::kUnknown: return "blocked-unknown";
  }
  return "blocked-unknown";
}

/// Runtime state of one MO.
struct MoRun {
  const Mo* mo = nullptr;
  enum class State { kWaiting, kActive, kDone, kAborted } state =
      State::kWaiting;
  int phase = 0;
  int hold_remaining = 0;
  std::vector<RouteTask> routes;
  std::vector<DropletId> in;
  std::vector<DropletId> out;
  std::vector<DropletId> live;  ///< droplets this MO currently owns on chip
  DropletId merged = -1;                          // mix/dlt intermediate
  std::pair<DropletId, DropletId> parts{-1, -1};  // spt/dlt parts
  // Replicated-dispense bookkeeping (kDispense with effective N > 1).
  int replicas_planned = 1;
  int launched = 0;            ///< replicas dispensed so far
  int abandoned_replicas = 0;  ///< replicas lost to failover
  ReplicaCorridorPlan corridors;
  /// Shared synthesis budget of this MO's replicas: one Deadline token per
  /// chip cycle, drawn from by every replica's solve (never N× the budget).
  std::uint64_t replica_deadline_cycle = ~std::uint64_t{0};
  util::Deadline replica_deadline;
};

/// Per-execution driver implementing Algorithm 3 plus the recovery ladder.
class Runner {
 public:
  Runner(const SchedulerConfig& config, StrategyLibrary& library,
         BiochipIo& chip, const MoList& assay_list)
      : config_(config),
        library_(library),
        chip_(chip),
        assay_(assay_list),
        chip_bounds_(chip.bounds()),
        synthesizer_(chip.bounds(), config.synthesis),
        outputs_(assay::compute_outputs(assay_list)),
        filter_(config.filter),
        quarantined_(chip.bounds().width(), chip.bounds().height(), 0) {
    runs_.resize(assay_.ops.size());
    for (std::size_t i = 0; i < assay_.ops.size(); ++i)
      runs_[i].mo = &assay_.ops[i];
    // Criticality floor: a dispense feeding a mix/dilute carries a critical
    // reagent, so SchedulerConfig::replicate_critical_dispenses raises its
    // redundancy degree (per-MO Mo::replicas annotations above the floor
    // are honored either way).
    feeds_mix_.assign(assay_.ops.size(), 0);
    for (const Mo& mo : assay_.ops)
      if (mo.type == MoType::kMix || mo.type == MoType::kDilute)
        for (const assay::PreRef& ref : mo.pre)
          if (assay_.ops[static_cast<std::size_t>(ref.mo)].type ==
              MoType::kDispense)
            feeds_mix_[static_cast<std::size_t>(ref.mo)] = 1;
    senses_health_ = config_.adaptive ||
                     config_.reactive_recovery_stuck_cycles > 0 ||
                     config_.recovery.enabled || config_.filter.enabled;
  }

  ExecutionStats execute() {
    MEDA_OBS_SPAN(run_span, "sched", "execute");
    const std::uint64_t start_cycle = chip_.cycle();
    start_cycle_ = start_cycle;
    stats_.mo_timings.resize(runs_.size());
    for (std::size_t i = 0; i < runs_.size(); ++i)
      stats_.mo_timings[i].mo = static_cast<int>(i);
    while (!failed_ && !all_settled()) {
      if (chip_.cycle() - start_cycle >= config_.max_cycles) {
        fail("cycle limit exceeded");
        break;
      }
      {
        MEDA_OBS_SPAN(cycle_span, "sched", "cycle");
        refresh_health(/*forced=*/false);
        std::vector<Command> commands;
        for (MoRun& run : runs_) {
          if (failed_) break;
          if (run.state == MoRun::State::kWaiting) try_activate(run);
          if (run.state == MoRun::State::kActive) process(run, commands);
        }
        if (failed_) break;
        advance_retirements(commands);
        finalize_aborts(commands);
        chip_.step(commands);
      }
      sample_cycle_counters();
    }
    for (MoRun& run : runs_)  // cycle-limit / hard-fail leftovers
      for (RouteTask& task : run.routes) {
        record_replica_route(task, /*winner=*/false);
        close_job_span(task, "unfinished");
      }
    // Replicas still draining to waste at teardown: charge their traffic.
    for (const RetireTask& retiree : retiring_)
      stats_.replica.droplet_cycles += chip_.cycle() - retiree.created_cycle;
    stats_.cycles = chip_.cycle() - start_cycle;
    for (const MoRun& run : runs_) {
      if (run.state == MoRun::State::kDone) ++stats_.completed_mos;
      if (run.state == MoRun::State::kAborted) ++stats_.aborted_mos;
    }
    stats_.success = !failed_ && all_done();
    if (failed_) {
      stats_.failure_reason = failure_reason_;
    } else if (!stats_.success && !abort_reasons_.empty()) {
      std::string reason = std::to_string(abort_reasons_.size()) +
                           " job(s) aborted — first: " + abort_reasons_.front();
      stats_.failure_reason = std::move(reason);
    }
    record_run_metrics(run_span);
    return stats_;
  }

  /// End-of-run roll-up into the metrics registry plus execute-span args.
  template <typename Span>
  void record_run_metrics(Span& span) {
    if (!MEDA_OBS_ACTIVE()) return;
    span.arg("cycles", static_cast<std::int64_t>(stats_.cycles));
    span.arg("success", static_cast<std::int64_t>(stats_.success ? 1 : 0));
    span.arg("synthesis_calls",
             static_cast<std::int64_t>(stats_.synthesis_calls));
    span.arg("resyntheses", static_cast<std::int64_t>(stats_.resyntheses));
    span.arg("resyntheses_warm",
             static_cast<std::int64_t>(stats_.resyntheses_warm));
    MEDA_OBS_COUNT("sched.runs", 1);
    if (stats_.success) MEDA_OBS_COUNT("sched.successes", 1);
    MEDA_OBS_COUNT("sched.cycles", stats_.cycles);
    MEDA_OBS_COUNT("sched.synthesis_calls",
                   static_cast<std::uint64_t>(stats_.synthesis_calls));
    MEDA_OBS_COUNT("sched.library_hits",
                   static_cast<std::uint64_t>(stats_.library_hits));
    MEDA_OBS_COUNT("sched.resyntheses",
                   static_cast<std::uint64_t>(stats_.resyntheses));
    MEDA_OBS_COUNT("sched.resyntheses_warm",
                   static_cast<std::uint64_t>(stats_.resyntheses_warm));
    MEDA_OBS_COUNT("sched.completed_mos",
                   static_cast<std::uint64_t>(stats_.completed_mos));
    MEDA_OBS_COUNT("sched.aborted_mos",
                   static_cast<std::uint64_t>(stats_.aborted_mos));
    MEDA_OBS_OBSERVE("sched.run_cycles", static_cast<double>(stats_.cycles),
                     obs::kPow2Buckets);
    const auto count = [](std::string prefix) {
      return [prefix = std::move(prefix)]([[maybe_unused]] const char* field,
                                          [[maybe_unused]] auto value) {
        MEDA_OBS_COUNT(prefix + field, static_cast<std::uint64_t>(value));
      };
    };
    RecoveryCounters::for_each_field(count("recovery."), stats_.recovery);
    ReplicaCounters::for_each_field(count("replica."), stats_.replica);
  }

  /// Samples the cycle-domain counter tracks (droplets on chip, in-flight
  /// syntheses) once per operational cycle while tracing is enabled.
  void sample_cycle_counters() {
    if (!MEDA_OBS_ACTIVE()) return;
    obs::Tracer& tracer = obs::ctx().tracer();
    if (!tracer.enabled()) return;
    const std::uint64_t cycle = chip_.cycle() - start_cycle_;
    std::int64_t droplets = 0;
    std::int64_t pending = 0;
    for (const MoRun& run : runs_) {
      droplets += static_cast<std::int64_t>(run.live.size());
      for (const RouteTask& task : run.routes)
        if (task.pending) ++pending;
    }
    droplets += static_cast<std::int64_t>(retiring_.size());
    tracer.cycle_counter("droplets_on_chip", droplets, cycle);
    tracer.cycle_counter("pending_syntheses", pending, cycle);
    tracer.cycle_counter("health_changes", health_changes_total_, cycle);
    tracer.cycle_counter("retiring_droplets",
                         static_cast<std::int64_t>(retiring_.size()), cycle);
  }

 private:
  bool all_done() const {
    return std::all_of(runs_.begin(), runs_.end(), [](const MoRun& r) {
      return r.state == MoRun::State::kDone;
    });
  }

  /// True when every MO has finished or gracefully aborted.
  bool all_settled() const {
    return std::all_of(runs_.begin(), runs_.end(), [](const MoRun& r) {
      return r.state == MoRun::State::kDone ||
             r.state == MoRun::State::kAborted;
    });
  }

  void fail(std::string reason) {
    failed_ = true;
    failure_reason_ = std::move(reason);
  }

  /// Appends one entry to the unified structured event log (and mirrors it
  /// to the wall-clock trace as an instant marker when tracing is on).
  void obs_event(std::string category, std::string name, int mo,
                 std::string detail) {
    MEDA_OBS_INSTANT("event", name, detail);
    stats_.events.push_back(obs::Event{chip_.cycle() - start_cycle_,
                                       std::move(category), std::move(name),
                                       mo, std::move(detail)});
  }

  /// Recovery-ladder firing: a "recovery" entry named after the rung.
  void event(RecoveryAction action, int mo, std::string detail) {
    obs_event("recovery", std::string(to_string(action)), mo,
              std::move(detail));
  }

  /// Senses the chip and rebuilds the controller's health view: raw scan or
  /// filtered estimate, with quarantined cells clamped dead. @p forced marks
  /// a ladder-driven re-sense (the filter re-seeds from the next frame).
  void refresh_health(bool forced) {
    if (!senses_health_) return;
    IntMatrix scan = chip_.sense_health();
    if (config_.filter.enabled) {
      if (forced) filter_.force_resense();
      filter_.observe(scan);
      health_ = filter_.estimate();
    } else {
      health_ = std::move(scan);
    }
    if (forced) {
      ++stats_.recovery.forced_resenses;
      // The fresh (pre-clamp) estimate is the parole evidence: a cell the
      // re-sense reads alive may leave the quarantine set under budget
      // pressure before the clamp below re-kills the remaining inmates.
      parole_quarantined();
    }
    apply_quarantine();
    note_health_change();
  }

  /// Ceiling on the quarantine set (cells), shared by the suspect budget
  /// and the parole trigger.
  int quarantine_budget() const {
    return static_cast<int>(
        config_.recovery.max_quarantine_fraction *
        static_cast<double>(quarantined_.width() * quarantined_.height()));
  }

  /// Budget-pressure parole: once the quarantine budget is exhausted, a
  /// forced re-sense releases the *oldest* quarantined cells whose fresh
  /// estimate reads alive, until the set is back at 3/4 of the budget.
  /// Without this, early (possibly sensing-noise-driven) quarantines stay
  /// blacklisted forever while genuinely dead cells compete for the budget.
  void parole_quarantined() {
    if (!config_.recovery.enabled || quarantine_order_.empty() ||
        health_.empty())
      return;
    const int budget = quarantine_budget();
    if (quarantine_size() < budget) return;
    const int target = (budget * 3) / 4;
    int released = 0;
    auto it = quarantine_order_.begin();
    while (it != quarantine_order_.end() && quarantine_size() > target) {
      const int x = it->x;
      const int y = it->y;
      if (health_(x, y) > 1) {
        // Parole demands more than the weakest alive reading: under heavy
        // sensing noise a dead cell's level-0 word often corrupts into
        // level 1, and releasing on that would churn the same cells through
        // quarantine → parole → re-quarantine.
        quarantined_(x, y) = 0;
        ++released;
        it = quarantine_order_.erase(it);
      } else {
        ++it;  // still reads dead: stays quarantined
      }
    }
    if (released == 0) return;
    stats_.recovery.paroled_cells += released;
    event(RecoveryAction::kQuarantineParole, -1,
          std::to_string(released) + " cell(s) re-sensed alive; released");
    if (quarantine_size() < budget) quarantine_budget_hit_ = false;
  }

  /// Cells in the quarantine set: quarantine_order_ holds exactly the cells
  /// marked in quarantined_.
  int quarantine_size() const {
    return static_cast<int>(quarantine_order_.size());
  }

  /// Tracks changes of the controller's whole health view (metrics counter +
  /// cycle-domain instant) so the trace shows when the world shifted.
  void note_health_change() {
    if (!MEDA_OBS_ACTIVE() || health_.empty()) return;
    const std::uint64_t digest = health_digest(health_, chip_bounds_);
    if (has_health_digest_ && digest != last_health_digest_) {
      ++health_changes_total_;
      MEDA_OBS_COUNT("sched.health_changes", 1);
      MEDA_OBS_CYCLE_INSTANT("health-change", chip_.cycle() - start_cycle_);
    }
    last_health_digest_ = digest;
    has_health_digest_ = true;
  }

  /// Folds filter-suspect cells into the quarantine set and clamps every
  /// quarantined cell to health 0 in the current view.
  void apply_quarantine() {
    if (!config_.recovery.enabled) return;
    if (config_.filter.enabled &&
        filter_.suspect_count() > quarantined_suspects_seen_) {
      // Budgeted: a suspect *flood* means the sensing channel is failing,
      // not the substrate — quarantining it all would blind the router to a
      // still-routable chip. Past the budget, trust the filtered estimate.
      const int budget = quarantine_budget();
      const BoolMatrix& suspect = filter_.suspect();
      int added = 0;
      for (int y = 0; y < quarantined_.height(); ++y)
        for (int x = 0; x < quarantined_.width(); ++x) {
          if (quarantine_size() >= budget) break;
          if (suspect(x, y) != 0 && quarantined_(x, y) == 0) {
            quarantined_(x, y) = 1;
            quarantine_order_.push_back({x, y});
            ++added;
          }
        }
      quarantined_suspects_seen_ = filter_.suspect_count();
      if (added > 0) {
        stats_.recovery.quarantined_cells += added;
        event(RecoveryAction::kQuarantine, -1,
              std::to_string(added) + " suspect cell(s)");
      }
      if (quarantine_size() >= budget && !quarantine_budget_hit_) {
        quarantine_budget_hit_ = true;
        obs_event("recovery", "quarantine-budget", -1,
                  "suspect flood: budget of " + std::to_string(budget) +
                      " cell(s) exhausted; trusting the filter estimate");
      }
    }
    clamp_quarantined();
  }

  void clamp_quarantined() {
    if (quarantine_order_.empty() || health_.empty()) return;
    for (int y = 0; y < health_.height(); ++y)
      for (int x = 0; x < health_.width(); ++x)
        if (quarantined_(x, y) != 0) health_(x, y) = 0;
  }

  /// Quarantines the cells a stuck droplet keeps failing to enter: the
  /// commanded action's target pattern minus the current position (fallback:
  /// the one-cell ring around the droplet). The router must then plan around
  /// them even though they may still *read* healthy.
  void quarantine_attempt_frontier(MoRun& run, RouteTask& task,
                                   const Rect& pos) {
    const Rect area = attempt_frontier(task, pos);
    int added = 0;
    for (int y = area.ya; y <= area.yb; ++y)
      for (int x = area.xa; x <= area.xb; ++x)
        if (!pos.contains(x, y) && quarantined_(x, y) == 0) {
          quarantined_(x, y) = 1;
          quarantine_order_.push_back({x, y});
          ++added;
        }
    if (added == 0) return;
    stats_.recovery.quarantined_cells += added;
    event(RecoveryAction::kQuarantine, run.mo->id,
          std::to_string(added) + " cell(s) blocking " + pos.to_string());
    clamp_quarantined();
  }

  /// The cells a stuck task is trying (and failing) to enter: the commanded
  /// action's target pattern (fallback: the one-cell ring around the
  /// droplet), clamped to the chip. Shared by the quarantine escalation and
  /// the stall classifier so both reason about the same frontier.
  Rect attempt_frontier(const RouteTask& task, const Rect& pos) const {
    Rect area = pos.inflated(1);
    if (task.has_strategy) {
      if (const std::optional<Action> a = task.strategy.action(pos))
        area = apply(*a, pos);
    }
    return area.intersection_with(chip_bounds_);
  }

  /// Droplet-aware stall classification (on watchdog escalation): is the
  /// droplet blocked by another live droplet parked on / next to its target
  /// cells, by cells the controller's view already reads dead, or by cells
  /// that read healthy but do not respond (lying cells)?
  StallKind classify_stall(const RouteTask& task, const Rect& pos) const {
    const Rect target = attempt_frontier(task, pos);
    for (const MoRun& run : runs_) {
      for (const DropletId other : run.live) {
        if (other == task.droplet || other == task.partner) continue;
        // The separation rule blocks entry when the other droplet is on the
        // target cells or directly adjacent to them.
        if (chip_.droplet_position(other).manhattan_gap(target) <= 1)
          return StallKind::kContention;
      }
    }
    // Retiring replicas are still physical droplets on the chip.
    for (const RetireTask& retiree : retiring_) {
      if (retiree.droplet == task.droplet || retiree.droplet == task.partner)
        continue;
      if (chip_.droplet_position(retiree.droplet).manhattan_gap(target) <= 1)
        return StallKind::kContention;
    }
    if (!health_.empty()) {
      for (int y = target.ya; y <= target.yb; ++y)
        for (int x = target.xa; x <= target.xb; ++x)
          if (!pos.contains(x, y) && health_(x, y) == 0)
            return StallKind::kDeadCells;
    }
    return StallKind::kUnknown;
  }

  void record_stall_metric(StallKind kind) {
    switch (kind) {
      case StallKind::kContention:
        MEDA_OBS_COUNT("sched.stalls_contention", 1);
        break;
      case StallKind::kDeadCells:
        MEDA_OBS_COUNT("sched.stalls_dead_cells", 1);
        break;
      case StallKind::kUnknown:
        MEDA_OBS_COUNT("sched.stalls_unknown", 1);
        break;
    }
  }

  /// The given health view with every *other* live droplet's footprint
  /// (inflated by the separation margin) masked dead: a virtual obstacle
  /// map for contention detours. The stuck droplet's own cells are never
  /// masked. Retiring replicas count — they are still on the chip.
  IntMatrix droplet_masked_health(const RouteTask& task, const Rect& pos,
                                  const IntMatrix& base) const {
    IntMatrix masked = base;
    const auto mask_other = [&](DropletId other) {
      if (other == task.droplet || other == task.partner) return;
      const Rect area = chip_.droplet_position(other)
                            .inflated(1)
                            .intersection_with(chip_bounds_);
      for (int y = area.ya; y <= area.yb; ++y)
        for (int x = area.xa; x <= area.xb; ++x)
          if (!pos.contains(x, y)) masked(x, y) = 0;
    };
    for (const MoRun& run : runs_)
      for (const DropletId other : run.live) mask_other(other);
    for (const RetireTask& retiree : retiring_) mask_other(retiree.droplet);
    return masked;
  }

  /// Gracefully aborts one MO: its droplets are scheduled for discard at the
  /// end of the cycle and its dependents cascade-abort on activation.
  void abort_job(MoRun& run, const std::string& reason) {
    if (run.state == MoRun::State::kAborted) return;
    run.state = MoRun::State::kAborted;
    ++stats_.recovery.aborted_jobs;
    abort_reasons_.push_back("MO " + std::to_string(run.mo->id) + ": " +
                             reason);
    event(RecoveryAction::kJobAbort, run.mo->id, reason);
    doomed_.insert(doomed_.end(), run.live.begin(), run.live.end());
    run.live.clear();
  }

  /// Executes deferred aborts: strips commands addressed to doomed droplets,
  /// removes the droplets from the chip, and releases aborted runs' routes.
  void finalize_aborts(std::vector<Command>& commands) {
    if (doomed_.empty()) return;
    std::erase_if(commands, [this](const Command& c) {
      return std::find(doomed_.begin(), doomed_.end(), c.droplet) !=
             doomed_.end();
    });
    for (const DropletId id : doomed_) chip_.discard(id);
    doomed_.clear();
    for (MoRun& run : runs_)
      if (run.state == MoRun::State::kAborted) {
        for (RouteTask& task : run.routes) {
          record_replica_route(task, /*winner=*/false);
          close_job_span(task, "aborted");
        }
        run.routes.clear();
      }
  }

  /// Ladder stage: a deadline-expired synthesis. Instead of burning the
  /// retry budget on a solve that just proved too expensive, degrade to the
  /// bounded fallback router and back off full re-synthesis exponentially:
  /// strike i waits fallback_backoff_base_cycles << (i-1) cycles (capped)
  /// before the next health change may retry the real thing.
  void on_synthesis_deadline(MoRun& run, RouteTask& task, const RoutingJob& rj,
                             std::uint64_t digest, const IntMatrix* masked) {
    ++stats_.recovery.synthesis_deadlines;
    ++task.deadline_strikes;
    event(RecoveryAction::kSynthesisDeadline, task.rj.mo,
          "synthesis deadline expired (strike " +
              std::to_string(task.deadline_strikes) + ")");
    if (!config_.recovery.enabled) {
      fail("synthesis deadline expired for MO " + std::to_string(task.rj.mo));
      return;
    }
    const int base = std::max(1, config_.recovery.fallback_backoff_base_cycles);
    const int cap = std::max(base, kFallbackBackoffMaxCycles);
    const int shift = std::min(task.deadline_strikes - 1, 16);
    const int wait = std::min(base << shift, cap);
    task.fallback_retry_at = chip_.cycle() + static_cast<std::uint64_t>(wait);
    install_fallback(run, task, rj, digest, masked);
  }

  /// Computes and installs a bounded fallback route over the current health
  /// view (droplet-masked when a contention detour requested it). An
  /// infeasible fallback falls through to the retry/abort ladder.
  void install_fallback(MoRun& run, RouteTask& task, const RoutingJob& rj,
                        std::uint64_t digest, const IntMatrix* masked) {
    FallbackConfig fallback_config;
    fallback_config.rules = config_.synthesis.rules;
    fallback_config.max_expansions = kFallbackMaxExpansions;
    const IntMatrix& view = masked != nullptr ? *masked : health_;
    FallbackResult fallback =
        fallback_route(rj, view, chip_bounds_, fallback_config);
    if (!fallback.feasible) {
      on_synthesis_failure(run, task);
      return;
    }
    ++stats_.recovery.fallback_routes;
    obs_event("recovery", "fallback-route", task.rj.mo,
              "fallback route of " + std::to_string(fallback.path_length) +
                  " action(s) installed");
    task.strategy = std::move(fallback.strategy);
    task.digest = digest;
    task.has_strategy = true;
    task.pending = false;
    task.fallback_active = true;
    task.retries = 0;
    if (task.first_expected_cycles < 0.0)
      task.first_expected_cycles = static_cast<double>(fallback.path_length);
  }

  /// Ladder stage: an infeasible synthesis. Bounded retries with
  /// exponential backoff and a forced re-sense; then the replica-failover
  /// rung for replicated droplets, graceful job abort otherwise.
  void on_synthesis_failure(MoRun& run, RouteTask& task) {
    ++task.retries;
    ++stats_.recovery.synthesis_retries;
    if (task.retries > config_.recovery.max_retries) {
      if (task.replica >= 0) {
        // Per-replica budget exhausted: abandon this replica and let its
        // siblings race on — only all-replica failure aborts the MO.
        abandon_replica(run, task);
        return;
      }
      abort_job(run, "no feasible strategy after " +
                         std::to_string(task.retries) + " attempts");
      return;
    }
    event(RecoveryAction::kSynthesisRetry, task.rj.mo,
          "attempt " + std::to_string(task.retries) + "/" +
              std::to_string(config_.recovery.max_retries));
    if (config_.recovery.backoff_base_cycles > 0) {
      task.backoff_remaining = config_.recovery.backoff_base_cycles
                               << (task.retries - 1);
      event(RecoveryAction::kBackoff, task.rj.mo,
            std::to_string(task.backoff_remaining) + " cycle(s)");
    }
    // Fresh information for the retry.
    refresh_health(/*forced=*/true);
  }

  void try_activate(MoRun& run) {
    bool aborted_pre = false;
    for (const assay::PreRef& ref : run.mo->pre) {
      const MoRun::State s = runs_[static_cast<std::size_t>(ref.mo)].state;
      if (s == MoRun::State::kWaiting || s == MoRun::State::kActive) return;
      if (s == MoRun::State::kAborted) aborted_pre = true;
    }
    if (aborted_pre) {
      // Cascade: inputs produced by completed predecessors can never be
      // consumed; remove them from the chip with the abort.
      for (const assay::PreRef& ref : run.mo->pre) {
        const MoRun& pre = runs_[static_cast<std::size_t>(ref.mo)];
        if (pre.state == MoRun::State::kDone)
          doomed_.push_back(pre.out[static_cast<std::size_t>(ref.out)]);
      }
      abort_job(run, "predecessor aborted");
      return;
    }
    run.in.clear();
    for (const assay::PreRef& ref : run.mo->pre) {
      const MoRun& pre = runs_[static_cast<std::size_t>(ref.mo)];
      MEDA_ASSERT(ref.out < static_cast<int>(pre.out.size()),
                  "predecessor output missing");
      run.in.push_back(pre.out[static_cast<std::size_t>(ref.out)]);
    }
    run.state = MoRun::State::kActive;
    run.phase = 0;
    run.live = run.in;
    stats_.mo_timings[static_cast<std::size_t>(run.mo->id)].activated =
        chip_.cycle() - start_cycle_;
  }

  void finish(MoRun& run, std::vector<DropletId> out) {
    run.out = std::move(out);
    for (RouteTask& task : run.routes) close_job_span(task, "finished");
    run.routes.clear();
    run.live.clear();
    run.state = MoRun::State::kDone;
    MoTiming& timing = stats_.mo_timings[static_cast<std::size_t>(run.mo->id)];
    timing.completed = chip_.cycle() - start_cycle_;
    timing.done = true;
  }

  int droplet_area(DropletId id) const {
    return chip_.droplet_position(id).area();
  }

  /// Creates a routing job for @p droplet from its current position.
  RouteTask make_route(int mo_id, DropletId droplet, const Rect& goal,
                       DropletId partner = -1) {
    RouteTask task;
    task.rj.start = chip_.droplet_position(droplet);
    task.rj.goal = goal;
    task.rj.hazard =
        assay::zone(task.rj.start, goal, chip_bounds_, config_.zone_margin);
    task.rj.mo = mo_id;
    task.droplet = droplet;
    task.partner = partner;
    task.created_cycle = chip_.cycle();
    if (MEDA_OBS_ACTIVE() && obs::ctx().tracer().enabled()) {
      task.job_span_id = ++job_serial_;
      obs::ctx().tracer().async_begin(
          "job", "MO " + std::to_string(mo_id) + " route", task.job_span_id);
    }
    return task;
  }

  /// Closes the task's async job span (idempotent; no-op when none is open).
  void close_job_span(RouteTask& task, std::string_view outcome) {
    if (task.job_span_id == 0) return;
    obs::ctx().tracer().async_end(
        "job", "MO " + std::to_string(task.rj.mo) + " route",
        task.job_span_id,
        {{"outcome", obs::json_quote(outcome)},
         {"cycles", std::to_string(chip_.cycle() - task.created_cycle)}});
    task.job_span_id = 0;
  }

  /// Manhattan gap from the droplet to its arrival frontier: contact with
  /// the merge partner for partnered routes, the goal rectangle otherwise.
  /// The progress-rate watchdog measures its EWMA over this quantity.
  int goal_gap(const RouteTask& task, const Rect& pos) const {
    if (task.partner >= 0)
      return pos.manhattan_gap(chip_.droplet_position(task.partner));
    return pos.manhattan_gap(task.rj.goal);
  }

  /// True once the task's droplet has arrived: inside the goal, or — for
  /// merge-partnered routes — in contact with the partner.
  bool route_arrived(const RouteTask& task) const {
    const Rect pos = chip_.droplet_position(task.droplet);
    if (task.partner >= 0) {
      return pos.manhattan_gap(chip_.droplet_position(task.partner)) <= 1;
    }
    return task.rj.goal.contains(pos);
  }

  /// Advances one route by one cycle (emits at most one command).
  /// Returns true when the droplet has arrived (no command emitted).
  bool advance_route(MoRun& run, RouteTask& task,
                     std::vector<Command>& commands) {
    if (route_arrived(task)) {
      if (!task.recorded && task.first_expected_cycles >= 0.0) {
        stats_.routes.push_back(
            RouteRecord{task.rj.mo, task.first_expected_cycles,
                        chip_.cycle() - task.created_cycle});
        task.recorded = true;
      }
      close_job_span(task, "arrived");
      return true;
    }
    const Rect pos = chip_.droplet_position(task.droplet);
    if (task.partner >= 0 && task.rj.goal.contains(pos)) {
      // Parked at the mixer waiting for the partner to make contact.
      commands.push_back(Command{task.droplet, std::nullopt, task.partner});
      return false;
    }

    // Ladder backoff: hold in place while waiting out a failed synthesis.
    if (task.backoff_remaining > 0) {
      --task.backoff_remaining;
      ++stats_.recovery.backoff_cycles;
      commands.push_back(Command{task.droplet, std::nullopt, task.partner});
      return false;
    }

    // Ladder watchdog: a commanded droplet that stops making progress
    // triggers a forced re-sense + strategy drop; repeated firings escalate
    // to quarantining the cells it keeps failing to enter. A stall
    // attributable to another live droplet (contention) instead requests a
    // droplet-avoiding re-synthesis — quarantining perfectly healthy cells
    // just because a neighbour parked on them would permanently shrink the
    // routable chip.
    //
    // The stall detector is a progress-rate watchdog: it fires when an EWMA
    // of Manhattan progress toward the goal frontier decays below
    // kMinProgressRate. An end-of-life chip where pulls still land every
    // few cycles keeps a healthy rate and is left to crawl, while a true
    // stall decays to zero.
    if (config_.recovery.enabled) {
      bool watchdog_fired = false;
      if (task.has_strategy) {
        const int gap = goal_gap(task, pos);
        if (task.last_goal_gap >= 0) {
          // Movement that does not approach the goal (a detour leg, a
          // morph) still proves the droplet responds; credit it so only
          // genuine unresponsiveness decays the rate.
          constexpr double kMovementCredit = 0.25;
          double observed =
              std::max(0.0, static_cast<double>(task.last_goal_gap - gap));
          if (pos != task.watch_pos)
            observed = std::max(observed, kMovementCredit);
          task.progress_rate = (1.0 - kProgressAlpha) * task.progress_rate +
                               kProgressAlpha * observed;
          if (task.progress_rate < kMinProgressRate) {
            watchdog_fired = true;
            task.progress_rate = 1.0;  // fresh grace period after firing
            task.last_goal_gap = -1;
          } else {
            task.last_goal_gap = gap;
          }
        } else {
          task.last_goal_gap = gap;
          task.progress_rate = 1.0;
        }
        if (pos != task.watch_pos)
          task.contention_detours = 0;  // movement resets the detour budget
        task.watch_pos = pos;
      } else {
        task.last_goal_gap = -1;  // no commanded strategy: not stalling
      }
      if (watchdog_fired) {
        ++task.watchdog_count;
        ++stats_.recovery.watchdog_fires;
        event(RecoveryAction::kWatchdogResense, task.rj.mo,
              "droplet stuck at " + pos.to_string());
        refresh_health(/*forced=*/true);
        const StallKind kind = classify_stall(task, pos);
        obs_event("stall", stall_name(kind), task.rj.mo,
                  "stuck at " + pos.to_string());
        record_stall_metric(kind);
        if (kind == StallKind::kContention &&
            task.contention_detours < kMaxContentionDetours) {
          ++task.contention_detours;
          ++stats_.recovery.contention_detours;
          task.watchdog_count = 0;  // contention must not reach quarantine
          event(RecoveryAction::kContentionDetour, task.rj.mo,
                "re-routing around droplet near " + pos.to_string());
          task.avoid_droplets_once = true;
        } else if (task.watchdog_count >=
                   config_.recovery.quarantine_after_watchdogs) {
          task.watchdog_count = 0;
          quarantine_attempt_frontier(run, task, pos);
        }
        task.has_strategy = false;
        task.pending = false;
      }
    }

    // Reactive error recovery (retrial-based, Section II-C): once the
    // droplet has been stuck long enough, drop the strategy and request one
    // re-route from the sensed health (ensure_strategy serves it).
    if (config_.reactive_recovery_stuck_cycles > 0 && !config_.adaptive) {
      if (pos == task.last_pos) {
        if (++task.stuck_cycles >= config_.reactive_recovery_stuck_cycles) {
          task.stuck_cycles = 0;
          task.has_strategy = false;
          task.pending = false;
          task.reroute_once = true;
        }
      } else {
        task.last_pos = pos;
        task.stuck_cycles = 0;
      }
    }

    ensure_strategy(run, task, pos);
    if (failed_ || run.state != MoRun::State::kActive) return false;
    if (!task.has_strategy) {
      // Synthesis still pending (or backing off); hold in place.
      commands.push_back(Command{task.droplet, std::nullopt, task.partner});
      return false;
    }

    std::optional<Action> action = task.strategy.action(pos);
    if (!action) {
      // The droplet drifted off the synthesized region (can happen after a
      // strategy swap); force a fresh synthesis from the current state.
      task.has_strategy = false;
      task.pending = false;
      ensure_strategy(run, task, pos);
      if (failed_ || run.state != MoRun::State::kActive) return false;
      if (task.has_strategy) action = task.strategy.action(pos);
    }
    if (!action) {
      if (task.backoff_remaining > 0 || !task.has_strategy) {
        // The ladder already took over (retry scheduled); hold meanwhile.
        commands.push_back(Command{task.droplet, std::nullopt, task.partner});
        return false;
      }
      if (config_.recovery.enabled) {
        on_synthesis_failure(run, task);
        if (run.state == MoRun::State::kActive)
          commands.push_back(
              Command{task.droplet, std::nullopt, task.partner});
        return false;
      }
      fail("strategy does not cover the droplet state for MO " +
           std::to_string(task.rj.mo));
      return false;
    }
    commands.push_back(Command{task.droplet, action, task.partner});
    return false;
  }

  /// Retrieves / synthesizes / re-synthesizes the task's strategy
  /// (Algorithm 3 lines 11-16 plus the hybrid re-synthesis rule): the one
  /// provisioning chain of library lookup, synthesis and fallback router,
  /// for contention detours and reactive re-routes too.
  void ensure_strategy(MoRun& run, RouteTask& task, const Rect& pos) {
    // Adopt a finished asynchronous synthesis.
    if (task.pending) {
      if (--task.pending_countdown <= 0) {
        task.strategy = std::move(task.pending_strategy);
        task.digest = task.pending_digest;
        task.has_strategy = true;
        task.pending = false;
      } else {
        return;  // keep executing the previous strategy meanwhile
      }
    }

    // A droplet can end up just outside its original zone (strategy swaps
    // and sampled outcomes both move it between syntheses); widen the
    // search bound so the re-anchored synthesis stays well-formed.
    if (!task.rj.hazard.contains(pos))
      task.rj.hazard = task.rj.hazard.union_with(pos);

    // Replica-masked synthesis view: sibling corridor bands clamped dead
    // (outside the shared funnels) make the replica routes pairwise
    // region-disjoint. The digest is taken over the *masked* view and
    // salted (kReplicaDigestSalt), so the band geometry is folded into
    // both the re-synthesis trigger and the library key.
    const bool replica_mask = task.replica >= 0 && !task.masked_bands.empty() &&
                              !task.mask_degraded && !health_.empty();
    IntMatrix replica_health;
    std::uint64_t digest =
        config_.adaptive ? health_digest(health_, task.rj.hazard) : 0;
    if (replica_mask) {
      replica_health = replica_masked_health(task, pos);
      digest = replica_digest(replica_health, task.rj.hazard);
    }
    if (task.has_strategy && digest == task.digest) return;

    // One-shot requests, consumed success or not: a contention detour and a
    // reactive re-route both synthesize afresh from the sensed view.
    const bool avoid_droplets = task.avoid_droplets_once && !health_.empty();
    const bool reroute = task.reroute_once;
    task.avoid_droplets_once = false;
    task.reroute_once = false;
    if (task.has_strategy || reroute) ++stats_.resyntheses;

    RoutingJob rj = task.rj;
    rj.start = pos;  // re-anchor at the droplet's current location

    SynthesisResult result;
    // Contention detours synthesize against the droplet-masked health view.
    // They are cached under a position-keyed digest: hashing the *masked*
    // view folds the avoid-rectangles (the other droplets' inflated
    // footprints) into the key, so a detour entry can only be served when
    // the same obstacles sit in the same places — no poisoning of the
    // unmasked entries, which stay under the plain health digest.
    // kDetourDigestSalt separates the two key families when the matrices
    // coincide (see core/library.hpp). For replicas the droplet mask is
    // applied on top of the corridor mask.
    IntMatrix masked_health;
    std::uint64_t lookup_digest = digest;
    if (avoid_droplets) {
      masked_health = droplet_masked_health(
          task, pos, replica_mask ? replica_health : health_);
      lookup_digest = detour_digest(masked_health, task.rj.hazard);
    } else if (reroute) {
      // A baseline re-route is keyed by the sensed health it solves over,
      // while the task keeps the baseline digest 0: the re-routed strategy
      // holds until the droplet gets stuck again.
      lookup_digest = health_digest(health_, task.rj.hazard);
    }

    // While a fallback route is active, full re-synthesis is under backoff:
    // a health change inside the window re-runs only the cheap fallback
    // router; the first change after the window retries the real synthesis.
    if (task.fallback_active && config_.recovery.enabled &&
        chip_.cycle() < task.fallback_retry_at) {
      install_fallback(run, task, rj, digest,
                       avoid_droplets ? &masked_health : nullptr);
      return;
    }
    if (task.fallback_active)
      obs_event("recovery", "deadline-retry", task.rj.mo,
                "backoff elapsed: retrying full synthesis");

    const DigestClass digest_class = avoid_droplets ? DigestClass::kDetour
                                     : replica_mask ? DigestClass::kReplica
                                                    : DigestClass::kPlain;
    const SynthesisResult* cached =
        config_.use_library ? library_.lookup(rj, lookup_digest, digest_class)
                            : nullptr;
    if (cached != nullptr) {
      ++stats_.library_hits;
      result = *cached;
    } else {
      ++stats_.synthesis_calls;
      // All of one MO's replicas draw from a single per-cycle Deadline
      // token (inactive for non-replicas — per-call arming applies).
      const util::Deadline deadline = replica_deadline(run, task);
      if (avoid_droplets || reroute) {
        result = synthesizer_.synthesize(
            rj, avoid_droplets ? masked_health : health_, chip_.health_bits(),
            deadline);
      } else if (config_.adaptive) {
        // The hot re-synthesis path: reuse the task's retained model so a
        // small health delta patches it in place instead of rebuilding the
        // MDP from scratch. Replicas solve over their corridor-masked view.
        result = synthesizer_.resynthesize(
            rj, replica_mask ? replica_health : health_, chip_.health_bits(),
            task.resynth, deadline);
        if (result.warm) ++stats_.resyntheses_warm;
      } else {
        result = synthesizer_.synthesize_with_force(
            rj,
            full_health_force(chip_bounds_.width(), chip_bounds_.height()));
      }
      stats_.synthesis_seconds += result.total_seconds;
      // Deadline-expired results carry no strategy and describe a solver
      // budget, not the health state — caching them would poison the key.
      if (config_.use_library && !result.deadline_expired)
        library_.store(rj, lookup_digest, result, digest_class);
    }

    if (result.deadline_expired) {
      on_synthesis_deadline(run, task, rj, digest,
                            avoid_droplets ? &masked_health : nullptr);
      return;
    }

    if (!result.feasible) {
      if (replica_mask) {
        // The corridor mask itself made the job infeasible (the band may
        // have degraded underneath the droplet): degrade this replica to
        // best-effort disjointness — recorded as such — and retry the
        // synthesis unmasked right away instead of burning the ladder.
        task.mask_degraded = true;
        ++stats_.replica.best_effort_masks;
        obs_event("replica", "mask-degraded", task.rj.mo,
                  "corridor mask infeasible for replica " +
                      std::to_string(task.replica) +
                      "; best-effort disjointness from here");
        task.resynth.valid = false;  // the retained model reflects the mask
        task.has_strategy = false;
        ensure_strategy(run, task, pos);
        return;
      }
      if (config_.recovery.enabled) {
        on_synthesis_failure(run, task);
      } else if (task.replica >= 0) {
        abandon_replica(run, task);
      } else {
        fail("no feasible routing strategy for MO " +
             std::to_string(task.rj.mo));
      }
      return;
    }
    task.retries = 0;
    if (task.fallback_active) {
      task.fallback_active = false;
      task.deadline_strikes = 0;
      obs_event("recovery", "fallback-retired", task.rj.mo,
                "full synthesis recovered; fallback route retired");
    }
    if (task.first_expected_cycles < 0.0 &&
        std::isfinite(result.expected_cycles))
      task.first_expected_cycles = result.expected_cycles;

    if (config_.synthesis_latency_cycles > 0) {
      task.pending = true;
      task.pending_countdown = config_.synthesis_latency_cycles;
      task.pending_strategy = std::move(result.strategy);
      task.pending_digest = digest;
    } else {
      task.strategy = std::move(result.strategy);
      task.digest = digest;
      task.has_strategy = true;
    }
  }

  /// The redundancy degree of one MO: the per-MO Mo::replicas annotation,
  /// raised to the config floor for dispenses feeding a mix/dilute.
  /// Replication needs the adaptive router (the baseline cannot synthesize
  /// under a corridor mask) and only applies to dispense MOs.
  int effective_replicas(const MoRun& run) const {
    if (!config_.adaptive || run.mo->type != MoType::kDispense) return 1;
    int n = run.mo->replicas;
    if (feeds_mix_[static_cast<std::size_t>(run.mo->id)] != 0)
      n = std::max(n, config_.replicate_critical_dispenses);
    return std::min(n, 8);
  }

  /// The controller's health view with this replica's sibling corridor
  /// bands clamped dead — the region mask behind pairwise-disjoint replica
  /// routes. Cells inside the shared start/goal funnels stay unmasked
  /// (every replica must reach the dispense port and converge on the
  /// goal), as do the droplet's own cells (it may straddle a band edge).
  IntMatrix replica_masked_health(const RouteTask& task,
                                  const Rect& pos) const {
    IntMatrix masked = health_;
    for (const Rect& band : task.masked_bands) {
      const Rect area = band.intersection_with(chip_bounds_);
      if (!area.valid()) continue;
      for (int y = area.ya; y <= area.yb; ++y)
        for (int x = area.xa; x <= area.xb; ++x) {
          if (pos.contains(x, y)) continue;
          if (task.start_funnel.contains(x, y) ||
              task.goal_funnel.contains(x, y))
            continue;
          masked(x, y) = 0;
        }
    }
    return masked;
  }

  /// The shared synthesis budget of a replicated MO: every replica's solve
  /// in one chip cycle draws from a single Deadline token, re-armed once
  /// per cycle with the configured sweep budget — N replicas never multiply
  /// the budget N×. Inactive (per-call arming applies) for non-replica
  /// tasks or when no budget is configured.
  util::Deadline replica_deadline(MoRun& run, const RouteTask& task) {
    if (task.replica < 0) return {};
    if (run.replica_deadline_cycle != chip_.cycle()) {
      run.replica_deadline_cycle = chip_.cycle();
      run.replica_deadline =
          config_.synthesis.deadline_sweeps > 0
              ? util::Deadline::after_checks(config_.synthesis.deadline_sweeps)
              : util::Deadline{};
    }
    return run.replica_deadline;
  }

  /// Seals one replica's outcome record (idempotent per task).
  void record_replica_route(RouteTask& task, bool winner) {
    if (task.replica < 0 || task.replica_recorded) return;
    task.replica_recorded = true;
    ReplicaRouteRecord record;
    record.mo = task.rj.mo;
    record.replica = task.replica;
    record.winner = winner;
    record.abandoned = task.abandoned;
    record.mask_best_effort = task.mask_best_effort || task.mask_degraded;
    record.band = task.band;
    record.start_funnel = task.start_funnel;
    record.goal_funnel = task.goal_funnel;
    record.trail = std::move(task.trail);
    stats_.replica_routes.push_back(std::move(record));
  }

  /// Ladder rung between quarantine and per-job abort: a replica that
  /// exhausted its per-replica retry budget is abandoned — its droplet is
  /// discarded and its siblings race on — instead of aborting the MO. Only
  /// the failure of the last replica escalates to the graceful abort.
  void abandon_replica(MoRun& run, RouteTask& task) {
    if (task.abandoned) return;
    task.abandoned = true;
    ++run.abandoned_replicas;
    ++stats_.replica.failovers;
    stats_.replica.droplet_cycles += chip_.cycle() - task.created_cycle;
    event(RecoveryAction::kReplicaFailover, run.mo->id,
          "replica " + std::to_string(task.replica) + " abandoned after " +
              std::to_string(task.retries) + " attempt(s); " +
              std::to_string(run.replicas_planned - run.abandoned_replicas) +
              " remain");
    record_replica_route(task, /*winner=*/false);
    close_job_span(task, "abandoned");
    doomed_.push_back(task.droplet);
    std::erase(run.live, task.droplet);
    if (run.abandoned_replicas >= run.replicas_planned)
      abort_job(run, "all " + std::to_string(run.replicas_planned) +
                         " replicas failed");
  }

  /// Hands a losing replica over to the retirement queue: it leaves the MO
  /// (which completes regardless) and drains to the nearest chip edge.
  void retire_replica(MoRun& run, RouteTask& task) {
    ++stats_.replica.retired;
    stats_.replica.droplet_cycles += chip_.cycle() - task.created_cycle;
    record_replica_route(task, /*winner=*/false);
    close_job_span(task, "retired");
    obs_event("replica", "retire", run.mo->id,
              "replica " + std::to_string(task.replica) +
                  " lost the vote; retiring to waste");
    RetireTask retiree;
    retiree.droplet = task.droplet;
    retiree.mo = run.mo->id;
    retiree.created_cycle = chip_.cycle();
    retiree.last_pos = chip_.droplet_position(task.droplet);
    retiring_.push_back(std::move(retiree));
  }

  /// Discards one retiring replica and charges its drain traffic.
  void finish_retirement(std::size_t i, const std::string& reason) {
    RetireTask& retiree = retiring_[i];
    stats_.replica.droplet_cycles += chip_.cycle() - retiree.created_cycle;
    obs_event("replica", "retired", retiree.mo, reason);
    chip_.discard(retiree.droplet);
    retiring_.erase(retiring_.begin() + static_cast<std::ptrdiff_t>(i));
  }

  /// Drives every retiring replica one cycle toward the chip edge on cheap
  /// fallback routes (no model checking for waste disposal); arrival, a
  /// persistent blockage, or an exhausted replan budget discards it.
  void advance_retirements(std::vector<Command>& commands) {
    constexpr int kRetireStuckCycles = 8;
    constexpr int kRetireMaxReplans = 4;
    for (std::size_t i = 0; i < retiring_.size();) {
      RetireTask& retiree = retiring_[i];
      if (retiree.created_cycle == chip_.cycle()) {
        ++i;  // handed over this cycle — its route command is already out
        continue;
      }
      const Rect pos = chip_.droplet_position(retiree.droplet);
      if (retiree.has_strategy && retiree.goal.contains(pos)) {
        finish_retirement(i, "reached the waste edge");
        continue;
      }
      if (retiree.has_strategy && pos == retiree.last_pos) {
        if (++retiree.stuck >= kRetireStuckCycles) {
          retiree.stuck = 0;
          retiree.has_strategy = false;  // replan around the blockage
        }
      } else {
        retiree.last_pos = pos;
        retiree.stuck = 0;
      }
      if (!retiree.has_strategy) {
        if (retiree.replans >= kRetireMaxReplans || health_.empty()) {
          finish_retirement(i, "no waste route; discarded in place");
          continue;
        }
        ++retiree.replans;
        RoutingJob rj;
        rj.start = pos;
        rj.goal = dispense_entry_rect(pos, chip_bounds_);
        rj.hazard =
            assay::zone(rj.start, rj.goal, chip_bounds_, config_.zone_margin);
        rj.mo = retiree.mo;
        FallbackConfig fallback_config;
        fallback_config.rules = config_.synthesis.rules;
        fallback_config.max_expansions = kFallbackMaxExpansions;
        FallbackResult fallback =
            fallback_route(rj, health_, chip_bounds_, fallback_config);
        if (!fallback.feasible) {
          finish_retirement(i, "no waste route; discarded in place");
          continue;
        }
        retiree.goal = rj.goal;
        retiree.strategy = std::move(fallback.strategy);
        retiree.has_strategy = true;
      }
      const std::optional<Action> action = retiree.strategy.action(pos);
      if (!action) retiree.has_strategy = false;  // drifted off; replan next
      commands.push_back(Command{retiree.droplet, action, -1});
      ++i;
    }
  }

  /// Dispense machine for a replicated MO (effective N > 1). Phase 0 plans
  /// the disjoint corridors; then one replica launches per cycle through
  /// the shared port while the live ones race. The first arrival completes
  /// the MO (k = 1 of N vote) and the losers retire to waste.
  void process_replicated_dispense(MoRun& run, std::vector<Command>& commands,
                                   int replicas, const Rect& goal) {
    const Mo& mo = *run.mo;
    const Rect entry = dispense_entry_rect(goal, chip_bounds_);
    if (run.phase == 0) {
      run.replicas_planned = replicas;
      RoutingJob seed;
      seed.start = entry;
      seed.goal = goal;
      seed.hazard = assay::zone(entry, goal, chip_bounds_, config_.zone_margin);
      seed.mo = mo.id;
      run.corridors = plan_replica_corridors(seed, replicas, chip_bounds_);
      if (!run.corridors.disjoint) {
        ++stats_.replica.best_effort_masks;
        obs_event("replica", "best-effort-mask", mo.id,
                  "zone too thin for " + std::to_string(replicas) +
                      " disjoint corridors; replicas share the full zone");
      }
      obs_event("replica", "corridors-planned", mo.id,
                std::to_string(replicas) + " replica(s), disjointness=" +
                    (run.corridors.disjoint ? "full" : "best-effort"));
      run.phase = 1;
    }
    // Launch at most one replica per cycle — the dispense port is shared.
    int just_launched = -1;
    if (run.launched < run.replicas_planned && chip_.location_clear(entry)) {
      const DropletId d = chip_.dispense(entry);
      run.live.push_back(d);
      RouteTask task = make_route(mo.id, d, goal);
      const ReplicaCorridor& corridor =
          run.corridors.corridors[static_cast<std::size_t>(run.launched)];
      task.replica = run.launched;
      task.band = corridor.band;
      task.masked_bands = corridor.masked;
      task.start_funnel = run.corridors.start_funnel;
      task.goal_funnel = run.corridors.goal_funnel;
      task.mask_best_effort = !run.corridors.disjoint;
      obs_event("replica", "launch", mo.id,
                "replica " + std::to_string(task.replica) + " of " +
                    std::to_string(run.replicas_planned) + " dispensed");
      run.routes.push_back(std::move(task));
      just_launched = run.launched;
      ++run.launched;
      ++stats_.replica.launched;
    }
    // Race the live replicas; the first arrival wins the vote.
    RouteTask* winner = nullptr;
    for (RouteTask& task : run.routes) {
      if (task.abandoned) continue;
      if (task.replica == just_launched) continue;  // dispensing used its cycle
      if (config_.record_replica_trails)
        task.trail.push_back(chip_.droplet_position(task.droplet));
      const bool arrived = advance_route(run, task, commands);
      if (failed_ || run.state != MoRun::State::kActive) return;
      if (arrived) {
        winner = &task;
        break;
      }
    }
    if (winner == nullptr) return;
    ++stats_.replica.merges;
    obs_event("replica", "merge", mo.id,
              "replica " + std::to_string(winner->replica) +
                  " arrived first of " + std::to_string(run.launched) +
                  "; MO completes (k = 1 of " +
                  std::to_string(run.replicas_planned) + ")");
    record_replica_route(*winner, /*winner=*/true);
    for (RouteTask& task : run.routes) {
      if (&task == winner || task.abandoned) continue;
      retire_replica(run, task);
      std::erase(run.live, task.droplet);
    }
    finish(run, {winner->droplet});
  }

  /// Where two partnered droplets merge: the output-sized pattern centered
  /// on the contact centroid, clamped to the chip.
  Rect merge_site(DropletId a, DropletId b, int merged_area) const {
    const Rect pa = chip_.droplet_position(a);
    const Rect pb = chip_.droplet_position(b);
    const Rect box = pa.union_with(pb);
    const assay::DropletSize size = assay::size_for_area(merged_area);
    return clamp_into(
        Rect::from_center(box.center_x(), box.center_y(), size.w, size.h),
        chip_bounds_);
  }

  /// Mix machine shared by kMix and kDilute. Phases:
  ///   0 — create both routing jobs (all of the MO's droplets move
  ///       concurrently, per Algorithm 3);
  ///   1 — route until the partners are in contact, then merge;
  ///   2 — transport the merged droplet to the mixer location;
  ///   3 — hold for the mixing duration.
  /// Leaves run.phase == 4 when complete.
  void process_mix_phases(MoRun& run, std::vector<Command>& commands) {
    const Mo& mo = *run.mo;
    if (run.phase == 0) {
      run.routes.clear();
      run.routes.push_back(make_route(mo.id, run.in[0],
                                      placed_rect(mo.locs[0],
                                                  droplet_area(run.in[0])),
                                      /*partner=*/run.in[1]));
      run.routes.push_back(make_route(mo.id, run.in[1],
                                      placed_rect(mo.locs[0],
                                                  droplet_area(run.in[1])),
                                      /*partner=*/run.in[0]));
      run.phase = 1;
    }
    if (run.phase == 1) {
      if (chip_.droplet_position(run.in[0])
              .manhattan_gap(chip_.droplet_position(run.in[1])) <= 1) {
        // The partnered routes end here (contact), not via advance_route.
        for (RouteTask& task : run.routes) close_job_span(task, "merged");
        const int merged_area =
            droplet_area(run.in[0]) + droplet_area(run.in[1]);
        run.merged = chip_.merge(run.in[0], run.in[1],
                                 merge_site(run.in[0], run.in[1],
                                            merged_area));
        run.live = {run.merged};
        run.phase = 2;
        return;  // merging consumes the cycle
      }
      // Route the partner with the shorter remaining distance second so the
      // pair tends to meet near the mixer; both droplets are commanded.
      advance_route(run, run.routes[0], commands);
      if (failed_ || run.state != MoRun::State::kActive) return;
      advance_route(run, run.routes[1], commands);
      return;
    }
    if (run.phase == 2) {
      run.routes.clear();
      const Rect goal = placed_rect(mo.locs[0], droplet_area(run.merged));
      run.routes.push_back(make_route(mo.id, run.merged, goal));
      run.phase = 3;
    }
    if (run.phase == 3) {
      if (advance_route(run, run.routes[0], commands)) {
        run.hold_remaining = mo.hold_cycles;
        run.phase = 4;
      }
      return;
    }
    if (run.phase == 4) {
      if (run.hold_remaining > 0) {
        --run.hold_remaining;
        return;
      }
      run.phase = 5;
    }
  }

  /// Drives one MO's phase machine for one cycle.
  void process(MoRun& run, std::vector<Command>& commands) {
    const Mo& mo = *run.mo;
    const int id = mo.id;
    const auto& mo_outputs = outputs_[static_cast<std::size_t>(id)];
    switch (mo.type) {
      case MoType::kDispense: {
        const int replicas = effective_replicas(run);
        if (replicas > 1) {
          process_replicated_dispense(run, commands, replicas, mo_outputs[0]);
          return;
        }
        if (run.phase == 0) {
          const Rect entry = dispense_entry_rect(mo_outputs[0], chip_bounds_);
          if (!chip_.location_clear(entry)) return;  // port busy; wait
          const DropletId d = chip_.dispense(entry);
          run.in = {d};
          run.live = {d};
          run.routes = {make_route(id, d, mo_outputs[0])};
          run.phase = 1;
          return;  // dispensing consumes the cycle
        }
        if (advance_route(run, run.routes[0], commands))
          finish(run, {run.routes[0].droplet});
        return;
      }
      case MoType::kOutput:
      case MoType::kDiscard: {
        if (run.phase == 0) {
          const Rect goal = placed_rect(mo.locs[0], droplet_area(run.in[0]));
          run.routes = {make_route(id, run.in[0], goal)};
          run.phase = 1;
        }
        if (run.phase == 1) {
          if (advance_route(run, run.routes[0], commands)) run.phase = 2;
          return;
        }
        chip_.discard(run.routes[0].droplet);  // exits through the edge
        finish(run, {});
        return;
      }
      case MoType::kMagSense: {
        if (run.phase == 0) {
          const Rect goal = placed_rect(mo.locs[0], droplet_area(run.in[0]));
          run.routes = {make_route(id, run.in[0], goal)};
          run.phase = 1;
        }
        if (run.phase == 1) {
          if (advance_route(run, run.routes[0], commands)) {
            run.phase = 2;
            run.hold_remaining = mo.hold_cycles;
          }
          return;
        }
        if (run.hold_remaining > 0) {
          --run.hold_remaining;  // droplet held (and actuated) in place
          return;
        }
        finish(run, {run.routes[0].droplet});
        return;
      }
      case MoType::kMix: {
        process_mix_phases(run, commands);
        if (run.phase == 5) finish(run, {run.merged});
        return;
      }
      case MoType::kSplit: {
        if (run.phase == 0) {
          const Rect pos = chip_.droplet_position(run.in[0]);
          const int area = pos.area();
          const auto [r0, r1] =
              split_rects(pos, (area + 1) / 2, area / 2, chip_bounds_);
          if (!chip_.split_clear(run.in[0], r0, r1)) return;  // wait
          run.parts = chip_.split(run.in[0], r0, r1);
          run.live = {run.parts.first, run.parts.second};
          run.phase = 1;
          return;  // splitting consumes the cycle
        }
        if (run.phase == 1) {
          run.routes = {make_route(id, run.parts.first, mo_outputs[0]),
                        make_route(id, run.parts.second, mo_outputs[1])};
          run.phase = 2;
        }
        // Route both parts concurrently; done when both have arrived.
        const bool a0 = advance_route(run, run.routes[0], commands);
        if (failed_ || run.state != MoRun::State::kActive) return;
        const bool a1 = advance_route(run, run.routes[1], commands);
        if (a0 && a1) finish(run, {run.parts.first, run.parts.second});
        return;
      }
      case MoType::kDilute: {
        // Mix at loc[0] (phases 0-4), split (5), then distribute: the
        // departing half routes to loc[1] before the stayer settles at
        // loc[0], so it cannot block the stayer's goal.
        process_mix_phases(run, commands);
        if (run.state != MoRun::State::kActive) return;
        if (run.phase < 5) return;
        if (run.phase == 5) {
          const Rect pos = chip_.droplet_position(run.merged);
          const int area = pos.area();
          const auto [r0, r1] =
              split_rects(pos, (area + 1) / 2, area / 2, chip_bounds_);
          if (!chip_.split_clear(run.merged, r0, r1)) return;  // wait
          run.parts = chip_.split(run.merged, r0, r1);
          run.live = {run.parts.first, run.parts.second};
          run.phase = 6;
          return;  // splitting consumes the cycle
        }
        if (run.phase == 6) {
          run.routes = {make_route(id, run.parts.second, mo_outputs[1])};
          run.phase = 7;
        }
        if (run.phase == 7) {
          if (advance_route(run, run.routes[0], commands)) run.phase = 8;
          return;
        }
        if (run.phase == 8) {
          run.routes = {make_route(id, run.parts.first, mo_outputs[0])};
          run.phase = 9;
        }
        if (advance_route(run, run.routes[0], commands))
          finish(run, {run.parts.first, run.parts.second});
        return;
      }
    }
  }

  const SchedulerConfig& config_;
  StrategyLibrary& library_;
  BiochipIo& chip_;
  const MoList& assay_;
  Rect chip_bounds_;
  Synthesizer synthesizer_;
  std::vector<std::vector<Rect>> outputs_;
  std::vector<MoRun> runs_;
  ExecutionStats stats_;
  std::uint64_t start_cycle_ = 0;
  bool failed_ = false;
  std::string failure_reason_;
  // Sensing / recovery state.
  bool senses_health_ = false;
  IntMatrix health_;  ///< the controller's current health view
  HealthFilter filter_;
  BoolMatrix quarantined_;
  int quarantined_suspects_seen_ = 0;
  bool quarantine_budget_hit_ = false;
  std::vector<Vec2i> quarantine_order_;  ///< FIFO for budget-pressure parole
  std::vector<DropletId> doomed_;  ///< droplets to discard at cycle end
  std::vector<std::string> abort_reasons_;
  // N-modular redundancy state.
  std::vector<char> feeds_mix_;      ///< per MO: dispense feeding a mix/dilute
  std::vector<RetireTask> retiring_; ///< losing replicas draining to waste
  // Observability bookkeeping.
  std::uint64_t job_serial_ = 0;           ///< async job-span id source
  std::int64_t health_changes_total_ = 0;  ///< health-view changes so far
  std::uint64_t last_health_digest_ = 0;
  bool has_health_digest_ = false;
};

}  // namespace

Scheduler::Scheduler(SchedulerConfig config, StrategyLibrary* library)
    : config_(config), shared_library_(library) {}

ExecutionStats Scheduler::run(BiochipIo& chip, const MoList& assay_list) {
  assay::validate(assay_list, chip.bounds());
  StrategyLibrary private_library;
  StrategyLibrary& library =
      shared_library_ != nullptr ? *shared_library_ : private_library;
  Runner runner(config_, library, chip, assay_list);
  return runner.execute();
}

void RunRollup::absorb(const ExecutionStats& stats) {
  ++runs;
  if (stats.success) {
    ++successes;
    cycles.add(static_cast<double>(stats.cycles));
  }
  completed_mos += stats.completed_mos;
  aborted_mos += stats.aborted_mos;
  synthesis_calls += stats.synthesis_calls;
  library_hits += stats.library_hits;
  resyntheses += stats.resyntheses;
  resyntheses_warm += stats.resyntheses_warm;
  synthesis_seconds += stats.synthesis_seconds;
  recovery += stats.recovery;
  replica += stats.replica;
}

}  // namespace meda::core
