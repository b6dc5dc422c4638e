#include "core/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>

#include "core/replica_corridors.hpp"
#include "model/outcomes.hpp"
#include "obs/capture.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/handoff.hpp"

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

/// Calls @p visit(x, y) for every cell of @p area on the chip @p bounds that
/// no rectangle of @p keep contains, row by row.
template <typename F>
void for_each_cell_outside(const Rect& area, const Rect& bounds,
                           std::initializer_list<Rect> keep, F&& visit) {
  const Rect cells = area.intersection_with(bounds);
  for (int y = cells.ya; y <= cells.yb; ++y)
    for (int x = cells.xa; x <= cells.xb; ++x)
      if (std::none_of(keep.begin(), keep.end(),
                       [&](const Rect& r) { return r.contains(x, y); }))
        visit(x, y);
}

/// What one execution reports, written by every part of the scheduler: the
/// stats and the event log, stamped in cycles since the execution started.
struct Journal {
  std::uint64_t now() const { return chip.cycle() - start; }

  /// Appends one entry to the unified structured event log (and mirrors it
  /// to the wall-clock trace as an instant marker when tracing is on).
  void event(std::string category, std::string name, int mo,
             std::string detail) {
    MEDA_OBS_INSTANT("event", name, detail);
    stats.events.push_back(obs::Event{now(), std::move(category),
                                      std::move(name), mo, std::move(detail)});
  }

  /// Recovery-ladder firing: a "recovery" entry named after the rung.
  void event(RecoveryAction action, int mo, std::string detail) {
    event("recovery", std::string(to_string(action)), mo, std::move(detail));
  }

  const BiochipIo& chip;
  const std::uint64_t start;
  ExecutionStats stats;
};

/// Counts the consecutive cycles a droplet sits on the same cells.
struct StillCounter {
  Rect last = Rect::none();
  int cycles = 0;

  /// Notes the droplet at @p pos; true, and counting afresh, once it has sat
  /// still for @p limit cycles in a row.
  bool fires(const Rect& pos, int limit) {
    cycles = pos == last ? cycles + 1 : 0;
    last = pos;
    if (cycles < limit) return false;
    cycles = 0;
    return true;
  }
};

/// The controller's health view: senses the chip, filters the scan when the
/// filter is on, and clamps quarantined cells dead. It owns the quarantine
/// set with its budget and parole, and counts the changes of the view.
class HealthView {
 public:
  HealthView(const SchedulerConfig& config, BiochipIo& chip, Journal& journal)
      : config_(config),
        chip_(chip),
        journal_(journal),
        senses_(config.adaptive || config.reactive_recovery_stuck_cycles > 0 ||
                config.recovery.enabled || config.filter.enabled),
        quarantined_(chip.bounds().width(), chip.bounds().height(), 0),
        budget_(static_cast<int>(kMaxQuarantineFraction *
                                 static_cast<double>(chip.bounds().area()))) {}

  /// The current view; empty when the configuration never senses.
  const IntMatrix& view() const { return health_; }

  /// Changes of the whole view so far.
  std::int64_t changes() const { return changes_; }

  /// Bumped whenever the view may have changed: by every refresh, and by a
  /// quarantine that added cells.
  std::uint64_t version() const { return version_; }

  /// Senses the chip and rebuilds the view: raw scan or filtered estimate,
  /// with quarantined cells clamped dead. @p forced marks a ladder-driven
  /// re-sense (the filter re-seeds from the next frame).
  void refresh(bool forced) {
    if (!senses_) return;
    ++version_;
    IntMatrix scan = chip_.sense_health();
    if (config_.filter.enabled) {
      // The clamped view stays current until the estimate moves: a frame
      // that seeds the filter or adopts a code. Outside a forced re-sense
      // (parole) the quarantine set only grows, and each addition clamps.
      const bool seeds = forced || !filter_.seeded();
      const std::uint64_t adopted = filter_.adopted_updates();
      if (forced) filter_.force_resense();
      filter_.observe(scan);
      if (seeds || filter_.adopted_updates() != adopted)
        health_ = filter_.estimate();
    } else {
      health_ = std::move(scan);
    }
    if (forced) {
      ++journal_.stats.recovery.forced_resenses;
      // The fresh (pre-clamp) estimate is the parole evidence: a cell the
      // re-sense reads alive may leave the quarantine set under budget
      // pressure before the clamp below re-kills the remaining inmates.
      parole();
    }
    if (config_.recovery.enabled) quarantine_suspects();
    clamp();
    note_change();
  }

  /// Quarantines the cells of @p area outside @p keep, so the router plans
  /// around them even though they may still read healthy. Returns how many
  /// cells were not quarantined before.
  int quarantine(const Rect& area, const Rect& keep) {
    int added = 0;
    for_each_cell_outside(area, chip_.bounds(), {keep},
                          [&](int x, int y) { added += add(x, y); });
    if (added > 0) {
      clamp();
      ++version_;
    }
    return added;
  }

 private:
  /// Adds cell (x, y) to the quarantine set; false when it already was in.
  bool add(int x, int y) {
    if (quarantined_(x, y) != 0) return false;
    quarantined_(x, y) = 1;
    order_.push_back({x, y});
    ++journal_.stats.recovery.quarantined_cells;
    return true;
  }

  /// Budget-pressure parole: once the quarantine budget is exhausted, a
  /// forced re-sense releases the *oldest* quarantined cells whose fresh
  /// estimate reads alive, until the set is back at 3/4 of the budget.
  /// Without this, early (possibly sensing-noise-driven) quarantines stay
  /// blacklisted forever while genuinely dead cells compete for the budget.
  void parole() {
    if (!config_.recovery.enabled || std::ssize(order_) < budget_) return;
    const int target = (budget_ * 3) / 4;
    int released = 0;
    auto it = order_.begin();
    while (it != order_.end() && std::ssize(order_) > target) {
      const int x = it->x;
      const int y = it->y;
      if (health_(x, y) > 1) {
        // Parole demands more than the weakest alive reading: under heavy
        // sensing noise a dead cell's level-0 word often corrupts into
        // level 1, and releasing on that would churn the same cells through
        // quarantine → parole → re-quarantine.
        quarantined_(x, y) = 0;
        ++released;
        it = order_.erase(it);
      } else {
        ++it;  // still reads dead: stays quarantined
      }
    }
    if (released == 0) return;
    journal_.stats.recovery.paroled_cells += released;
    journal_.event(RecoveryAction::kQuarantineParole, -1,
                   std::to_string(released) +
                       " cell(s) re-sensed alive; released");
    if (std::ssize(order_) < budget_) budget_hit_ = false;
  }

  /// Folds filter-suspect cells into the quarantine set. Budgeted: a suspect
  /// *flood* means the sensing channel is failing, not the substrate —
  /// quarantining it all would blind the router to a still-routable chip.
  /// Past the budget, trust the filtered estimate.
  void quarantine_suspects() {
    if (!config_.filter.enabled || filter_.suspect_count() <= suspects_seen_)
      return;
    const BoolMatrix& suspect = filter_.suspect();
    const Rect chip = chip_.bounds();
    int added = 0;
    for_each_cell_outside(chip, chip, {}, [&](int x, int y) {
      if (std::ssize(order_) < budget_ && suspect(x, y) != 0)
        added += add(x, y);
    });
    suspects_seen_ = filter_.suspect_count();
    if (added > 0)
      journal_.event(RecoveryAction::kQuarantine, -1,
                     std::to_string(added) + " suspect cell(s)");
    if (std::ssize(order_) >= budget_ && !budget_hit_) {
      budget_hit_ = true;
      journal_.event("recovery", "quarantine-budget", -1,
                     "suspect flood: budget of " + std::to_string(budget_) +
                         " cell(s) exhausted; trusting the filter estimate");
    }
  }

  /// Clamps every quarantined cell to health 0 in the view.
  void clamp() {
    if (health_.empty()) return;
    for (const Vec2i& cell : order_) health_(cell.x, cell.y) = 0;
  }

  /// Counts changes of the whole view (metrics counter + cycle-domain
  /// instant) so the trace shows when the world shifted.
  void note_change() {
    if (!MEDA_OBS_ACTIVE() || health_.empty()) return;
    const std::uint64_t digest = health_digest(health_, chip_.bounds());
    if (last_digest_ && digest != *last_digest_) {
      ++changes_;
      MEDA_OBS_COUNT("sched.health_changes", 1);
      MEDA_OBS_CYCLE_INSTANT("health-change", journal_.now());
    }
    last_digest_ = digest;
  }

  const SchedulerConfig& config_;
  BiochipIo& chip_;
  Journal& journal_;
  const bool senses_;
  IntMatrix health_;
  HealthFilter filter_;
  BoolMatrix quarantined_;
  /// The cells marked in quarantined_, oldest first (parole order).
  std::vector<Vec2i> order_;
  const int budget_;  ///< ceiling on the quarantine set (cells)
  int suspects_seen_ = 0;
  bool budget_hit_ = false;
  std::int64_t changes_ = 0;
  std::uint64_t version_ = 0;
  std::optional<std::uint64_t> last_digest_;
};

/// What the adaptive path's synthesis of one route returns.
struct Provision {
  SynthesisResult result;
  /// Time a refused certificate took before the re-solve.
  double refused_seconds = 0.0;
};

/// The adaptive path's synthesis of @p rj over @p view: certify against the
/// last solve @p ctx retains when @p certify_first, and when that is
/// refused, re-solve on the model @p ctx retains.
Provision provision_adaptive(const Synthesizer& synthesizer,
                             const RoutingJob& rj, const IntMatrix& view,
                             int health_bits, bool certify_first,
                             ResynthesisContext& ctx) {
  Provision out;
  if (certify_first)
    out.result = synthesizer.certify(rj, view, health_bits, ctx);
  if (!out.result.certified) {
    out.refused_seconds = out.result.total_seconds;
    out.result = synthesizer.resynthesize(rj, view, health_bits, ctx);
  }
  return out;
}

/// A route's first synthesis, handed to a helper thread before its MO's
/// route loop (Runner::hand_off_later_route): what it reads, and what it
/// makes. The helper synthesizes from its own copy of the view into a fresh
/// context, recording into a capture that adoption commits.
struct Handed {
  Handed(const Synthesizer& synthesizer, DropletId d, const RoutingJob& job,
         std::uint64_t version, const IntMatrix& health, int health_bits,
         bool certify_first)
      : droplet(d),
        rj(job),
        view_version(version),
        view(health),
        handoff([this, &synthesizer, health_bits, certify_first] {
          const obs::Capture::Scope scope(capture);
          out = provision_adaptive(synthesizer, rj, view, health_bits,
                                   certify_first, ctx);
        }) {}

  Handed(const Handed&) = delete;
  Handed& operator=(const Handed&) = delete;

  const DropletId droplet;
  const RoutingJob rj;                ///< start = the droplet's position
  const std::uint64_t view_version;   ///< HealthView::version() of the view
  const IntMatrix view;
  ResynthesisContext ctx;
  Provision out;
  obs::Capture capture;
  util::Handoff handoff;  ///< last: settles before what it writes goes
};

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
  // Reactive recovery: a droplet still for the configured number of
  // commanded cycles requests one re-route from the sensed health view.
  StillCounter still;
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
  /// N-modular redundancy: this task's replica index within its MO, or -1
  /// for a plain route. The replica's corridor and fate live in ReplicaSet.
  int replica = -1;

  /// Forgets the strategy and any synthesis in flight, so the next
  /// provisioning synthesizes afresh.
  void drop_strategy() { has_strategy = pending = false; }

  /// Closes the async job span at chip cycle @p cycle (idempotent; no-op
  /// when none is open).
  void end_span(std::string_view outcome, std::uint64_t cycle) {
    if (job_span_id == 0) return;
    obs::ctx().tracer().async_end(
        "job", "MO " + std::to_string(rj.mo) + " route", job_span_id,
        {{"outcome", obs::json_quote(outcome)},
         {"cycles", std::to_string(cycle - created_cycle)}});
    job_span_id = 0;
  }
};

/// One step of an MO's program; process() runs it.
struct Step {
  enum Kind : unsigned char {
    kDispense,   ///< dispense at the port nearest output 0 and route there
    kRoute,      ///< route droplets to their goals
    kMerge,      ///< route the two droplets into contact, then merge them
    kSplit,      ///< split the droplet in two
    kHold,       ///< hold in place for the MO's hold_cycles
    kDiscard,    ///< move the droplet off the chip
    kReplicate,  ///< replicated dispense: launch, race and vote
  };
  static constexpr int kEach = -1;

  Kind kind;
  /// kRoute: the live droplet it routes, or kEach for all of them at once.
  int slot = kEach;
  /// kRoute: the goal is the MO's first location, sized to the droplet,
  /// instead of the MO's output of the droplet's slot.
  bool to_loc = false;
};

constexpr Step kDispenseSteps[] = {{Step::kDispense}, {Step::kRoute}};
constexpr Step kReplicatedSteps[] = {{Step::kReplicate}};
constexpr Step kExitSteps[] = {{Step::kRoute, 0, true}, {Step::kDiscard}};
constexpr Step kMagSenseSteps[] = {{Step::kRoute, 0, true}, {Step::kHold}};
constexpr Step kMixSteps[] = {
    {Step::kMerge}, {Step::kRoute, 0, true}, {Step::kHold}};
constexpr Step kSplitSteps[] = {{Step::kSplit}, {Step::kRoute}};
/// Mix at loc[0], split, then distribute: the departing half routes to its
/// output before the stayer settles, so it cannot block the stayer's goal.
constexpr Step kDiluteSteps[] = {
    {Step::kMerge}, {Step::kRoute, 0, true}, {Step::kHold},
    {Step::kSplit}, {Step::kRoute, 1},       {Step::kRoute, 0}};

/// The step list of an MO of @p type; @p replicated selects the replicated
/// dispense.
std::span<const Step> program(MoType type, bool replicated) {
  switch (type) {
    case MoType::kDispense:
      if (replicated) return kReplicatedSteps;
      return kDispenseSteps;
    case MoType::kOutput:
    case MoType::kDiscard: return kExitSteps;
    case MoType::kMagSense: return kMagSenseSteps;
    case MoType::kMix: return kMixSteps;
    case MoType::kSplit: return kSplitSteps;
    case MoType::kDilute: return kDiluteSteps;
  }
  return kExitSteps;
}

/// Runtime state of one MO: where it stands in its step list and which
/// droplets it holds.
struct MoRun {
  MoRun(const Mo& op, std::span<const Step> plan) : mo(&op), steps(plan) {}

  const Mo* mo;
  std::span<const Step> steps;
  enum class State { kWaiting, kActive, kDone, kAborted } state =
      State::kWaiting;
  std::size_t step = 0;           ///< index of the current step
  std::size_t routed = SIZE_MAX;  ///< the step `routes` belong to
  int hold_remaining = 0;         ///< cycles a kHold step still waits
  bool merge_waited = false;      ///< the merge's wait for a clear site logged
  std::vector<RouteTask> routes;
  /// Droplets the MO holds on the chip: its inputs, then what its steps
  /// made of them, which it keeps by output index until consumers take them.
  std::vector<DropletId> live;
  static constexpr DropletId kTaken = -1;  ///< a slot a consumer took
};

/// N-modular redundancy: plans each replicated dispense's corridors, masks
/// each replica's synthesis view, holds the first-arrival vote and fails
/// over replicas whose retries ran out. Losers and abandoned replicas leave
/// the chip with the aborted jobs' droplets, at the end of the cycle.
class ReplicaSet {
 public:
  ReplicaSet(const SchedulerConfig& config, const MoList& assay,
             BiochipIo& chip, Journal& journal)
      : config_(config),
        chip_(chip),
        journal_(journal),
        groups_(assay.ops.size()) {
    // Criticality floor: a dispense feeding a mix/dilute carries a critical
    // reagent, so SchedulerConfig::replicate_critical_dispenses raises its
    // redundancy degree (per-MO Mo::replicas annotations above the floor
    // are honored either way).
    for (const Mo& mo : assay.ops)
      if (mo.type == MoType::kMix || mo.type == MoType::kDilute)
        for (const assay::PreRef& ref : mo.pre)
          if (assay.ops[static_cast<std::size_t>(ref.mo)].type ==
              MoType::kDispense)
            group(ref.mo).critical = true;
  }

  /// The redundancy degree of @p mo: the per-MO Mo::replicas annotation,
  /// raised to the config floor for dispenses feeding a mix/dilute.
  /// Replication needs the adaptive router (the baseline cannot synthesize
  /// under a corridor mask) and only applies to dispense MOs.
  int degree(const Mo& mo) {
    if (!config_.adaptive || mo.type != MoType::kDispense) return 1;
    if (!group(mo.id).critical) return mo.replicas;
    return std::max(mo.replicas, config_.replicate_critical_dispenses);
  }

  /// True while replicated dispense @p mo, from the port @p entry to
  /// @p goal, has replicas left to launch. Plans its corridors on the first
  /// call.
  bool launching(const Mo& mo, const Rect& entry, const Rect& goal) {
    Group& g = group(mo.id);
    if (g.plan.corridors.empty()) {
      const int replicas = degree(mo);
      RoutingJob seed;
      seed.start = entry;
      seed.goal = goal;
      seed.hazard = assay::zone(entry, goal, chip_.bounds());
      seed.mo = mo.id;
      g.plan = plan_replica_corridors(seed, replicas, chip_.bounds());
      if (!g.plan.disjoint) {
        ++journal_.stats.replica.best_effort_masks;
        journal_.event("replica", "best-effort-mask", mo.id,
                       "zone too thin for " + std::to_string(replicas) +
                           " disjoint corridors; replicas share the full zone");
      }
      journal_.event("replica", "corridors-planned", mo.id,
                     std::to_string(replicas) + " replica(s), disjointness=" +
                         (g.plan.disjoint ? "full" : "best-effort"));
    }
    return g.fates.size() < g.plan.corridors.size();
  }

  /// Makes @p task, the route of a droplet just dispensed, the next replica
  /// of its MO.
  void launch(RouteTask& task) {
    Group& g = group(task.rj.mo);
    task.replica = static_cast<int>(g.fates.size());
    g.fates.emplace_back();
    ++journal_.stats.replica.launched;
    journal_.event("replica", "launch", task.rj.mo,
                   "replica " + std::to_string(task.replica) + " of " +
                       std::to_string(g.plan.corridors.size()) + " dispensed");
  }

  bool abandoned(const RouteTask& task) { return fate(task).abandoned; }

  /// The health view replica @p task synthesizes over at @p pos: @p health
  /// with its sibling corridor bands clamped dead, which makes the replica
  /// routes pairwise region-disjoint. Cells inside the shared start/goal
  /// funnels stay unmasked (every replica must reach the dispense port and
  /// converge on the goal), as do the droplet's own cells (it may straddle a
  /// band edge). nullopt when the task routes over the plain view: not a
  /// replica, a best-effort plan, or a mask dropped after an infeasible
  /// synthesis.
  std::optional<IntMatrix> masked_view(const RouteTask& task, const Rect& pos,
                                       const IntMatrix& health) {
    if (task.replica < 0 || health.empty() || fate(task).mask_dropped)
      return std::nullopt;
    const ReplicaCorridorPlan& plan = group(task.rj.mo).plan;
    const std::vector<Rect>& siblings = corridor(task).masked;
    if (siblings.empty()) return std::nullopt;
    IntMatrix masked = health;
    for (const Rect& band : siblings)
      for_each_cell_outside(band, chip_.bounds(),
                            {pos, plan.start_funnel, plan.goal_funnel},
                            [&](int x, int y) { masked(x, y) = 0; });
    return masked;
  }

  /// The corridor mask made replica @p task's synthesis infeasible (the band
  /// may have degraded underneath the droplet): it routes over the plain
  /// view from here, recorded as best-effort disjointness.
  void drop_mask(const RouteTask& task) {
    fate(task).mask_dropped = true;
    ++journal_.stats.replica.best_effort_masks;
    journal_.event("replica", "mask-degraded", task.rj.mo,
                   "corridor mask infeasible for replica " +
                       std::to_string(task.replica) +
                       "; best-effort disjointness from here");
  }

  /// Ladder rung between quarantine and per-job abort: abandons replica
  /// @p task of @p run, whose retries ran out. Its droplet joins @p doomed
  /// and its siblings race on. True once every replica of the MO is lost,
  /// which escalates to the graceful abort.
  bool fail_over(MoRun& run, RouteTask& task,
                 std::vector<DropletId>& doomed) {
    if (fate(task).abandoned) return false;
    fate(task).abandoned = true;
    Group& g = group(task.rj.mo);
    const auto remain = std::ssize(g.plan.corridors) -
                        std::ranges::count(g.fates, true, &Fate::abandoned);
    ++journal_.stats.replica.failovers;
    journal_.event(RecoveryAction::kReplicaFailover, task.rj.mo,
                   "replica " + std::to_string(task.replica) +
                       " abandoned after " + std::to_string(task.retries) +
                       " attempt(s); " + std::to_string(remain) + " remain");
    lose(run, task, "abandoned", doomed);
    return remain <= 0;
  }

  /// The k = 1 of N vote: @p winner arrived first and completes its MO;
  /// every other surviving replica of @p run loses, and its droplet joins
  /// @p doomed.
  void vote(MoRun& run, RouteTask& winner, std::vector<DropletId>& doomed) {
    const Group& g = group(winner.rj.mo);
    ++journal_.stats.replica.merges;
    journal_.event("replica", "merge", winner.rj.mo,
                   "replica " + std::to_string(winner.replica) +
                       " arrived first of " + std::to_string(g.fates.size()) +
                       "; MO completes (k = 1 of " +
                       std::to_string(g.plan.corridors.size()) + ")");
    seal(winner, /*winner=*/true);
    for (RouteTask& task : run.routes) {
      if (&task == &winner || abandoned(task)) continue;
      ++journal_.stats.replica.retired;
      lose(run, task, "retired", doomed);
      journal_.event("replica", "retire", task.rj.mo,
                     "replica " + std::to_string(task.replica) +
                         " lost the vote; discarded");
    }
  }

  /// Seals replica @p task's outcome record, once; no-op for plain routes.
  void seal(const RouteTask& task, bool winner) {
    if (task.replica < 0 || fate(task).sealed) return;
    fate(task).sealed = true;
    const ReplicaCorridorPlan& plan = group(task.rj.mo).plan;
    journal_.stats.replica_routes.push_back(ReplicaRouteRecord{
        task.rj.mo, task.replica, winner, fate(task).abandoned,
        !plan.disjoint || fate(task).mask_dropped, corridor(task).band,
        plan.start_funnel, plan.goal_funnel});
  }

 private:
  /// One replica's fate.
  struct Fate {
    bool mask_dropped = false;  ///< routes unmasked after an infeasible mask
    bool abandoned = false;     ///< failed over; no longer commanded
    bool sealed = false;        ///< ReplicaRouteRecord already written
  };
  /// One MO's replicas.
  struct Group {
    bool critical = false;     ///< a dispense feeding a mix/dilute
    ReplicaCorridorPlan plan;  ///< one corridor per planned replica
    std::vector<Fate> fates;   ///< the replicas launched, by index
  };

  Group& group(int mo) { return groups_[static_cast<std::size_t>(mo)]; }
  Fate& fate(const RouteTask& task) {
    return group(task.rj.mo).fates[static_cast<std::size_t>(task.replica)];
  }
  const ReplicaCorridor& corridor(const RouteTask& task) {
    return group(task.rj.mo)
        .plan.corridors[static_cast<std::size_t>(task.replica)];
  }

  /// Takes losing replica @p task off @p run: charges its chip cycles,
  /// seals its record, closes its span as @p outcome and dooms its droplet.
  void lose(MoRun& run, RouteTask& task, std::string_view outcome,
            std::vector<DropletId>& doomed) {
    journal_.stats.replica.droplet_cycles += chip_.cycle() - task.created_cycle;
    seal(task, /*winner=*/false);
    task.end_span(outcome, chip_.cycle());
    doomed.push_back(task.droplet);
    std::erase(run.live, task.droplet);
  }

  const SchedulerConfig& config_;
  BiochipIo& chip_;
  Journal& journal_;
  std::vector<Group> groups_;  ///< by MO id
};

/// What a watchdog-confirmed stall is blocked by (satellite classifier).
enum class StallKind : unsigned char {
  kContention,  ///< another droplet sits on / next to the target cells
  kDeadCells,   ///< the target cells read dead in the controller's view
  kUnknown,     ///< cells read healthy and no droplet nearby (lying cells)
};

/// Event name and metrics counter of each StallKind, in order.
constexpr std::pair<const char*, const char*> kStallNames[] = {
    {"blocked-by-droplet", "sched.stalls_contention"},
    {"blocked-by-dead-cells", "sched.stalls_dead_cells"},
    {"blocked-unknown", "sched.stalls_unknown"},
};

/// Per-execution driver implementing Algorithm 3 plus the recovery ladder:
/// one loop owns the cycle, runs every active MO's step list, and advances
/// the routes those steps start.
class Runner {
 public:
  Runner(const SchedulerConfig& config, StrategyLibrary& library,
         BiochipIo& chip, const MoList& assay_list)
      : config_(config),
        library_(library),
        chip_(chip),
        chip_bounds_(chip.bounds()),
        synthesizer_(chip.bounds(), config.synthesis),
        outputs_(assay::compute_outputs(assay_list)),
        journal_{chip, chip.cycle(), {}},
        health_(config, chip, journal_),
        replicas_(config, assay_list, chip, journal_) {
    runs_.reserve(assay_list.ops.size());
    for (const Mo& mo : assay_list.ops) {
      runs_.emplace_back(mo, program(mo.type, replicas_.degree(mo) > 1));
      journal_.stats.mo_timings.push_back(MoTiming{.mo = mo.id});
    }
  }

  ExecutionStats execute() {
    MEDA_OBS_SPAN(run_span, "sched", "execute");
    ExecutionStats& stats = journal_.stats;
    while (!failure_ && !all_settled()) {
      if (journal_.now() >= config_.max_cycles) {
        failure_ = "cycle limit exceeded";
        break;
      }
      {
        MEDA_OBS_SPAN(cycle_span, "sched", "cycle");
        health_.refresh(/*forced=*/false);
        std::vector<Command> commands;
        for (MoRun& run : runs_) {
          if (failure_) break;
          if (run.state == MoRun::State::kWaiting) try_activate(run);
          if (run.state == MoRun::State::kActive) process(run, commands);
        }
        handed_.clear();  // settles what no route adopted: none outlives it
        if (failure_) break;
        finalize_aborts(commands);
        chip_.step(commands);
      }
      sample_cycle_counters();
    }
    for (MoRun& run : runs_)  // cycle-limit / hard-fail leftovers
      release_routes(run, "unfinished");
    stats.cycles = journal_.now();
    for (const MoRun& run : runs_) {
      if (run.state == MoRun::State::kDone) ++stats.completed_mos;
      if (run.state == MoRun::State::kAborted) ++stats.aborted_mos;
    }
    stats.success = !failure_ && stats.completed_mos == std::ssize(runs_);
    if (failure_)
      stats.failure_reason = *failure_;
    else if (!stats.success && !abort_reasons_.empty())
      stats.failure_reason = std::to_string(abort_reasons_.size()) +
                             " job(s) aborted — first: " +
                             abort_reasons_.front();
    record_run_metrics(run_span);
    return stats;
  }

  /// End-of-run roll-up into the metrics registry plus execute-span args.
  template <typename Span>
  void record_run_metrics(Span& span) {
    if (!MEDA_OBS_ACTIVE()) return;
    const ExecutionStats& stats = journal_.stats;
    span.arg("cycles", static_cast<std::int64_t>(stats.cycles));
    span.arg("success", static_cast<std::int64_t>(stats.success ? 1 : 0));
    span.arg("synthesis_calls",
             static_cast<std::int64_t>(stats.synthesis_calls));
    span.arg("resyntheses", static_cast<std::int64_t>(stats.resyntheses));
    span.arg("resyntheses_warm",
             static_cast<std::int64_t>(stats.resyntheses_warm));
    span.arg("resyntheses_certified",
             static_cast<std::int64_t>(stats.resyntheses_certified));
    MEDA_OBS_COUNT("sched.runs", 1);
    if (stats.success) MEDA_OBS_COUNT("sched.successes", 1);
    MEDA_OBS_COUNT("sched.cycles", stats.cycles);
    MEDA_OBS_COUNT("sched.synthesis_calls",
                   static_cast<std::uint64_t>(stats.synthesis_calls));
    MEDA_OBS_COUNT("sched.library_hits",
                   static_cast<std::uint64_t>(stats.library_hits));
    MEDA_OBS_COUNT("sched.resyntheses",
                   static_cast<std::uint64_t>(stats.resyntheses));
    MEDA_OBS_COUNT("sched.resyntheses_warm",
                   static_cast<std::uint64_t>(stats.resyntheses_warm));
    MEDA_OBS_COUNT("sched.resyntheses_certified",
                   static_cast<std::uint64_t>(stats.resyntheses_certified));
    MEDA_OBS_COUNT("sched.completed_mos",
                   static_cast<std::uint64_t>(stats.completed_mos));
    MEDA_OBS_COUNT("sched.aborted_mos",
                   static_cast<std::uint64_t>(stats.aborted_mos));
    MEDA_OBS_OBSERVE("sched.run_cycles", static_cast<double>(stats.cycles),
                     obs::kPow2Buckets);
    const auto count = [](std::string prefix) {
      return [prefix = std::move(prefix)]([[maybe_unused]] const char* field,
                                          [[maybe_unused]] auto value) {
        MEDA_OBS_COUNT(prefix + field, static_cast<std::uint64_t>(value));
      };
    };
    RecoveryCounters::for_each_field(count("recovery."), stats.recovery);
    ReplicaCounters::for_each_field(count("replica."), stats.replica);
  }

  /// Samples the cycle-domain counter tracks (droplets on chip, in-flight
  /// syntheses) once per operational cycle while tracing is enabled.
  void sample_cycle_counters() {
    if (!MEDA_OBS_ACTIVE()) return;
    obs::Tracer& tracer = obs::ctx().tracer();
    if (!tracer.enabled()) return;
    const std::uint64_t cycle = journal_.now();
    std::int64_t pending = 0;
    for (const MoRun& run : runs_)
      pending += std::ranges::count(run.routes, true, &RouteTask::pending);
    tracer.cycle_counter("droplets_on_chip", std::ssize(droplets_on_chip()),
                         cycle);
    tracer.cycle_counter("pending_syntheses", pending, cycle);
    tracer.cycle_counter("health_changes", health_.changes(), cycle);
  }

 private:
  /// True when every MO has finished or gracefully aborted.
  bool all_settled() const {
    return std::all_of(runs_.begin(), runs_.end(), [](const MoRun& r) {
      return r.state == MoRun::State::kDone ||
             r.state == MoRun::State::kAborted;
    });
  }

  // ---- The MO lifecycle: activation, the step interpreter, completion and
  // abort.

  void try_activate(MoRun& run) {
    for (const assay::PreRef& ref : run.mo->pre) {
      const MoRun::State s = runs_[static_cast<std::size_t>(ref.mo)].state;
      if (s == MoRun::State::kWaiting || s == MoRun::State::kActive) return;
    }
    for (const assay::PreRef& ref : run.mo->pre) {
      MoRun& pre = runs_[static_cast<std::size_t>(ref.mo)];
      if (pre.state != MoRun::State::kDone) continue;
      MEDA_ASSERT(ref.out < std::ssize(pre.live), "predecessor output missing");
      run.live.push_back(std::exchange(
          pre.live[static_cast<std::size_t>(ref.out)], MoRun::kTaken));
    }
    // Cascade: inputs produced by completed predecessors can never be
    // consumed; the abort removes them from the chip.
    if (run.live.size() < run.mo->pre.size()) {
      abort_job(run, "predecessor aborted");
      return;
    }
    run.state = MoRun::State::kActive;
    journal_.stats.mo_timings[static_cast<std::size_t>(run.mo->id)]
        .activated = journal_.now();
  }

  /// Runs @p run's steps for one cycle, by the step rule: dispense, merge,
  /// split and a route's arrival each end the MO's cycle, while a hold that
  /// reads 0 and a discard complete without using it, so the next step runs
  /// at once. A route step starts its routes and advances them in the same
  /// cycle. The MO finishes in the cycle its last step completes.
  void process(MoRun& run, std::vector<Command>& commands) {
    for (;;) {
      const Step& step = run.steps[run.step];
      if (!run_step(run, step, commands) || failure_ ||
          run.state != MoRun::State::kActive)
        return;
      if (++run.step == run.steps.size()) {
        finish(run);
        return;
      }
      run.hold_remaining = run.mo->hold_cycles;
      if (step.kind != Step::kHold && step.kind != Step::kDiscard) return;
    }
  }

  /// Runs one step of @p run for this cycle; true when the step completed.
  bool run_step(MoRun& run, const Step& step, std::vector<Command>& commands) {
    const Mo& mo = *run.mo;
    const std::vector<Rect>& outputs =
        outputs_[static_cast<std::size_t>(mo.id)];
    const auto at_loc = [&](DropletId d) {
      return assay::placed_rect(mo.locs[0], chip_.droplet_position(d).area());
    };
    switch (step.kind) {
      case Step::kDispense: {
        const Rect entry = dispense_entry_rect(outputs[0], chip_bounds_);
        if (!chip_.location_clear(entry)) return false;  // port busy
        const DropletId d = chip_.dispense(entry);
        run.live = {d};
        run.routes = {make_route(mo.id, d, outputs[0])};
        run.routed = run.step + 1;  // the route step after this one drives it
        return true;
      }
      case Step::kRoute:
        if (run.routed != run.step) {
          run.routes.clear();
          for (std::size_t k = 0; k < run.live.size(); ++k) {
            if (step.slot != Step::kEach &&
                k != static_cast<std::size_t>(step.slot))
              continue;
            const DropletId d = run.live[k];
            run.routes.push_back(
                make_route(mo.id, d, step.to_loc ? at_loc(d) : outputs[k]));
          }
          run.routed = run.step;
        }
        return advance_routes(run, commands);
      case Step::kMerge: {
        // All of the MO's droplets move concurrently (Algorithm 3); the
        // partnered routes end at contact, not at their goals.
        const DropletId a = run.live[0];
        const DropletId b = run.live[1];
        if (run.routed != run.step) {
          run.routes = {make_route(mo.id, a, at_loc(a), /*partner=*/b),
                        make_route(mo.id, b, at_loc(b), /*partner=*/a)};
          run.routed = run.step;
        }
        const Rect pa = chip_.droplet_position(a);
        const Rect pb = chip_.droplet_position(b);
        if (pa.manhattan_gap(pb) <= 1) {
          // Hold in contact while the merged droplet would touch a third,
          // unless that droplet can only leave after this MO finishes.
          // A droplet doomed this cycle stays on the chip until the cycle
          // ends, so it blocks the site as well.
          const Rect site = merge_site(pa, pb);
          const auto near_site = [&](const Rect& r) {
            return r.manhattan_gap(site) < 2;
          };
          if (std::ranges::any_of(other_droplets(a, b), near_site) ||
              std::ranges::any_of(doomed_, [&](DropletId d) {
                return near_site(chip_.droplet_position(d));
              })) {
            if (const Mo* parker = parked_for_good(run, site)) {
              const std::string reason =
                  "merge site " + site.to_string() + " blocked by MO " +
                  std::to_string(parker->id) +
                  "'s output, which waits for this MO";
              if (config_.recovery.enabled)
                abort_job(run, reason);
              else
                failure_ = "MO " + std::to_string(mo.id) + ": " + reason;
              return false;
            }
            if (!std::exchange(run.merge_waited, true))
              journal_.event("merge", "wait", mo.id,
                             "site " + site.to_string() + " near a droplet");
            return false;
          }
          for (RouteTask& task : run.routes)
            task.end_span("merged", chip_.cycle());
          run.live = {chip_.merge(a, b, site)};
          return true;
        }
        advance_routes(run, commands);
        return false;
      }
      case Step::kSplit: {
        const Rect pos = chip_.droplet_position(run.live[0]);
        const int area = pos.area();
        const auto [r0, r1] =
            split_rects(pos, (area + 1) / 2, area / 2, chip_bounds_);
        if (!chip_.split_clear(run.live[0], r0, r1)) return false;
        const auto [p0, p1] = chip_.split(run.live[0], r0, r1);
        run.live = {p0, p1};
        return true;
      }
      case Step::kHold:
        if (run.hold_remaining == 0) return true;
        --run.hold_remaining;  // droplet held (and actuated) in place
        return false;
      case Step::kDiscard:
        for (const DropletId d : run.live) chip_.discard(d);  // via the edge
        run.live.clear();
        return true;
      case Step::kReplicate:
        return replicated_dispense(run, commands);
    }
    return false;
  }

  /// Advances every route of @p run one cycle; true when all have arrived.
  bool advance_routes(MoRun& run, std::vector<Command>& commands) {
    hand_off_later_route(run);
    bool arrived = true;
    for (RouteTask& task : run.routes) {
      arrived = advance_route(run, task, commands) && arrived;
      if (failure_ || run.state != MoRun::State::kActive) return false;
    }
    return arrived;
  }

  /// A replicated dispense (effective N > 1): the corridors are planned on
  /// the first visit, then one replica launches per cycle through the
  /// shared port while the live ones race. The first arrival completes the
  /// MO (k = 1 of N vote); the losers leave the chip at the end of the cycle.
  bool replicated_dispense(MoRun& run, std::vector<Command>& commands) {
    const Mo& mo = *run.mo;
    const Rect goal = outputs_[static_cast<std::size_t>(mo.id)][0];
    const Rect entry = dispense_entry_rect(goal, chip_bounds_);
    // Launch at most one replica per cycle — the dispense port is shared.
    int just_launched = -1;
    if (replicas_.launching(mo, entry, goal) && chip_.location_clear(entry)) {
      const DropletId d = chip_.dispense(entry);
      run.live.push_back(d);
      RouteTask task = make_route(mo.id, d, goal);
      replicas_.launch(task);
      just_launched = task.replica;
      run.routes.push_back(std::move(task));
    }
    for (RouteTask& task : run.routes) {
      // Dispensing used the new replica's cycle.
      if (task.replica == just_launched || replicas_.abandoned(task)) continue;
      const bool arrived = advance_route(run, task, commands);
      if (failure_ || run.state != MoRun::State::kActive) return false;
      if (arrived) {
        replicas_.vote(run, task, doomed_);
        return true;
      }
    }
    return false;
  }

  void finish(MoRun& run) {
    release_routes(run, "finished");
    run.state = MoRun::State::kDone;
    MoTiming& timing =
        journal_.stats.mo_timings[static_cast<std::size_t>(run.mo->id)];
    timing.completed = journal_.now();
    timing.done = true;
  }

  /// Gracefully aborts one MO: its droplets are scheduled for discard at the
  /// end of the cycle and its dependents cascade-abort on activation.
  void abort_job(MoRun& run, const std::string& reason) {
    if (run.state == MoRun::State::kAborted) return;
    run.state = MoRun::State::kAborted;
    ++journal_.stats.recovery.aborted_jobs;
    abort_reasons_.push_back("MO " + std::to_string(run.mo->id) + ": " +
                             reason);
    journal_.event(RecoveryAction::kJobAbort, run.mo->id, reason);
    doomed_.insert(doomed_.end(), run.live.begin(), run.live.end());
    run.live.clear();
  }

  /// Executes the deferred discards of aborted jobs, abandoned replicas and
  /// vote losers: strips commands addressed to doomed droplets, removes the
  /// droplets from the chip, and releases aborted runs' routes.
  void finalize_aborts(std::vector<Command>& commands) {
    if (doomed_.empty()) return;
    std::erase_if(commands, [this](const Command& c) {
      return std::find(doomed_.begin(), doomed_.end(), c.droplet) !=
             doomed_.end();
    });
    for (const DropletId id : doomed_) chip_.discard(id);
    doomed_.clear();
    for (MoRun& run : runs_)
      if (run.state == MoRun::State::kAborted) release_routes(run, "aborted");
  }

  /// Seals and closes every route of @p run as @p outcome, then drops them.
  void release_routes(MoRun& run, std::string_view outcome) {
    for (RouteTask& task : run.routes) {
      replicas_.seal(task, /*winner=*/false);
      task.end_span(outcome, chip_.cycle());
    }
    run.routes.clear();
  }

  /// The finished MO that parks an output within one cell of @p run's merge
  /// site @p site for a consumer that cannot start before @p run finishes,
  /// so that the merge would wait for good; nullptr if none.
  const Mo* parked_for_good(const MoRun& run, const Rect& site) const {
    for (const MoRun& parker : runs_) {
      if (parker.state != MoRun::State::kDone) continue;
      for (std::size_t k = 0; k < parker.live.size(); ++k) {
        const DropletId d = parker.live[k];
        if (d == MoRun::kTaken ||
            chip_.droplet_position(d).manhattan_gap(site) >= 2)
          continue;
        const assay::PreRef out{parker.mo->id, static_cast<int>(k)};
        for (const MoRun& consumer : runs_)
          if (std::ranges::find(consumer.mo->pre, out) !=
                  consumer.mo->pre.end() &&
              waits_for(*consumer.mo, run.mo->id))
            return parker.mo;
      }
    }
    return nullptr;
  }

  /// True when @p mo takes an input from MO @p id, directly or through its
  /// predecessors, and so cannot start before @p id finishes.
  bool waits_for(const Mo& mo, int id) const {
    return std::ranges::any_of(mo.pre, [&](const assay::PreRef& ref) {
      return ref.mo == id ||
             waits_for(*runs_[static_cast<std::size_t>(ref.mo)].mo, id);
    });
  }

  /// Where two partnered droplets at @p pa and @p pb merge: the pattern of
  /// their joint area centered on the contact centroid, clamped to the chip.
  Rect merge_site(const Rect& pa, const Rect& pb) const {
    const Rect box = pa.union_with(pb);
    const assay::DropletSize size = assay::size_for_area(pa.area() + pb.area());
    return clamp_into(
        Rect::from_center(box.center_x(), box.center_y(), size.w, size.h),
        chip_bounds_);
  }

  // ---- Route advancement: one routing job per droplet, its strategy kept
  // current by ensure_strategy and its stalls handled by the ladder.

  /// Creates a routing job for @p droplet from its current position.
  RouteTask make_route(int mo_id, DropletId droplet, const Rect& goal,
                       DropletId partner = -1) {
    RouteTask task;
    task.rj.start = chip_.droplet_position(droplet);
    task.rj.goal = goal;
    task.rj.hazard = assay::zone(task.rj.start, goal, chip_bounds_);
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
    return task.partner >= 0 ? goal_gap(task, pos) <= 1
                             : task.rj.goal.contains(pos);
  }

  /// Advances one route by one cycle. Returns true when the droplet has
  /// arrived (no command emitted); otherwise commands the droplet, with an
  /// action or a hold, unless the execution failed or the MO aborted.
  bool advance_route(MoRun& run, RouteTask& task,
                     std::vector<Command>& commands) {
    if (route_arrived(task)) {
      if (!task.recorded && task.first_expected_cycles >= 0.0) {
        journal_.stats.routes.push_back(
            RouteRecord{task.rj.mo, task.first_expected_cycles,
                        chip_.cycle() - task.created_cycle});
        task.recorded = true;
      }
      task.end_span("arrived", chip_.cycle());
      return true;
    }
    const std::optional<Action> action = next_action(run, task);
    if (!failure_ && run.state == MoRun::State::kActive)
      commands.push_back(Command{task.droplet, action, task.partner});
    return false;
  }

  /// The action that moves @p task's droplet this cycle, or nullopt to hold
  /// it in place.
  std::optional<Action> next_action(MoRun& run, RouteTask& task) {
    const Rect pos = chip_.droplet_position(task.droplet);
    // Parked at the mixer waiting for the partner to make contact.
    if (task.partner >= 0 && task.rj.goal.contains(pos)) return std::nullopt;

    // Ladder backoff: hold in place while waiting out a failed synthesis.
    if (task.backoff_remaining > 0) {
      --task.backoff_remaining;
      ++journal_.stats.recovery.backoff_cycles;
      return std::nullopt;
    }

    if (config_.recovery.enabled) watch(run, task, pos);

    // Reactive error recovery (retrial-based, Section II-C): once the
    // droplet has been stuck long enough, drop the strategy and request one
    // re-route from the sensed health (ensure_strategy serves it).
    if (config_.reactive_recovery_stuck_cycles > 0 && !config_.adaptive &&
        task.still.fires(pos, config_.reactive_recovery_stuck_cycles)) {
      task.drop_strategy();
      task.reroute_once = true;
    }

    ensure_strategy(run, task, pos);
    // Synthesis still pending (or backing off): hold in place.
    if (failure_ || run.state != MoRun::State::kActive || !task.has_strategy)
      return std::nullopt;

    std::optional<Action> action = task.strategy.action(pos);
    if (!action) {
      // The droplet drifted off the synthesized region (can happen after a
      // strategy swap); force a fresh synthesis from the current state.
      task.drop_strategy();
      ensure_strategy(run, task, pos);
      if (failure_ || run.state != MoRun::State::kActive) return std::nullopt;
      if (task.has_strategy) action = task.strategy.action(pos);
    }
    // Without an action while the ladder already took over (a retry is
    // scheduled), the droplet holds meanwhile.
    if (action || task.backoff_remaining > 0 || !task.has_strategy)
      return action;
    if (config_.recovery.enabled) {
      on_synthesis_failure(run, task);
    } else {
      failure_ = "strategy does not cover the droplet state for MO " +
                 std::to_string(task.rj.mo);
    }
    return std::nullopt;
  }

  /// Ladder watchdog: a commanded droplet that stops making progress
  /// triggers a forced re-sense + strategy drop; repeated firings escalate
  /// to quarantining the cells it keeps failing to enter. A stall
  /// attributable to another live droplet (contention) instead requests a
  /// droplet-avoiding re-synthesis — quarantining perfectly healthy cells
  /// just because a neighbour parked on them would permanently shrink the
  /// routable chip.
  ///
  /// The stall detector is a progress-rate watchdog: it fires when an EWMA
  /// of Manhattan progress toward the goal frontier decays below
  /// kMinProgressRate. An end-of-life chip where pulls still land every
  /// few cycles keeps a healthy rate and is left to crawl, while a true
  /// stall decays to zero.
  void watch(MoRun& run, RouteTask& task, const Rect& pos) {
    if (!task.has_strategy) {
      task.last_goal_gap = -1;  // no commanded strategy: not stalling
      return;
    }
    const int gap = goal_gap(task, pos);
    if (task.last_goal_gap >= 0) {
      // Movement that does not approach the goal (a detour leg, a morph)
      // still proves the droplet responds; credit it so only genuine
      // unresponsiveness decays the rate.
      constexpr double kMovementCredit = 0.25;
      double observed =
          std::max(0.0, static_cast<double>(task.last_goal_gap - gap));
      if (pos != task.watch_pos) observed = std::max(observed, kMovementCredit);
      task.progress_rate = (1.0 - kProgressAlpha) * task.progress_rate +
                           kProgressAlpha * observed;
    }
    const bool fired = task.last_goal_gap >= 0 &&
                       task.progress_rate < kMinProgressRate;
    // A first reading, or a firing, starts a fresh grace period.
    if (task.last_goal_gap < 0 || fired) task.progress_rate = 1.0;
    task.last_goal_gap = fired ? -1 : gap;
    if (pos != task.watch_pos)
      task.contention_detours = 0;  // movement resets the detour budget
    task.watch_pos = pos;
    if (!fired) return;

    ++task.watchdog_count;
    ++journal_.stats.recovery.watchdog_fires;
    journal_.event(RecoveryAction::kWatchdogResense, task.rj.mo,
                   "droplet stuck at " + pos.to_string());
    health_.refresh(/*forced=*/true);
    const StallKind kind = classify_stall(task, pos);
    const auto& names = kStallNames[static_cast<std::size_t>(kind)];
    journal_.event("stall", names.first, task.rj.mo,
                   "stuck at " + pos.to_string());
    MEDA_OBS_COUNT(names.second, 1);
    if (kind == StallKind::kContention &&
        task.contention_detours < kMaxContentionDetours) {
      ++task.contention_detours;
      ++journal_.stats.recovery.contention_detours;
      task.watchdog_count = 0;  // contention must not reach quarantine
      journal_.event(RecoveryAction::kContentionDetour, task.rj.mo,
                     "re-routing around droplet near " + pos.to_string());
      task.avoid_droplets_once = true;
    } else if (task.watchdog_count >=
               config_.recovery.quarantine_after_watchdogs) {
      task.watchdog_count = 0;
      // Quarantine the cells the droplet keeps failing to enter: the router
      // must then plan around them even though they may still read healthy.
      const int added = health_.quarantine(attempt_frontier(task, pos), pos);
      if (added > 0)
        journal_.event(RecoveryAction::kQuarantine, run.mo->id,
                       std::to_string(added) + " cell(s) blocking " +
                           pos.to_string());
    }
    task.drop_strategy();
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

  /// The droplet registry: every droplet on the chip, MO by MO, a finished
  /// MO's parked outputs included.
  std::vector<DropletId> droplets_on_chip() const {
    std::vector<DropletId> ids;
    for (const MoRun& run : runs_)
      for (const DropletId id : run.live)
        if (id != MoRun::kTaken) ids.push_back(id);
    return ids;
  }

  /// Where every droplet on the chip other than @p a and @p b sits.
  std::vector<Rect> other_droplets(DropletId a, DropletId b) const {
    std::vector<Rect> others;
    for (const DropletId id : droplets_on_chip())
      if (id != a && id != b) others.push_back(chip_.droplet_position(id));
    return others;
  }

  /// Droplet-aware stall classification (on watchdog escalation): is the
  /// droplet blocked by another droplet on the chip on / next to its target
  /// cells, by cells the controller's view already reads dead, or by cells
  /// that read healthy but do not respond (lying cells)?
  StallKind classify_stall(const RouteTask& task, const Rect& pos) const {
    const Rect target = attempt_frontier(task, pos);
    // The separation rule blocks entry when the other droplet is on the
    // target cells or directly adjacent to them.
    for (const Rect& other : other_droplets(task.droplet, task.partner))
      if (other.manhattan_gap(target) <= 1) return StallKind::kContention;
    const IntMatrix& health = health_.view();
    bool dead = false;
    if (!health.empty())
      for_each_cell_outside(target, chip_bounds_, {pos}, [&](int x, int y) {
        dead = dead || health(x, y) == 0;
      });
    return dead ? StallKind::kDeadCells : StallKind::kUnknown;
  }

  /// @p base with every *other* droplet's footprint (inflated by the
  /// separation margin) masked dead: a virtual obstacle map for contention
  /// detours. The stuck droplet's own cells are never masked.
  IntMatrix droplet_masked_health(const RouteTask& task, const Rect& pos,
                                  const IntMatrix& base) const {
    IntMatrix masked = base;
    for (const Rect& other : other_droplets(task.droplet, task.partner))
      for_each_cell_outside(other.inflated(1), chip_bounds_, {pos},
                            [&](int x, int y) { masked(x, y) = 0; });
    return masked;
  }

  /// Ladder stage: an infeasible synthesis. Bounded retries with
  /// exponential backoff and a forced re-sense; then the replica-failover
  /// rung for replicated droplets, graceful job abort otherwise.
  void on_synthesis_failure(MoRun& run, RouteTask& task) {
    ++task.retries;
    ++journal_.stats.recovery.synthesis_retries;
    if (task.retries > kMaxSynthesisRetries) {
      if (task.replica >= 0) {
        // Per-replica budget exhausted: abandon this replica and let its
        // siblings race on — only all-replica failure aborts the MO.
        fail_over(run, task);
        return;
      }
      abort_job(run, "no feasible strategy after " +
                         std::to_string(task.retries) + " attempts");
      return;
    }
    journal_.event(RecoveryAction::kSynthesisRetry, task.rj.mo,
                   "attempt " + std::to_string(task.retries) + "/" +
                       std::to_string(kMaxSynthesisRetries));
    task.backoff_remaining = kBackoffBaseCycles << (task.retries - 1);
    journal_.event(RecoveryAction::kBackoff, task.rj.mo,
                   std::to_string(task.backoff_remaining) + " cycle(s)");
    // Fresh information for the retry.
    health_.refresh(/*forced=*/true);
  }

  /// Hands replica @p task, whose retries ran out, to the failover rung; the
  /// MO aborts once none of its replicas is left.
  void fail_over(MoRun& run, RouteTask& task) {
    if (replicas_.fail_over(run, task, doomed_))
      abort_job(run, "all " + std::to_string(replicas_.degree(*run.mo)) +
                         " replicas failed");
  }

  // ---- Concurrent provisioning: a merge's or a split's two first routes
  // synthesize at once, the later one on a helper thread.

  /// When both routes of @p run ask for their first strategy this cycle,
  /// hands the later one's synthesis to a helper thread, so that it runs
  /// while the route loop synthesizes the first. The helper makes exactly
  /// the call ensure_strategy would; adopt_handed takes the result only if
  /// nothing that call reads has changed by then.
  void hand_off_later_route(const MoRun& run) {
    if (!config_.adaptive || util::helper_count() == 0 ||
        run.routes.size() != 2 || !starts_now(run.routes[0]) ||
        !starts_now(run.routes[1]))
      return;
    const RouteTask& later = run.routes[1];
    RoutingJob rj = later.rj;
    rj.start = chip_.droplet_position(later.droplet);
    handed_.push_back(std::make_unique<Handed>(
        synthesizer_, later.droplet, rj, health_.version(), health_.view(),
        chip_.health_bits(), config_.synthesis_latency_cycles == 0));
  }

  /// True when @p task will synthesize its first strategy over the plain
  /// view this cycle: it has none, no ladder or detour state, and its
  /// droplet neither arrived nor parks for its partner.
  bool starts_now(const RouteTask& task) const {
    if (task.has_strategy || task.pending || task.resynth.valid ||
        task.replica >= 0 || task.backoff_remaining > 0 ||
        task.avoid_droplets_once || task.reroute_once || route_arrived(task))
      return false;
    return task.partner < 0 ||
           !task.rj.goal.contains(chip_.droplet_position(task.droplet));
  }

  /// The synthesis a helper ran for @p task, when it read exactly what
  /// ensure_strategy is about to synthesize from: the job @p rj with a fresh
  /// context over the current view, in the plain family. Commits what the
  /// helper recorded and hands the context over. nullopt when the inputs
  /// changed or no helper started the work; the caller then synthesizes
  /// itself, and what the helper recorded is dropped.
  std::optional<Provision> adopt_handed(RouteTask& task, const RoutingJob& rj,
                                        DigestClass digest_class) {
    const auto it = std::ranges::find(handed_, task.droplet,
                                      [](const auto& h) { return h->droplet; });
    if (it == handed_.end() || digest_class != DigestClass::kPlain ||
        task.resynth.valid || (*it)->rj != rj ||
        (*it)->view_version != health_.version())
      return std::nullopt;
    const std::unique_ptr<Handed> handed = std::move(*it);
    handed_.erase(it);
    if (!handed->handoff.settle()) return std::nullopt;
    handed->capture.commit();
    task.resynth = std::move(handed->ctx);
    return std::move(handed->out);
  }

  /// Retrieves / synthesizes / re-synthesizes the task's strategy
  /// (Algorithm 3 lines 11-16 plus the hybrid re-synthesis rule): the one
  /// provisioning chain of library lookup and synthesis, for contention
  /// detours and reactive re-routes too.
  void ensure_strategy(MoRun& run, RouteTask& task, const Rect& pos) {
    // Adopt a finished asynchronous synthesis.
    if (task.pending) {
      // Keep executing the previous strategy meanwhile.
      if (--task.pending_countdown > 0) return;
      task.strategy = std::move(task.pending_strategy);
      task.digest = task.pending_digest;
      task.has_strategy = true;
      task.pending = false;
    }

    // A droplet can end up just outside its original zone (strategy swaps
    // and sampled outcomes both move it between syntheses); widen the
    // search bound so the re-anchored synthesis stays well-formed.
    if (!task.rj.hazard.contains(pos))
      task.rj.hazard = task.rj.hazard.union_with(pos);

    // A replica synthesizes over its corridor-masked view. The digest is
    // taken over the *masked* view, so the band geometry is folded into
    // both the re-synthesis trigger and the library key.
    const IntMatrix& health = health_.view();
    const std::optional<IntMatrix> replica_health =
        replicas_.masked_view(task, pos, health);
    const IntMatrix& view = replica_health ? *replica_health : health;
    const std::uint64_t digest =
        replica_health || config_.adaptive ? health_digest(view, task.rj.hazard)
                                           : 0;
    if (task.has_strategy && digest == task.digest) return;

    // One-shot requests, consumed success or not: a contention detour and a
    // reactive re-route both synthesize afresh from the sensed view.
    const bool avoid_droplets = task.avoid_droplets_once && !health.empty();
    const bool reroute = task.reroute_once;
    task.avoid_droplets_once = false;
    task.reroute_once = false;
    if (task.has_strategy || reroute) ++journal_.stats.resyntheses;

    RoutingJob rj = task.rj;
    rj.start = pos;  // re-anchor at the droplet's current location

    SynthesisResult result;
    // Contention detours synthesize against the droplet-masked health view.
    // They are cached under a position-keyed digest: hashing the *masked*
    // view folds the avoid-rectangles (the other droplets' inflated
    // footprints) into the key, so a detour entry can only be served when
    // the same obstacles sit in the same places — no poisoning of the
    // unmasked entries, which stay in the plain family (the library key
    // holds the family, see core/library.hpp). For replicas the droplet
    // mask is applied on top of the corridor mask.
    IntMatrix masked_health;
    std::uint64_t lookup_digest = digest;
    if (avoid_droplets) {
      masked_health = droplet_masked_health(task, pos, view);
      lookup_digest = health_digest(masked_health, task.rj.hazard);
    } else if (reroute) {
      // A baseline re-route is keyed by the sensed health it solves over,
      // while the task keeps the baseline digest 0: the re-routed strategy
      // holds until the droplet gets stuck again.
      lookup_digest = health_digest(health, task.rj.hazard);
    }

    const DigestClass digest_class = avoid_droplets ? DigestClass::kDetour
                                     : replica_health ? DigestClass::kReplica
                                                      : DigestClass::kPlain;
    const SynthesisResult* cached =
        config_.use_library ? library_.lookup(rj, lookup_digest, digest_class)
                            : nullptr;
    if (cached != nullptr) {
      ++journal_.stats.library_hits;
      result = *cached;
    } else {
      if (avoid_droplets || reroute) {
        result = synthesizer_.synthesize(
            rj, avoid_droplets ? masked_health : health, chip_.health_bits());
      } else if (config_.adaptive) {
        // The hot re-synthesis path. First try to certify that a fresh
        // synthesis would return the strategy of the task's last solve on
        // every state the droplet can reach from here. A certified strategy
        // covers only those states, so under modeled latency, where a
        // strategy takes over cycles later from wherever the droplet got to
        // meanwhile, the task re-solves. Re-solving reuses the task's
        // retained model, so a small health delta patches it in place
        // instead of rebuilding the MDP from scratch.
        // A first route may find its synthesis already done on a helper.
        std::optional<Provision> provided =
            adopt_handed(task, rj, digest_class);
        if (!provided)
          provided = provision_adaptive(
              synthesizer_, rj, view, chip_.health_bits(),
              config_.synthesis_latency_cycles == 0, task.resynth);
        journal_.stats.synthesis_seconds += provided->refused_seconds;
        result = std::move(provided->result);
        if (result.warm) ++journal_.stats.resyntheses_warm;
      } else {
        result = synthesizer_.synthesize_with_force(
            rj,
            full_health_force(chip_bounds_.width(), chip_bounds_.height()));
      }
      // A certified result is no model-checker invocation.
      ++(result.certified ? journal_.stats.resyntheses_certified
                          : journal_.stats.synthesis_calls);
      journal_.stats.synthesis_seconds += result.total_seconds;
      if (config_.use_library)
        library_.store(rj, lookup_digest, result, digest_class);
    }

    if (!result.feasible) {
      if (replica_health) {
        // The corridor mask itself made the job infeasible: retry the
        // synthesis unmasked right away instead of burning the ladder.
        replicas_.drop_mask(task);
        task.resynth.valid = false;  // the retained model reflects the mask
        task.has_strategy = false;
        ensure_strategy(run, task, pos);
        return;
      }
      if (config_.recovery.enabled) {
        on_synthesis_failure(run, task);
      } else if (task.replica >= 0) {
        fail_over(run, task);
      } else {
        failure_ = "no feasible routing strategy for MO " +
                   std::to_string(task.rj.mo);
      }
      return;
    }
    task.retries = 0;
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

  const SchedulerConfig& config_;
  StrategyLibrary& library_;
  BiochipIo& chip_;
  const Rect chip_bounds_;
  Synthesizer synthesizer_;
  const std::vector<std::vector<Rect>> outputs_;
  Journal journal_;
  HealthView health_;
  ReplicaSet replicas_;
  std::vector<MoRun> runs_;
  std::optional<std::string> failure_;  ///< set when the execution fails
  std::vector<DropletId> doomed_;  ///< droplets to discard at cycle end
  std::vector<std::string> abort_reasons_;
  std::uint64_t job_serial_ = 0;  ///< async job-span id source
  /// This cycle's handed syntheses no route has adopted yet (last: settled
  /// before the synthesizer and the view they read go).
  std::vector<std::unique_ptr<Handed>> handed_;
};

}  // namespace

Scheduler::Scheduler(SchedulerConfig config, StrategyLibrary* library)
    : config_(config), shared_library_(library) {
  MEDA_REQUIRE(config.replicate_critical_dispenses >= 1 &&
                   config.replicate_critical_dispenses <= assay::kMaxReplicas,
               "replicate_critical_dispenses must be in [1, kMaxReplicas = " +
                   std::to_string(assay::kMaxReplicas) + "]");
}

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
  resyntheses_certified += stats.resyntheses_certified;
  synthesis_seconds += stats.synthesis_seconds;
  recovery += stats.recovery;
  replica += stats.replica;
}

}  // namespace meda::core
