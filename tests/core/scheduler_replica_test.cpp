#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "assay/benchmarks.hpp"
#include "core/scheduler.hpp"
#include "sim/simulated_chip.hpp"
#include "util/check.hpp"

/// @file scheduler_replica_test.cpp
/// N-modular-redundant droplet execution: replica launch, the k = 1 of N
/// vote/merge, region-disjoint corridor routing, the losers' waste routes
/// and the replica-failover rung of the recovery ladder.

namespace meda::core {
namespace {

sim::SimulatedChipConfig chip_config() {
  sim::SimulatedChipConfig config;
  config.chip.width = assay::kChipWidth;
  config.chip.height = assay::kChipHeight;
  return config;
}

/// One dispense MO annotated with the given redundancy degree, placed so
/// its routing zone is thick enough for truly disjoint corridors, plus the
/// output MO that consumes the droplet (validation requires a consumer).
assay::MoList replicated_dispense(int replicas, double cx = 30.0,
                                  double cy = 15.0) {
  assay::AssayBuilder builder("replicated-dispense");
  const int d = builder.dispense(cx, cy, 16);
  builder.output({d, 0}, 55.0, cy);
  assay::MoList list = std::move(builder).build();
  list.ops[static_cast<std::size_t>(d)].replicas = replicas;
  return list;
}

/// Minimal fake chip: full health, deterministic movement (a commanded
/// action always lands), no outcome sampling. Droplets listed in `stuck`
/// ignore every command — a mechanically dead droplet the health sensors
/// cannot see, which drives the ladder into the replica-failover rung.
/// A droplet listed in `crawl` with period k lands a command only on every
/// k-th cycle: a slow but responsive droplet.
class FakeChip : public BiochipIo {
 public:
  explicit FakeChip(Rect bounds) : bounds_(bounds) {}

  std::set<DropletId> stuck;
  std::map<DropletId, std::uint64_t> crawl;

  Rect bounds() const override { return bounds_; }
  int health_bits() const override { return 3; }
  IntMatrix sense_health() const override {
    return IntMatrix(bounds_.width(), bounds_.height(), 7);
  }
  Rect droplet_position(DropletId id) const override {
    return droplets_.at(id);
  }
  bool location_clear(const Rect& at) const override {
    if (!bounds_.contains(at)) return false;
    for (const auto& [id, pos] : droplets_)
      if (pos.manhattan_gap(at) < 2) return false;
    return true;
  }
  DropletId dispense(const Rect& at) override {
    droplets_[next_] = at;
    return next_++;
  }
  void discard(DropletId id) override { droplets_.erase(id); }
  DropletId merge(DropletId a, DropletId b, const Rect& merged) override {
    droplets_.erase(a);
    droplets_.erase(b);
    droplets_[next_] = merged;
    return next_++;
  }
  bool split_clear(DropletId, const Rect&, const Rect&) const override {
    return false;
  }
  std::pair<DropletId, DropletId> split(DropletId, const Rect&,
                                        const Rect&) override {
    MEDA_REQUIRE(false, "FakeChip does not split");
    return {-1, -1};
  }
  void step(const std::vector<Command>& commands) override {
    for (const Command& c : commands) {
      if (!c.action || stuck.contains(c.droplet)) continue;
      const auto slow = crawl.find(c.droplet);
      if (slow != crawl.end() && (cycle_ + 1) % slow->second != 0) continue;
      const Rect target = apply(*c.action, droplets_.at(c.droplet));
      if (bounds_.contains(target)) droplets_.at(c.droplet) = target;
    }
    ++cycle_;
  }
  std::uint64_t cycle() const override { return cycle_; }

  std::size_t droplet_count() const { return droplets_.size(); }

 private:
  Rect bounds_;
  std::map<DropletId, Rect> droplets_;
  DropletId next_ = 1;
  std::uint64_t cycle_ = 0;
};

TEST(SchedulerReplica, VoteMergeCompletesOnFirstArrival) {
  sim::SimulatedChip chip(chip_config(), Rng(7));
  SchedulerConfig config;
  Scheduler scheduler(config);
  const ExecutionStats stats = scheduler.run(chip, replicated_dispense(2));
  ASSERT_TRUE(stats.success) << stats.failure_reason;
  EXPECT_EQ(stats.replica.launched, 2);
  EXPECT_EQ(stats.replica.merges, 1);
  EXPECT_EQ(stats.replica.retired, 1);
  EXPECT_EQ(stats.replica.failovers, 0);
  EXPECT_GT(stats.replica.droplet_cycles, 0u);
  EXPECT_EQ(stats.completed_mos, 2);  // the dispense and its output
  EXPECT_EQ(stats.aborted_mos, 0);
  // Exactly one winner and one loser were recorded.
  ASSERT_EQ(stats.replica_routes.size(), 2u);
  int winners = 0;
  for (const ReplicaRouteRecord& record : stats.replica_routes)
    winners += record.winner ? 1 : 0;
  EXPECT_EQ(winners, 1);
}

TEST(SchedulerReplica, LoserDrainsOffTheChip) {
  sim::SimulatedChip chip(chip_config(), Rng(7));
  SchedulerConfig config;
  config.max_cycles = 2000;
  Scheduler scheduler(config);
  assay::AssayBuilder builder("replicated-then-output");
  const int d = builder.dispense(30.0, 15.0, 16);
  builder.output({d, 0}, 55.0, 15.0);
  assay::MoList list = std::move(builder).build();
  list.ops[static_cast<std::size_t>(d)].replicas = 2;
  const ExecutionStats stats = scheduler.run(chip, list);
  ASSERT_TRUE(stats.success) << stats.failure_reason;
  EXPECT_EQ(stats.replica.retired, 1);
  // Winner left via the output MO, loser via its waste route.
  EXPECT_TRUE(chip.droplets().empty());
  // The loser drove its fallback route to the chip edge: an empty chip
  // alone would also pass for a loser discarded where it stood.
  int reached_edge = 0;
  for (const obs::Event& e : stats.events) {
    if (e.category != "replica" || e.name != "retired") continue;
    reached_edge += e.detail == "reached the waste edge" ? 1 : 0;
    EXPECT_NE(e.detail, "no waste route; discarded in place");
  }
  EXPECT_EQ(reached_edge, 1);
}

/// Pass-through chip that records, per dispensed droplet, its position at
/// dispense and after every cycle while it is on the chip, with the cycle
/// (relative to the wrapper's construction) it held that position at.
class RecordingChip : public BiochipIo {
 public:
  struct Sample {
    std::uint64_t cycle;
    Rect position;
  };

  explicit RecordingChip(BiochipIo& inner)
      : inner_(inner), start_(inner.cycle()) {}

  /// Dispensed droplets in dispense order.
  std::vector<DropletId> dispensed;
  std::map<DropletId, std::vector<Sample>> trails;

  Rect bounds() const override { return inner_.bounds(); }
  int health_bits() const override { return inner_.health_bits(); }
  IntMatrix sense_health() const override { return inner_.sense_health(); }
  Rect droplet_position(DropletId id) const override {
    return inner_.droplet_position(id);
  }
  bool location_clear(const Rect& at) const override {
    return inner_.location_clear(at);
  }
  DropletId dispense(const Rect& at) override {
    const DropletId id = inner_.dispense(at);
    dispensed.push_back(id);
    on_chip_.insert(id);
    record(id);
    return id;
  }
  void discard(DropletId id) override {
    on_chip_.erase(id);
    inner_.discard(id);
  }
  DropletId merge(DropletId a, DropletId b, const Rect& merged) override {
    on_chip_.erase(a);
    on_chip_.erase(b);
    return inner_.merge(a, b, merged);
  }
  bool split_clear(DropletId id, const Rect& part0,
                   const Rect& part1) const override {
    return inner_.split_clear(id, part0, part1);
  }
  std::pair<DropletId, DropletId> split(DropletId id, const Rect& part0,
                                        const Rect& part1) override {
    on_chip_.erase(id);
    return inner_.split(id, part0, part1);
  }
  void step(const std::vector<Command>& commands) override {
    inner_.step(commands);
    for (const DropletId id : on_chip_) record(id);
  }
  std::uint64_t cycle() const override { return inner_.cycle(); }

 private:
  void record(DropletId id) {
    trails[id].push_back(
        {inner_.cycle() - start_, inner_.droplet_position(id)});
  }

  BiochipIo& inner_;
  std::uint64_t start_;
  std::set<DropletId> on_chip_;
};

TEST(SchedulerReplica, RoutesArePairwiseRegionDisjoint) {
  sim::SimulatedChip sim_chip(chip_config(), Rng(7));
  RecordingChip chip(sim_chip);
  Scheduler scheduler(SchedulerConfig{});
  const ExecutionStats stats = scheduler.run(chip, replicated_dispense(2));
  ASSERT_TRUE(stats.success) << stats.failure_reason;
  ASSERT_EQ(stats.replica_routes.size(), 2u);
  // The replicas race until the vote; afterwards the winner carries on as
  // the MO's output and the loser retires to waste, both outside the bands.
  const auto merge = std::find_if(
      stats.events.begin(), stats.events.end(), [](const obs::Event& e) {
        return e.category == "replica" && e.name == "merge";
      });
  ASSERT_NE(merge, stats.events.end());
  // The assay dispenses only its replicas, one per launch in replica order.
  ASSERT_EQ(chip.dispensed.size(), 2u);
  for (const ReplicaRouteRecord& record : stats.replica_routes) {
    // The zone at this placement is thick enough: full disjointness, no
    // best-effort degradation.
    ASSERT_FALSE(record.mask_best_effort);
    ASSERT_TRUE(record.band.valid());
    const std::vector<RecordingChip::Sample>& trail = chip.trails.at(
        chip.dispensed.at(static_cast<std::size_t>(record.replica)));
    int raced = 0;
    // Outside the shared endpoint funnels every cell the replica touched
    // lies inside its own corridor band.
    for (const RecordingChip::Sample& sample : trail) {
      if (sample.cycle > merge->cycle) break;
      ++raced;
      const Rect& pos = sample.position;
      for (int y = pos.ya; y <= pos.yb; ++y)
        for (int x = pos.xa; x <= pos.xb; ++x) {
          if (record.start_funnel.contains(x, y) ||
              record.goal_funnel.contains(x, y))
            continue;
          EXPECT_TRUE(record.band.contains(x, y))
              << "replica " << record.replica << " left its band at (" << x
              << ", " << y << ") in cycle " << sample.cycle;
        }
    }
    EXPECT_GT(raced, 1) << "replica " << record.replica;
  }
  // The two bands themselves are disjoint.
  EXPECT_EQ(stats.replica_routes[0]
                .band.intersection_with(stats.replica_routes[1].band)
                .valid(),
            false);
}

TEST(SchedulerReplica, ThinZoneDegradesToBestEffort) {
  sim::SimulatedChip chip(chip_config(), Rng(7));
  Scheduler scheduler(SchedulerConfig{});
  // Three replicas need 3 × (1 + 4) = 15 cells across the zone, but the
  // vertical corridor here is only ~10 wide: the plan must degrade
  // gracefully to best-effort disjointness, not fail the MO.
  const ExecutionStats stats = scheduler.run(chip, replicated_dispense(3));
  ASSERT_TRUE(stats.success) << stats.failure_reason;
  EXPECT_EQ(stats.replica.merges, 1);
  EXPECT_GE(stats.replica.best_effort_masks, 1);
  ASSERT_FALSE(stats.replica_routes.empty());
  for (const ReplicaRouteRecord& record : stats.replica_routes)
    EXPECT_TRUE(record.mask_best_effort);
}

TEST(SchedulerReplica, BaselineRouterIgnoresReplication) {
  sim::SimulatedChip chip(chip_config(), Rng(7));
  SchedulerConfig config;
  config.adaptive = false;
  Scheduler scheduler(config);
  const ExecutionStats stats = scheduler.run(chip, replicated_dispense(3));
  ASSERT_TRUE(stats.success) << stats.failure_reason;
  EXPECT_EQ(stats.replica.launched, 0);
  EXPECT_FALSE(stats.replica.any());
}

TEST(SchedulerReplica, ConfigFloorReplicatesCriticalDispenses) {
  // replicate_critical_dispenses raises dispenses feeding a mix; the
  // stand-alone dispense (no mix consumer) stays un-replicated.
  sim::SimulatedChip chip(chip_config(), Rng(9));
  SchedulerConfig config;
  config.replicate_critical_dispenses = 2;
  config.max_cycles = 3000;
  Scheduler scheduler(config);
  const ExecutionStats stats = scheduler.run(chip, assay::master_mix());
  ASSERT_TRUE(stats.success) << stats.failure_reason;
  EXPECT_GT(stats.replica.launched, 0);
  EXPECT_GT(stats.replica.merges, 0);
  EXPECT_EQ(stats.replica.launched,
            stats.replica.merges + stats.replica.retired +
                stats.replica.failovers);
}

TEST(SchedulerReplica, FailoverAbandonsAStuckReplicaWithoutAbortingTheMo) {
  // A large chip with a center goal. The second replica dispensed (droplet
  // id 2) is mechanically dead: it never executes a command while its
  // cells keep reading healthy. The first crawls, landing a command every
  // 16th cycle, which keeps its watchdog quiet but its route long enough
  // for the dead replica's ladder (watchdog → quarantine → bounded
  // retries) to fail over before the merge.
  FakeChip chip(Rect{0, 0, 119, 119});
  chip.stuck = {2};
  chip.crawl = {{1, 16}};
  SchedulerConfig config;
  config.recovery.enabled = true;
  // The dead replica must exhaust its rung of the ladder while its healthy
  // sibling is still in flight.
  config.recovery.quarantine_after_watchdogs = 1;
  config.max_cycles = 3000;
  Scheduler scheduler(config);
  const ExecutionStats stats =
      scheduler.run(chip, replicated_dispense(2, 60.0, 60.0));
  ASSERT_TRUE(stats.success) << stats.failure_reason;
  EXPECT_EQ(stats.replica.launched, 2);
  EXPECT_EQ(stats.replica.failovers, 1);
  EXPECT_EQ(stats.replica.merges, 1);
  EXPECT_EQ(stats.replica.retired, 0);  // the loser was abandoned, not retired
  // The failover rung fired and is distinguishable from a job abort.
  bool failover_event = false;
  for (const obs::Event& e : stats.events)
    failover_event |= e.category == "recovery" &&
                      e.name == to_string(RecoveryAction::kReplicaFailover);
  EXPECT_TRUE(failover_event);
  // An abandoned replica never counts as an aborted MO.
  EXPECT_EQ(stats.aborted_mos, 0);
  EXPECT_EQ(stats.recovery.aborted_jobs, 0);
  EXPECT_EQ(stats.completed_mos, 2);  // the dispense and its output
  // The abandoned record is sealed as such.
  int abandoned = 0;
  for (const ReplicaRouteRecord& record : stats.replica_routes)
    abandoned += record.abandoned ? 1 : 0;
  EXPECT_EQ(abandoned, 1);
}

TEST(SchedulerReplica, AllReplicaFailureEscalatesToGracefulAbort) {
  FakeChip chip(Rect{0, 0, 59, 29});
  chip.stuck = {1, 2};  // both replicas mechanically dead
  SchedulerConfig config;
  config.recovery.enabled = true;
  config.recovery.quarantine_after_watchdogs = 1;
  config.max_cycles = 3000;
  Scheduler scheduler(config);
  const ExecutionStats stats = scheduler.run(chip, replicated_dispense(2));
  EXPECT_FALSE(stats.success);
  EXPECT_EQ(stats.replica.failovers, 2);
  // The dispense aborts, and its dependent output MO cascade-aborts.
  EXPECT_EQ(stats.aborted_mos, 2);
  EXPECT_EQ(stats.recovery.aborted_jobs, 2);
  EXPECT_EQ(stats.completed_mos, 0);
}

TEST(SchedulerReplica, DeterministicGivenTheSameSeed) {
  auto run_once = [] {
    sim::SimulatedChip chip(chip_config(), Rng(33));
    SchedulerConfig config;
    config.recovery.enabled = true;
    Scheduler scheduler(config);
    return scheduler.run(chip, replicated_dispense(2));
  };
  const ExecutionStats a = run_once();
  const ExecutionStats b = run_once();
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.replica, b.replica);
  EXPECT_EQ(a.replica_routes.size(), b.replica_routes.size());
}

TEST(SchedulerReplica, ReplicasValidateOnDispensesOnly) {
  assay::AssayBuilder builder("bad-replicas");
  const int d = builder.dispense(30.0, 15.0, 16);
  builder.output({d, 0}, 55.0, 15.0);
  assay::MoList list = std::move(builder).build();
  list.ops[1].replicas = 2;  // the output MO — not meaningful
  EXPECT_THROW(assay::validate(list, Rect{0, 0, 59, 29}), PreconditionError);
}

TEST(SchedulerReplica, ReplicaCountsBeyondTheCapAreRejected) {
  // A request outside [1, kMaxReplicas = 8] is rejected by name, both as
  // the per-MO annotation and as the config floor, instead of being clamped
  // to 8 without a word.
  const Rect chip{0, 0, 59, 29};
  EXPECT_NO_THROW(assay::validate(replicated_dispense(8), chip));
  for (const int replicas : {0, 9, 12}) {
    try {
      assay::validate(replicated_dispense(replicas), chip);
      ADD_FAILURE() << replicas << " replicas validated";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("kMaxReplicas"), std::string::npos)
          << e.what();
    }
    SchedulerConfig config;
    config.replicate_critical_dispenses = replicas;
    try {
      const Scheduler scheduler(config);
      ADD_FAILURE() << "replicate_critical_dispenses = " << replicas
                    << " accepted";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("replicate_critical_dispenses"),
                std::string::npos)
          << e.what();
    }
  }
  SchedulerConfig config;
  config.replicate_critical_dispenses = 8;
  EXPECT_NO_THROW(Scheduler{config});
}

}  // namespace
}  // namespace meda::core
