#include "sim/campaign.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <ostream>
#include <sstream>

#include "core/library.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/checkpoint.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace meda::sim {

namespace {

// Checkpoint payload codec. A slot serializes exactly the ExecutionStats
// subset the reductions consume (RunRollup::absorb inputs plus the
// sensing-channel tallies); synthesis_seconds round-trips exactly via the
// C99 %a hexfloat form so a resumed campaign reproduces the straight-through
// CSV byte for byte. The counter structs are written by walking their field
// lists (for_each_field, declaration order), and the checkpoint digest
// mixes in the same field names, so a new counter changes the payload and
// invalidates older checkpoints without a codec edit.

std::string hex_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// Field-list visitors: write, read, or digest one counter.
struct PutField {
  std::ostream& os;
  template <typename T>
  void operator()(const char*, const T& value) const {
    os << ' ' << value;
  }
};
struct GetField {
  std::istream& is;
  template <typename T>
  void operator()(const char*, T& value) const {
    is >> value;
  }
};
struct MixFieldName {
  util::DigestBuilder& digest;
  void operator()(const char* name) const { digest.mix(std::string(name)); }
};

void encode_stats(std::ostream& os, const core::ExecutionStats& s) {
  os << (s.success ? 1 : 0) << ' ' << s.cycles << ' ' << s.completed_mos
     << ' ' << s.aborted_mos << ' ' << s.synthesis_calls << ' '
     << s.library_hits << ' ' << s.resyntheses << ' ' << s.resyntheses_warm
     << ' ' << hex_double(s.synthesis_seconds);
  core::RecoveryCounters::for_each_field(PutField{os}, s.recovery);
  core::ReplicaCounters::for_each_field(PutField{os}, s.replica);
}

bool decode_stats(std::istream& is, core::ExecutionStats& s) {
  int success = 0;
  std::string seconds;
  is >> success >> s.cycles >> s.completed_mos >> s.aborted_mos >>
      s.synthesis_calls >> s.library_hits >> s.resyntheses >>
      s.resyntheses_warm >> seconds;
  core::RecoveryCounters::for_each_field(GetField{is}, s.recovery);
  core::ReplicaCounters::for_each_field(GetField{is}, s.replica);
  if (!is) return false;
  s.success = success != 0;
  char* end = nullptr;
  s.synthesis_seconds = std::strtod(seconds.c_str(), &end);
  return end != nullptr && *end == '\0';
}

std::unique_ptr<DegradationAdversary> make_adversary(
    AdversaryKind kind, const AdversaryBudget& budget) {
  switch (kind) {
    case AdversaryKind::kNone: return nullptr;
    case AdversaryKind::kRandom:
      return std::make_unique<RandomAdversary>(budget);
    case AdversaryKind::kFrontier:
      return std::make_unique<FrontierAdversary>(budget);
  }
  return nullptr;
}

/// One (cell, chip) task's output: per-run stats in execution order plus
/// the chip's sensing-channel tallies.
struct ChipSlot {
  std::vector<core::ExecutionStats> stats;
  std::uint64_t frames_dropped = 0;
  std::uint64_t bits_flipped = 0;
  core::LibraryStats library;  ///< the chip's private library, after all runs
};

std::string encode_slot(const ChipSlot& slot) {
  std::ostringstream os;
  os << slot.frames_dropped << ' ' << slot.bits_flipped;
  core::LibraryStats::for_each_field(
      [&os](const char*, const core::LibraryClassStats& cls) {
        core::LibraryClassStats::for_each_field(PutField{os}, cls);
      },
      slot.library);
  os << ' ' << slot.stats.size();
  for (const core::ExecutionStats& stats : slot.stats) {
    os << ' ';
    encode_stats(os, stats);
  }
  return os.str();
}

bool decode_slot(const std::string& payload, ChipSlot& out) {
  std::istringstream is(payload);
  ChipSlot slot;
  std::size_t n = 0;
  is >> slot.frames_dropped >> slot.bits_flipped;
  core::LibraryStats::for_each_field(
      [&is](const char*, core::LibraryClassStats& cls) {
        core::LibraryClassStats::for_each_field(GetField{is}, cls);
      },
      slot.library);
  if (!(is >> n) || n > 1u << 20) return false;
  slot.stats.resize(n);
  for (core::ExecutionStats& stats : slot.stats)
    if (!decode_stats(is, stats)) return false;
  out = std::move(slot);
  return true;
}

}  // namespace

// The (cell, chip) grid is flattened into independent tasks, each task
// derives everything random from the chip index alone (seed0 + chip_idx) and
// writes into its own preallocated slot, and the slots are reduced serially
// in the original grid order afterwards. Because no floating-point
// accumulation happens concurrently and no seed depends on execution order,
// the cells — and any CSV written from them — are byte-identical at every
// job count, including the serial jobs = 1 path.

std::vector<CampaignCell> run_campaign(
    const std::vector<assay::MoList>& assays,
    const std::vector<RouterConfig>& routers, const CampaignConfig& config) {
  MEDA_REQUIRE(!assays.empty() && !routers.empty() && !config.levels.empty(),
               "campaign needs an assay, a router, and a level");
  MEDA_REQUIRE(config.chips >= 1 && config.runs_per_chip >= 1,
               "campaign needs positive chip/run counts");
  const std::size_t n_routers = routers.size();
  const std::size_t n_levels = config.levels.size();
  std::vector<CampaignCell> cells(assays.size() * n_levels * n_routers);
  for (std::size_t a = 0; a < assays.size(); ++a) {
    for (std::size_t l = 0; l < n_levels; ++l) {
      for (std::size_t r = 0; r < n_routers; ++r) {
        CampaignCell& cell = cells[(a * n_levels + l) * n_routers + r];
        cell.assay = assays[a].name;
        cell.router = routers[r].name;
        cell.level = config.levels[l].name;
        cell.sensor = config.levels[l].sensor;
      }
    }
  }

  const std::size_t chips = static_cast<std::size_t>(config.chips);
  std::vector<ChipSlot> slots(cells.size() * chips);
  util::SlotCheckpoint checkpoint;
  if (!config.checkpoint.path.empty()) {
    // The slot payload layout: the codec's tag plus the field names of the
    // counter structs every slot carries.
    util::DigestBuilder digest;
    digest.mix(std::string("meda-chaos"));
    core::RecoveryCounters::for_each_field(MixFieldName{digest});
    core::ReplicaCounters::for_each_field(MixFieldName{digest});
    core::LibraryStats::for_each_field(MixFieldName{digest});
    core::LibraryClassStats::for_each_field(MixFieldName{digest});
    digest.mix(config.seed0).mix(config.chips).mix(config.runs_per_chip);
    digest.mix(config.checkpoint.salt);
    digest.mix(static_cast<int>(config.adversary));
    digest.mix(static_cast<std::uint64_t>(assays.size()));
    for (const assay::MoList& assay_list : assays) digest.mix(assay_list.name);
    digest.mix(static_cast<std::uint64_t>(routers.size()));
    for (const RouterConfig& router : routers) digest.mix(router.name);
    digest.mix(static_cast<std::uint64_t>(config.levels.size()));
    for (const ChaosLevel& level : config.levels) {
      digest.mix(level.name);
      digest.mix(level.sensor.bit_flip_p);
      digest.mix(level.sensor.stuck_fraction);
      digest.mix(level.sensor.frame_drop_p);
    }
    checkpoint.open(config.checkpoint.path, digest.value(),
                    config.checkpoint.resume, slots.size(),
                    config.checkpoint.flush_every);
  }
  util::parallel_for(config.jobs, slots.size(), [&](std::size_t t) {
    if (const std::string* payload = checkpoint.restored(t))
      if (decode_slot(*payload, slots[t])) return;
    const std::size_t cell_idx = t / chips;
    const int chip_idx = static_cast<int>(t % chips);
    const CampaignCell& cell = cells[cell_idx];
    const assay::MoList& assay_list =
        assays[cell_idx / (n_levels * n_routers)];
    const RouterConfig& router = routers[cell_idx % n_routers];
    // The substrate seed depends only on chip_idx: the same chip (same
    // degradation constants, same injected faults) underlies every
    // level and router — only the sensing channel differs.
    Rng rng(config.seed0 + static_cast<std::uint64_t>(chip_idx));
    SimulatedChipConfig chip_config = config.chip;
    chip_config.sensor = cell.sensor;
    SimulatedChip chip(chip_config, rng.fork(0xC41));
    chip.set_adversary(
        make_adversary(config.adversary, config.adversary_budget));
    core::StrategyLibrary library;
    core::Scheduler scheduler(router.scheduler, &library);
    ChipSlot& slot = slots[t];
    slot.stats.reserve(static_cast<std::size_t>(config.runs_per_chip));
    for (int run = 0; run < config.runs_per_chip; ++run) {
      MEDA_OBS_SPAN(trial_span, "campaign", "trial");
      chip.clear_droplets();
      const core::ExecutionStats stats = scheduler.run(chip, assay_list);
      trial_span.arg("assay", cell.assay);
      trial_span.arg("router", cell.router);
      trial_span.arg("level", cell.level);
      trial_span.arg("chip", static_cast<std::int64_t>(chip_idx));
      trial_span.arg("run", static_cast<std::int64_t>(run));
      trial_span.arg("success",
                     static_cast<std::int64_t>(stats.success ? 1 : 0));
      trial_span.arg("cycles", static_cast<std::int64_t>(stats.cycles));
      slot.stats.push_back(stats);
    }
    slot.frames_dropped = chip.sensor_channel().frames_dropped();
    slot.bits_flipped = chip.sensor_channel().bits_flipped();
    slot.library = library.stats();
    if (checkpoint.active()) checkpoint.record(t, encode_slot(slot));
  });
  checkpoint.flush();

  for (std::size_t cell_idx = 0; cell_idx < cells.size(); ++cell_idx) {
    CampaignCell& cell = cells[cell_idx];
    for (std::size_t chip_idx = 0; chip_idx < chips; ++chip_idx) {
      const ChipSlot& slot = slots[cell_idx * chips + chip_idx];
      for (const core::ExecutionStats& stats : slot.stats)
        cell.rollup.absorb(stats);
      cell.frames_dropped += slot.frames_dropped;
      cell.bits_flipped += slot.bits_flipped;
      cell.library += slot.library;
    }
  }
  return cells;
}

void print_campaign(std::ostream& os,
                    const std::vector<CampaignCell>& cells) {
  Table table({"bioassay", "router", "success rate (± SE)",
               "cycles (± 95% CI)", "mean re-syntheses/run"});
  for (const CampaignCell& cell : cells) {
    const core::RunRollup& r = cell.rollup;
    const double p = r.success_rate();
    const double se =
        r.runs > 0 ? std::sqrt(p * (1.0 - p) / r.runs) : 0.0;
    table.add_row(
        {cell.assay, cell.router,
         fmt_prob(p) + " ± " + fmt_prob(se),
         r.cycles.count() > 0
             ? fmt_double(r.cycles.mean(), 1) + " ± " +
                   fmt_double(r.cycles.ci95_halfwidth(), 1)
             : "-",
         fmt_double(r.runs > 0 ? static_cast<double>(r.resyntheses) / r.runs
                               : 0.0,
                    1)});
  }
  table.print(os);
}

void print_chaos_campaign(std::ostream& os,
                          const std::vector<CampaignCell>& cells) {
  Table table({"bioassay", "noise", "router", "success", "cycles",
               "watchdog", "retries", "quarantined", "detours", "replicas",
               "failovers", "aborted"});
  for (const CampaignCell& cell : cells) {
    const core::RunRollup& r = cell.rollup;
    table.add_row(
        {cell.assay, cell.level, cell.router,
         std::to_string(r.successes) + "/" + std::to_string(r.runs),
         r.cycles.count() > 0 ? fmt_double(r.cycles.mean(), 1) : "-",
         std::to_string(r.recovery.watchdog_fires),
         std::to_string(r.recovery.synthesis_retries),
         std::to_string(r.recovery.quarantined_cells),
         std::to_string(r.recovery.contention_detours),
         std::to_string(r.replica.launched),
         std::to_string(r.replica.failovers),
         std::to_string(r.recovery.aborted_jobs)});
  }
  table.print(os);
}

void write_chaos_csv(const std::string& path,
                     const std::vector<CampaignCell>& cells) {
  CsvWriter csv(path,
                {"assay", "router", "level", "bit_flip_p", "stuck_fraction",
                 "frame_drop_p", "runs", "successes", "success_rate",
                 "mean_cycles", "watchdog_fires", "forced_resenses",
                 "synthesis_retries", "backoff_cycles", "quarantined_cells",
                 "contention_detours", "aborted_jobs", "synthesis_deadlines",
                 "fallback_routes", "paroled_cells", "frames_dropped",
                 "bits_flipped", "synthesis_calls", "replicas_launched",
                 "replica_failovers", "replica_merges", "replica_retired",
                 "replica_best_effort_masks", "replica_droplet_cycles"});
  for (const CampaignCell& cell : cells) {
    const core::RunRollup& r = cell.rollup;
    csv.write_row(
        {cell.assay, cell.router, cell.level,
         fmt_double(cell.sensor.bit_flip_p, 6),
         fmt_double(cell.sensor.stuck_fraction, 6),
         fmt_double(cell.sensor.frame_drop_p, 6),
         std::to_string(r.runs), std::to_string(r.successes),
         fmt_double(r.success_rate(), 4),
         r.cycles.count() > 0 ? fmt_double(r.cycles.mean(), 2) : "",
         std::to_string(r.recovery.watchdog_fires),
         std::to_string(r.recovery.forced_resenses),
         std::to_string(r.recovery.synthesis_retries),
         std::to_string(r.recovery.backoff_cycles),
         std::to_string(r.recovery.quarantined_cells),
         std::to_string(r.recovery.contention_detours),
         std::to_string(r.recovery.aborted_jobs),
         std::to_string(r.recovery.synthesis_deadlines),
         std::to_string(r.recovery.fallback_routes),
         std::to_string(r.recovery.paroled_cells),
         std::to_string(cell.frames_dropped),
         std::to_string(cell.bits_flipped),
         std::to_string(r.synthesis_calls),
         std::to_string(r.replica.launched),
         std::to_string(r.replica.failovers),
         std::to_string(r.replica.merges),
         std::to_string(r.replica.retired),
         std::to_string(r.replica.best_effort_masks),
         std::to_string(r.replica.droplet_cycles)});
  }
}

namespace {

/// One cell's metrics keyed by column name; the map's order is the metrics
/// CSV's name-sorted column order. The counter blocks are their prefix plus
/// each field name from the structs' field lists.
std::map<std::string, std::string> chaos_metrics(const CampaignCell& c) {
  const core::RunRollup& r = c.rollup;
  std::map<std::string, std::string> m{
      {"chaos.bits_flipped", std::to_string(c.bits_flipped)},
      {"chaos.frames_dropped", std::to_string(c.frames_dropped)},
      {"sched.aborted_mos", std::to_string(r.aborted_mos)},
      {"sched.completed_mos", std::to_string(r.completed_mos)},
      {"sched.library_hit_rate", fmt_double(r.library_hit_rate(), 4)},
      {"sched.library_hits", std::to_string(r.library_hits)},
      {"sched.mean_cycles",
       r.cycles.count() > 0 ? fmt_double(r.cycles.mean(), 2) : std::string()},
      {"sched.resyntheses", std::to_string(r.resyntheses)},
      {"sched.resyntheses_warm", std::to_string(r.resyntheses_warm)},
      {"sched.runs", std::to_string(r.runs)},
      {"sched.success_rate", fmt_double(r.success_rate(), 4)},
      {"sched.successes", std::to_string(r.successes)},
      {"sched.synthesis_calls", std::to_string(r.synthesis_calls)},
  };
  const auto block = [&m](std::string prefix) {
    return [&m, prefix = std::move(prefix)](const char* field,
                                            const auto& value) {
      m.emplace(prefix + field, std::to_string(value));
    };
  };
  core::RecoveryCounters::for_each_field(block("recovery."), r.recovery);
  // replica block: the N-modular-redundancy machinery, all zero unless a
  // router replicates critical dispenses.
  core::ReplicaCounters::for_each_field(block("replica."), r.replica);
  // library block: per-digest-class strategy-library operation counts
  // summed over the cell's per-chip libraries.
  core::LibraryStats::for_each_field(
      [&block](const char* cls, const core::LibraryClassStats& stats) {
        core::LibraryClassStats::for_each_field(
            block("library." + std::string(cls) + "."), stats);
      },
      c.library);
  return m;
}

}  // namespace

void write_chaos_metrics_csv(const std::string& path,
                             const std::vector<CampaignCell>& cells) {
  std::vector<std::string> header{"assay", "router", "level"};
  for (const auto& [name, value] : chaos_metrics(CampaignCell{}))
    header.push_back(name);
  CsvWriter csv(path, header);
  for (const CampaignCell& cell : cells) {
    std::vector<std::string> row{cell.assay, cell.router, cell.level};
    for (auto& [name, value] : chaos_metrics(cell))
      row.push_back(std::move(value));
    csv.write_row(row);
  }
}

}  // namespace meda::sim
