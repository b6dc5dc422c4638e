// Golden tests tying the paper's worked examples together end to end.

#include <gtest/gtest.h>

#include <vector>

#include "assay/benchmarks.hpp"
#include "assay/helper.hpp"
#include "assay/mo.hpp"
#include "core/synthesizer.hpp"
#include "model/frontier.hpp"
#include "model/guards.hpp"
#include "model/outcomes.hpp"
#include "sim/campaign.hpp"
#include "sim/experiments.hpp"
#include "util/handoff.hpp"
#include "util/stats.hpp"

namespace meda {
namespace {

// ---------------------------------------------------------------------------
// Example 1 — droplet model: δ = (3, 2, 7, 5) with w=5, h=4, A=20, AR=5/4,
// and the induced actuation matrix U.
TEST(PaperExamples, Example1DropletModel) {
  const Rect delta{3, 2, 7, 5};
  EXPECT_EQ(delta.width(), 5);
  EXPECT_EQ(delta.height(), 4);
  EXPECT_EQ(delta.area(), 20);
  EXPECT_DOUBLE_EQ(delta.aspect_ratio(), 1.25);
  BoolMatrix u(12, 10);
  for (int y = 0; y < 10; ++y)
    for (int x = 0; x < 12; ++x) u(x, y) = delta.contains(x, y);
  int actuated = 0;
  for (unsigned char v : u.data()) actuated += v;
  EXPECT_EQ(actuated, 20);
}

// ---------------------------------------------------------------------------
// Example 2 — frontier sets of a_NE on δ = (3, 2, 7, 5).
TEST(PaperExamples, Example2FrontierSets) {
  const Rect delta{3, 2, 7, 5};
  EXPECT_EQ(frontier(delta, Action::kNE, Dir::E), (Rect{8, 3, 8, 6}));
  EXPECT_EQ(frontier(delta, Action::kNE, Dir::N), (Rect{4, 6, 8, 6}));
  EXPECT_EQ(frontier_size(delta, Action::kNE, Dir::E), 4);
  EXPECT_EQ(frontier_size(delta, Action::kNE, Dir::N), 5);
}

// ---------------------------------------------------------------------------
// Example 3 — transition probability p(NE | δ, a_NE) = 0.76 · 0.7 = 0.532.
TEST(PaperExamples, Example3TransitionProbability) {
  const Rect delta{3, 2, 7, 5};
  DoubleMatrix force(12, 10, 1.0);
  force(8, 3) = 0.6;
  force(8, 4) = 0.5;
  force(8, 5) = 0.8;
  force(8, 6) = 0.9;
  force(4, 6) = 0.9;
  force(5, 6) = 0.4;
  force(6, 6) = 0.9;
  force(7, 6) = 0.7;
  const double s_n =
      mean_frontier_force(force, frontier(delta, Action::kNE, Dir::N));
  const double s_e =
      mean_frontier_force(force, frontier(delta, Action::kNE, Dir::E));
  EXPECT_NEAR(s_n, 0.76, 1e-12);
  EXPECT_NEAR(s_e, 0.70, 1e-12);
  EXPECT_NEAR(s_n * s_e, 0.532, 1e-12);
}

// ---------------------------------------------------------------------------
// Guard example of Section V-B: r = 3/2, δ = (3, 2, 7, 5) → g_↑ holds,
// g_↓ does not.
TEST(PaperExamples, SectionVBGuardExample) {
  EXPECT_EQ(kMaxAspectRatio, 1.5);
  const Rect delta{3, 2, 7, 5};
  EXPECT_TRUE(guard_satisfied(Action::kHeightenNE, delta));
  EXPECT_FALSE(guard_satisfied(Action::kWidenNE, delta));
}

// ---------------------------------------------------------------------------
// Examples 4 & 5 / Table IV — the full MO→RJ decomposition of the Fig. 12
// sequence graph on a 60×30 chip (the paper's 1-based coordinates).
TEST(PaperExamples, Table4FullDecomposition) {
  assay::AssayBuilder b("fig12");
  const int m1 = b.dispense(17.5, 2.5, 16);
  const int m2 = b.dispense(17.5, 28.5, 16);
  const int m3 = b.mix({m1}, {m2}, 10.5, 15.5);
  const int m4 = b.mag({m3}, 40.5, 15.5);
  b.output({m4}, 55.5, 15.5);
  const assay::MoList list = std::move(b).build();
  const Rect chip{1, 1, 60, 30};
  const auto outputs = assay::compute_outputs(list);

  // M1 / M2 — dispense rows.
  {
    const auto rjs = assay::make_routing_jobs(list, 0, outputs, chip);
    ASSERT_EQ(rjs.size(), 1u);
    EXPECT_EQ(rjs[0].goal, (Rect{16, 1, 19, 4}));
    EXPECT_EQ(rjs[0].hazard, (Rect{13, 1, 22, 7}));
  }
  {
    const auto rjs = assay::make_routing_jobs(list, 1, outputs, chip);
    EXPECT_EQ(rjs[0].goal, (Rect{16, 27, 19, 30}));
    EXPECT_EQ(rjs[0].hazard, (Rect{13, 24, 22, 30}));
  }
  // M3 — mix rows RJ3.0 / RJ3.1.
  {
    const auto rjs = assay::make_routing_jobs(list, 2, outputs, chip);
    ASSERT_EQ(rjs.size(), 2u);
    EXPECT_EQ(rjs[0].start, (Rect{16, 1, 19, 4}));
    EXPECT_EQ(rjs[0].goal, (Rect{9, 14, 12, 17}));
    EXPECT_EQ(rjs[0].hazard, (Rect{6, 1, 22, 20}));
    EXPECT_EQ(rjs[1].start, (Rect{16, 27, 19, 30}));
    EXPECT_EQ(rjs[1].goal, (Rect{9, 14, 12, 17}));
    EXPECT_EQ(rjs[1].hazard, (Rect{6, 11, 22, 30}));
  }
  // M4 — mag row: the 32-cell mix product becomes a 6×5 pattern (6.3%
  // error) routed from (8, 14, 13, 18) to (38, 14, 43, 18) within
  // (5, 11, 46, 21).
  {
    const assay::DropletSize size = assay::size_for_area(32);
    EXPECT_EQ(size.w, 6);
    EXPECT_EQ(size.h, 5);
    EXPECT_NEAR(size.error, 0.0625, 1e-12);
    const auto rjs = assay::make_routing_jobs(list, 3, outputs, chip);
    ASSERT_EQ(rjs.size(), 1u);
    EXPECT_EQ(rjs[0].start, (Rect{8, 14, 13, 18}));
    EXPECT_EQ(rjs[0].goal, (Rect{38, 14, 43, 18}));
    EXPECT_EQ(rjs[0].hazard, (Rect{5, 11, 46, 21}));
  }
}

// ---------------------------------------------------------------------------
// Table V — the routing-job MDPs match the paper's state counts up to its
// two extra absorbing bookkeeping states (see EXPERIMENTS.md).
TEST(PaperExamples, TableVStateCountsMinusTwo) {
  const struct {
    int area, droplet, paper_states;
  } rows[] = {{10, 3, 67}, {10, 4, 52}, {10, 5, 39}, {10, 6, 28},
              {20, 3, 327}, {20, 4, 292}, {20, 5, 259}, {20, 6, 228},
              {30, 3, 787}, {30, 4, 732}, {30, 5, 679}, {30, 6, 628}};
  core::SynthesisConfig config;
  config.rules.enable_morphing = false;
  for (const auto& row : rows) {
    const Rect chip{0, 0, row.area - 1, row.area - 1};
    assay::RoutingJob rj;
    rj.start = Rect::from_size(0, 0, row.droplet, row.droplet);
    rj.goal = Rect::from_size(row.area - row.droplet,
                              row.area - row.droplet, row.droplet,
                              row.droplet);
    rj.hazard = chip;
    const core::Synthesizer synth(chip, config);
    const core::SynthesisResult r = synth.synthesize(
        rj, IntMatrix(row.area, row.area, 2), 2);
    EXPECT_EQ(r.stats.states, static_cast<std::size_t>(row.paper_states - 2))
        << row.area << "/" << row.droplet;
    EXPECT_TRUE(r.feasible);
  }
}

// ---------------------------------------------------------------------------
// Fig. 15 — on reused, degrading chips the adaptive router's probability of
// completing within k_max cycles dominates the degradation-unaware
// shortest-path baseline's, strictly from k_max = 180 on. fig15_pos's
// settings on half its chips and four of its six bioassays. NuIP is left
// out: its gap is within noise (EXPERIMENTS.md), and its baseline leads at
// large k_max. COVID-RAT dominates too and is left out to keep this short.
TEST(PaperExamples, Fig15AdaptiveDominatesTheBaseline) {
  sim::CampaignConfig config;
  config.jobs = 4;  // results are identical at any job count
  config.chip.chip.width = assay::kChipWidth;
  config.chip.chip.height = assay::kChipHeight;
  config.chip.chip.degradation = DegradationRange{0.5, 0.9, 60.0, 150.0};
  config.chips = 3;
  config.runs_per_chip = 14;
  config.seed0 = 1000;
  std::vector<sim::RouterConfig> routers(2);
  routers[0].name = "baseline";
  routers[0].scheduler.adaptive = false;
  routers[1].name = "adaptive";
  for (sim::RouterConfig& router : routers) router.scheduler.max_cycles = 1200;
  const std::vector<assay::MoList> assays = {
      assay::master_mix(), assay::cep(), assay::serial_dilution(),
      assay::covid_pcr()};

  const std::vector<sim::CampaignCell> cells =
      sim::run_campaign(assays, routers, config);
  ASSERT_EQ(cells.size(), assays.size() * routers.size());
  auto all_runs = [](const sim::CampaignCell& cell) {
    std::vector<core::ExecutionStats> runs;
    for (const auto& chip_runs : cell.runs)
      runs.insert(runs.end(), chip_runs.begin(), chip_runs.end());
    return runs;
  };
  for (std::size_t a = 0; a < assays.size(); ++a) {
    const std::vector<core::ExecutionStats> baseline = all_runs(cells[2 * a]);
    const std::vector<core::ExecutionStats> adaptive =
        all_runs(cells[2 * a + 1]);
    ASSERT_EQ(adaptive.size(), 3u * 14u);
    ASSERT_EQ(baseline.size(), adaptive.size());
    for (const std::uint64_t k :
         {100, 140, 180, 220, 260, 300, 400, 600, 1000}) {
      const double pos_adaptive = sim::probability_of_success(adaptive, k);
      const double pos_baseline = sim::probability_of_success(baseline, k);
      EXPECT_GE(pos_adaptive, pos_baseline) << assays[a].name << " k " << k;
      if (k >= 180) {
        EXPECT_GT(pos_adaptive, pos_baseline) << assays[a].name << " k " << k;
      }
    }
  }
}

// Fig. 16 under clustered faults, with fig16_fault_injection's clustered
// configuration on four of its six bioassays: mid-life chips, 8% of the MCs
// in 2×2 fault clusters failing after 15–120 actuations, and 8 trials of
// five successful executions within 2000 cycles. The adaptive router aborts
// no trial and fails no execution, and needs fewer mean cycles than the
// baseline, which fails before its fifth execution on every assay. Adaptive
// also spreads less, except against NuIP's baseline: that one aborts all 8
// trials at the budget, so its SD is 0.
TEST(PaperExamples, Fig16AdaptiveBeatsTheBaselineUnderClusteredFaults) {
  constexpr int kTrials = 8;
  const std::vector<assay::MoList> assays = {
      assay::master_mix(), assay::cep(), assay::nuip(), assay::covid_rat()};
  for (const assay::MoList& assay_list : assays) {
    SCOPED_TRACE(assay_list.name);
    stats::RunningStats cycles[2], before_first_failure[2];
    int aborted[2] = {0, 0};
    for (const bool adaptive : {false, true}) {
      std::vector<sim::TrialResult> results(kTrials);
      util::parallel_for(4, results.size(), [&](std::size_t t) {
        sim::TrialConfig config;
        config.chip.chip.width = assay::kChipWidth;
        config.chip.chip.height = assay::kChipHeight;
        config.chip.chip.degradation =
            DegradationRange{0.5, 0.9, 60.0, 150.0};
        config.chip.pre_wear_max = 150;
        config.chip.faults.mode = FaultMode::kClustered;
        config.chip.faults.faulty_fraction = 0.08;
        config.chip.faults.fail_at_lo = 15;
        config.chip.faults.fail_at_hi = 120;
        config.scheduler.adaptive = adaptive;
        config.scheduler.max_cycles = 1200;
        config.kmax_total = 2000;
        config.seed = 7000 + static_cast<std::uint64_t>(t);
        results[t] = sim::run_trial(assay_list, config);
      });
      for (const sim::TrialResult& r : results) {
        cycles[adaptive].add(static_cast<double>(r.total_cycles));
        before_first_failure[adaptive].add(
            r.first_failure_execution == 0 ? r.executions
                                           : r.first_failure_execution - 1);
        aborted[adaptive] += r.aborted ? 1 : 0;
        if (adaptive) {
          EXPECT_EQ(r.successes, sim::kTrialSuccesses);
          EXPECT_EQ(r.first_failure_execution, 0);
        }
      }
    }
    EXPECT_EQ(aborted[1], 0);
    EXPECT_LT(cycles[1].mean(), cycles[0].mean());
    EXPECT_EQ(before_first_failure[1].mean(), sim::kTrialSuccesses);
    EXPECT_LT(before_first_failure[0].mean(), sim::kTrialSuccesses);
    if (assay_list.name == assay::nuip().name) {
      EXPECT_EQ(aborted[0], kTrials);
    } else {
      EXPECT_LT(cycles[1].stddev(), cycles[0].stddev());
    }
  }
}

}  // namespace
}  // namespace meda
