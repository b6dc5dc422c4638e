#include "core/strategy.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/compiled_mdp.hpp"
#include "core/synthesizer.hpp"
#include "core/value_iteration.hpp"
#include "model/action.hpp"
#include "model/guards.hpp"
#include "model/outcomes.hpp"
#include "stall_job.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

/// Oracle tests for the flat strategy table. The reference strategy is a
/// test-local std::map<Rect, Action> read straight off a fresh compiled
/// model and its solve (Solution::chosen, CompiledGeometry::droplets and
/// choice_action); it shares no code with extract_strategy, the StateIndex
/// copy or the action bytes the synthesizer's strategy answers from.

namespace meda::core {
namespace {

constexpr int kBits = 2;

/// One seeded routing job with its chip, health and rules.
struct Job {
  Rect chip;
  IntMatrix health;
  assay::RoutingJob rj;
  ActionRules rules;
};

/// Seeded random jobs: 10–19-cell chips with up to 30% dead cells, square
/// droplets of side 2–4, a goal one cell larger, morphing on and off in
/// turn.
std::vector<Job> random_jobs(int count) {
  Rng rng(20261019);
  std::vector<Job> jobs;
  for (int instance = 0; instance < count; ++instance) {
    const int w = rng.uniform_int(10, 19);
    const int h = rng.uniform_int(10, 19);
    Job job{Rect{0, 0, w - 1, h - 1}, IntMatrix(w, h, 3), {}, {}};
    const double dead = rng.uniform(0.0, 0.3);
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x)
        job.health(x, y) = rng.bernoulli(dead) ? 0 : rng.uniform_int(1, 3);
    const int side = rng.uniform_int(2, 4);
    job.rj.start = Rect::from_size(rng.uniform_int(0, w - side),
                                   rng.uniform_int(0, h - side), side, side);
    job.rj.goal = Rect::from_size(rng.uniform_int(0, w - side - 1),
                                  rng.uniform_int(0, h - side - 1), side + 1,
                                  side + 1);
    job.rj.hazard =
        assay::zone(job.rj.start, job.rj.goal, job.chip, rng.uniform_int(0, 3));
    job.rules.enable_morphing = instance % 2 == 0;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// The reference: the strategy the paper's extraction prescribes for
/// @p query, as a map. φ_r follows rmin where the start has a finite Rmin,
/// else pmax's argmax while the start can reach the goal at all; φ_p follows
/// rmin wherever rmin chose, pmax elsewhere, while the start can reach the
/// goal.
std::map<Rect, Action> reference_strategy(const CompiledModel& model,
                                          const ReachAvoidSolution& sol,
                                          Query query) {
  const std::uint32_t start = model.mdp.start;
  const bool rmin_finite = std::isfinite(sol.rmin.values[start]);
  const double reach = rmin_finite ? 1.0 : sol.pmax.values[start];
  std::map<Rect, Action> map;
  if (!(reach > 0.0)) return map;
  const bool overlay = query == Query::kPmaxReachability;
  const bool use_rmin = overlay || rmin_finite;
  for (std::size_t s = 0; s < model.geometry.droplets.size(); ++s) {
    int c = use_rmin ? sol.rmin.chosen[s] : -1;
    if (c < 0 && (overlay || !rmin_finite)) c = sol.pmax.chosen[s];
    if (c < 0) continue;
    const std::size_t flat =
        model.mdp.choice_offset[s] + static_cast<std::size_t>(c);
    map.emplace(model.geometry.droplets[s],
                model.geometry.choice_action[flat]);
  }
  return map;
}

/// A shape (w, h) that fits in @p box and that no state of @p model has.
std::optional<Rect> unseen_shape(const CompiledModel& model, const Rect& box) {
  std::set<std::pair<int, int>> seen;
  for (const Rect& d : model.geometry.droplets)
    seen.emplace(d.width(), d.height());
  for (int w = 1; w <= box.width(); ++w)
    for (int h = 1; h <= box.height(); ++h)
      if (!seen.contains({w, h})) return Rect::from_size(box.xa, box.ya, w, h);
  return std::nullopt;
}

/// Which solution a job's reference strategy comes from.
enum class Served { kNothing, kRmin, kPmaxFallback };

/// Synthesizes @p job under @p query and checks the strategy against the
/// reference state by state.
Served expect_matches_reference(const Job& job, Query query,
                                const char* label) {
  SynthesisConfig config;
  config.rules = job.rules;
  config.query = query;
  const Synthesizer synth(job.chip, config);
  const SynthesisResult result = synth.synthesize(job.rj, job.health, kBits);

  const CompiledModel model = build_compiled_mdp(
      job.rj, force_from_health(job.health, kBits, config.estimator), job.chip,
      job.rules);
  const ReachAvoidSolution sol = solve_reach_avoid(
      model.mdp, SolveConfig{}, query == Query::kPmaxReachability);
  const std::map<Rect, Action> reference =
      reference_strategy(model, sol, query);

  // Every model state answers as the reference: its action, or nullopt
  // where the reference has none (goal states, states with no choice).
  for (const Rect& droplet : model.geometry.droplets) {
    const auto it = reference.find(droplet);
    const std::optional<Action> expected =
        it == reference.end() ? std::nullopt
                              : std::optional<Action>(it->second);
    EXPECT_EQ(result.strategy.action(droplet), expected)
        << label << ' ' << droplet.to_string();
  }
  EXPECT_EQ(result.strategy.size(), reference.size()) << label;
  EXPECT_EQ(result.strategy.empty(), reference.empty()) << label;

  // Rects that are no state: outside the hazard box (wholly and straddling
  // its edge), a shape the model never saw, and invalid rects.
  const Rect& box = job.rj.hazard;
  const Rect shape = job.rj.start;
  EXPECT_EQ(result.strategy.action(
                shape.shifted(box.xb + 1 - shape.xa, 0)),
            std::nullopt)
      << label;
  EXPECT_EQ(result.strategy.action(shape.shifted(box.xa - 1 - shape.xa, 0)),
            std::nullopt)
      << label;
  EXPECT_EQ(result.strategy.action(box.inflated(1)), std::nullopt) << label;
  if (const std::optional<Rect> unseen = unseen_shape(model, box)) {
    EXPECT_EQ(result.strategy.action(*unseen), std::nullopt)
        << label << ' ' << unseen->to_string();
  }
  EXPECT_EQ(result.strategy.action(Rect::none()), std::nullopt) << label;
  EXPECT_EQ(result.strategy.action(Rect{5, 5, 3, 3}), std::nullopt) << label;
  if (reference.empty()) return Served::kNothing;
  return std::isfinite(sol.rmin.values[model.mdp.start])
             ? Served::kRmin
             : Served::kPmaxFallback;
}

TEST(Strategy, MatchesTheReferenceOnRandomJobsUnderBothQueries) {
  std::map<Served, int> served;
  const std::vector<Job> jobs = random_jobs(200);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    for (const Query query :
         {Query::kRminExpectedCycles, Query::kPmaxReachability}) {
      const std::string label =
          "job " + std::to_string(i) +
          (query == Query::kPmaxReachability ? " pmax" : " rmin");
      ++served[expect_matches_reference(jobs[i], query, label.c_str())];
    }
  }
  // Both outcomes are exercised (386 rmin strategies and 14 empty ones on
  // this seed); the rmin stall below covers the pmax fallback.
  EXPECT_GT(served[Served::kRmin], 100);
  EXPECT_GT(served[Served::kNothing], 0);
}

TEST(Strategy, MatchesTheReferenceOnTheRminStall) {
  // rmin stops with every state at ∞: φ_r serves pmax's argmax, and φ_p
  // overlays whatever rmin chose on it.
  const StallJob stall;
  const Job job{stall.chip, stall.health, stall.job, ActionRules{}};
  EXPECT_EQ(expect_matches_reference(job, Query::kRminExpectedCycles, "rmin"),
            Served::kPmaxFallback);
  EXPECT_EQ(expect_matches_reference(job, Query::kPmaxReachability, "pmax"),
            Served::kPmaxFallback);
}

TEST(Strategy, EmptyStrategyAnswersNothing) {
  const Strategy empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.action(Rect::from_size(0, 0, 2, 2)), std::nullopt);
  EXPECT_EQ(empty.action(Rect::none()), std::nullopt);
  EXPECT_TRUE(Strategy(std::vector<std::pair<Rect, Action>>{}).empty());
  // A model whose states all lack an action builds no table either.
  StateIndex index(Rect{0, 0, 5, 5});
  index.slot(Rect::from_size(1, 1, 2, 2)) = 0;
  const Strategy none(index, {Strategy::kNoAction});
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.action(Rect::from_size(1, 1, 2, 2)), std::nullopt);
}

TEST(Strategy, ListedStatesAnswerTheirLastAction) {
  // A seeded random walk that revisits states: each answers the action
  // listed last for it, and nothing else answers.
  Rng rng(77);
  std::vector<std::pair<Rect, Action>> states;
  std::map<Rect, Action> expected;
  Rect pos = Rect::from_size(20, 20, 3, 2);
  for (int i = 0; i < 200; ++i) {
    const Action a = kAllActions[static_cast<std::size_t>(
        rng.uniform_int(0, 11))];  // the twelve movements keep the shape
    states.emplace_back(pos, a);
    expected[pos] = a;
    pos = apply(a, pos);
  }
  const Strategy strategy(states);
  EXPECT_EQ(strategy.size(), expected.size());
  Rect bounds = Rect::none();
  for (const auto& [droplet, action] : expected) {
    EXPECT_EQ(strategy.action(droplet), action) << droplet.to_string();
    bounds = bounds.union_with(droplet);
  }
  for (int y = bounds.ya - 1; y <= bounds.yb + 1; ++y)
    for (int x = bounds.xa - 1; x <= bounds.xb + 1; ++x) {
      const Rect droplet = Rect::from_size(x, y, 3, 2);
      if (!expected.contains(droplet)) {
        EXPECT_EQ(strategy.action(droplet), std::nullopt)
            << droplet.to_string();
      }
    }
  EXPECT_EQ(strategy.action(Rect::from_size(20, 20, 2, 3)), std::nullopt);
  EXPECT_THROW(Strategy({{Rect::none(), Action::kE}}), PreconditionError);
}

}  // namespace
}  // namespace meda::core
