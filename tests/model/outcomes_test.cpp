#include "model/outcomes.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>

#include "chip/degradation.hpp"
#include "model/action_table.hpp"
#include "model/guards.hpp"
#include "util/check.hpp"

namespace meda {
namespace {

/// Chip-sized force matrix with a uniform value.
DoubleMatrix uniform_force(double f, int w = 20, int h = 20) {
  return DoubleMatrix(w, h, f);
}

double total_probability(const std::vector<Outcome>& outcomes) {
  return std::accumulate(outcomes.begin(), outcomes.end(), 0.0,
                         [](double acc, const Outcome& o) {
                           return acc + o.probability;
                         });
}

// Example 3 of the paper: δ = (3, 2, 7, 5) actuated under a_NE with
// D(8, 3:6) = (0.6, 0.5, 0.8, 0.9) and D(4:8, 6) = (0.9, 0.4, 0.9, 0.7, 0.9)
// (the example feeds degradation values directly as forces):
// p(NE) = 0.76 · 0.7 = 0.532.
TEST(Outcomes, PaperExample3) {
  const Rect d{3, 2, 7, 5};
  DoubleMatrix force = uniform_force(1.0);
  force(8, 3) = 0.6;
  force(8, 4) = 0.5;
  force(8, 5) = 0.8;
  force(8, 6) = 0.9;
  force(4, 6) = 0.9;
  force(5, 6) = 0.4;
  force(6, 6) = 0.9;
  force(7, 6) = 0.7;
  force(8, 6) = 0.9;

  const auto outcomes = action_outcomes(d, Action::kNE, force);
  ASSERT_EQ(outcomes.size(), 4u);
  double p_ne = 0, p_n = 0, p_e = 0, p_stay = 0;
  for (const Outcome& o : outcomes) {
    if (o.droplet == d.shifted(1, 1)) p_ne = o.probability;
    else if (o.droplet == d.shifted(0, 1)) p_n = o.probability;
    else if (o.droplet == d.shifted(1, 0)) p_e = o.probability;
    else if (o.droplet == d) p_stay = o.probability;
  }
  EXPECT_NEAR(p_ne, 0.532, 1e-9);
  // The paper's example lists {0.168, 0.228} for the single-direction
  // events: p(N) = s_N·(1−s_E) = 0.76·0.3, p(E) = (1−s_N)·s_E = 0.24·0.7.
  EXPECT_NEAR(p_n, 0.228, 1e-9);
  EXPECT_NEAR(p_e, 0.168, 1e-9);
  EXPECT_NEAR(p_stay, 0.24 * 0.3, 1e-9);
  EXPECT_NEAR(total_probability(outcomes), 1.0, 1e-12);
}

TEST(MeanFrontierForce, AveragesAndClamps) {
  DoubleMatrix force = uniform_force(0.5, 10, 10);
  force(5, 5) = 2.0;   // clamped to 1
  force(5, 6) = -1.0;  // clamped to 0
  EXPECT_NEAR(mean_frontier_force(force, Rect{5, 5, 5, 6}), 0.5, 1e-12);
  EXPECT_THROW(mean_frontier_force(force, Rect{9, 9, 10, 9}),
               PreconditionError);
}

TEST(MeanFrontierForce, ClampedFieldMatchesThePerReadClamp) {
  // The builder clamps the field once; every frontier mean must still be
  // the exact double of the per-read clamp, out-of-range cells and NaN
  // included.
  DoubleMatrix force = uniform_force(0.37, 6, 5);
  force(1, 1) = -0.3;
  force(2, 1) = 1.4;
  force(3, 2) = 0.999999999999;
  force(4, 3) = std::numeric_limits<double>::quiet_NaN();
  const ClampedForce clamped(force);
  for (int ya = 0; ya < 5; ++ya)
    for (int yb = ya; yb < 5; ++yb)
      for (int xa = 0; xa < 6; ++xa)
        for (int xb = xa; xb < 6; ++xb) {
          const Rect fr{xa, ya, xb, yb};
          const double want = mean_frontier_force(force, fr);
          const double got = clamped(fr);
          if (std::isnan(want))
            EXPECT_TRUE(std::isnan(got)) << fr.to_string();
          else
            EXPECT_EQ(got, want) << fr.to_string();
        }
  EXPECT_THROW(clamped(Rect{5, 4, 6, 4}), PreconditionError);
  EXPECT_THROW(clamped(Rect::none()), PreconditionError);
}

TEST(Outcomes, CardinalEventSpace) {
  const Rect d{5, 5, 8, 8};
  const auto outcomes =
      action_outcomes(d, Action::kN, uniform_force(0.8));
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].droplet, d.shifted(0, 1));
  EXPECT_NEAR(outcomes[0].probability, 0.8, 1e-12);
  EXPECT_EQ(outcomes[1].droplet, d);
  EXPECT_NEAR(outcomes[1].probability, 0.2, 1e-12);
}

TEST(Outcomes, DoubleStepEventSpace) {
  // p(dd) = s1·s2, p(d) = s1·(1−s2), p(ε) = 1−s1.
  const Rect d{5, 5, 8, 8};
  const auto outcomes =
      action_outcomes(d, Action::kEE, uniform_force(0.6));
  ASSERT_EQ(outcomes.size(), 3u);
  double p_two = 0, p_one = 0, p_stay = 0;
  for (const Outcome& o : outcomes) {
    if (o.droplet == d.shifted(2, 0)) p_two = o.probability;
    else if (o.droplet == d.shifted(1, 0)) p_one = o.probability;
    else if (o.droplet == d) p_stay = o.probability;
  }
  EXPECT_NEAR(p_two, 0.36, 1e-12);
  EXPECT_NEAR(p_one, 0.24, 1e-12);
  EXPECT_NEAR(p_stay, 0.4, 1e-12);
}

TEST(Outcomes, DoubleStepSecondFrontierUsesShiftedDroplet) {
  const Rect d{5, 5, 8, 8};
  DoubleMatrix force = uniform_force(1.0);
  // First-step frontier (x = 9) healthy; second-step frontier (x = 10) dead.
  for (int y = 5; y <= 8; ++y) force(10, y) = 0.0;
  const auto outcomes = action_outcomes(d, Action::kEE, force);
  double p_two = 0, p_one = 0;
  for (const Outcome& o : outcomes) {
    if (o.droplet == d.shifted(2, 0)) p_two = o.probability;
    if (o.droplet == d.shifted(1, 0)) p_one = o.probability;
  }
  EXPECT_NEAR(p_two, 0.0, 1e-12);
  EXPECT_NEAR(p_one, 1.0, 1e-12);
}

TEST(Outcomes, MorphEventSpace) {
  const Rect d{5, 5, 9, 8};  // 5×4
  const auto outcomes =
      action_outcomes(d, Action::kWidenNE, uniform_force(0.7));
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].droplet, apply(Action::kWidenNE, d));
  EXPECT_NEAR(outcomes[0].probability, 0.7, 1e-12);
  EXPECT_NEAR(total_probability(outcomes), 1.0, 1e-12);
}

TEST(Outcomes, ZeroProbabilityBranchesAreOmitted) {
  const Rect d{5, 5, 8, 8};
  const auto certain = action_outcomes(d, Action::kN, uniform_force(1.0));
  ASSERT_EQ(certain.size(), 1u);
  EXPECT_EQ(certain[0].droplet, d.shifted(0, 1));
  const auto impossible = action_outcomes(d, Action::kN, uniform_force(0.0));
  ASSERT_EQ(impossible.size(), 1u);
  EXPECT_EQ(impossible[0].droplet, d);
}

/// Property sweep: outcome distributions are well-formed for every action.
class OutcomeDistributionTest
    : public ::testing::TestWithParam<std::tuple<Action, double>> {};

TEST_P(OutcomeDistributionTest, SumsToOneAndStaysNonNegative) {
  const auto [action, f] = GetParam();
  const Rect d{8, 8, 12, 11};  // 5×4 interior droplet on a 20×20 grid
  const auto outcomes = action_outcomes(d, action, uniform_force(f));
  EXPECT_NEAR(total_probability(outcomes), 1.0, 1e-12);
  for (const Outcome& o : outcomes) {
    EXPECT_GT(o.probability, 0.0);
    EXPECT_LE(o.probability, 1.0 + 1e-12);
    EXPECT_TRUE(o.droplet.valid());
  }
}

TEST_P(OutcomeDistributionTest, SuccessfulOutcomeIsApplyResult) {
  const auto [action, f] = GetParam();
  if (f <= 0.0) return;
  const Rect d{8, 8, 12, 11};
  const auto outcomes = action_outcomes(d, action, uniform_force(f));
  EXPECT_EQ(outcomes.front().droplet, apply(action, d));
}

INSTANTIATE_TEST_SUITE_P(
    AllActionsAndForces, OutcomeDistributionTest,
    ::testing::Combine(::testing::ValuesIn(kAllActions),
                       ::testing::Values(0.0, 0.3, 0.7, 1.0)));

// Model builders refill one set per choice: through a sequence whose outcome
// counts rise and fall (ordinal 4, double 3, cardinal 2, then pulls at force
// 1 and 0 dropping branches), every fill must equal the by-value kernel
// element for element, with nothing left over from the fill before it.
TEST(Outcomes, ReusedBufferMatchesTheByValueKernel) {
  const Rect d{5, 5, 8, 8};
  DoubleMatrix split = uniform_force(0.6);
  for (int y = 0; y < 20; ++y) split(9, y) = 1.0;  // the eastward pull is sure
  struct Step {
    Action action;
    DoubleMatrix force;
    std::size_t outcomes;
  };
  const Step steps[] = {
      {Action::kNE, uniform_force(0.7), 4},
      {Action::kEE, uniform_force(0.7), 3},
      {Action::kN, uniform_force(0.7), 2},
      {Action::kNE, uniform_force(1.0), 1},
      {Action::kEE, uniform_force(0.0), 1},
      {Action::kNE, split, 2},
      {Action::kEE, uniform_force(0.4), 3},
      {Action::kN, uniform_force(0.0), 1},
  };
  OutcomeSet reused;
  for (const Step& step : steps) {
    const ActionEntry entry =
        resolve_action(step.action, d.width(), d.height());
    outcome_set(entry, d, MatrixForce{step.force}, reused);
    const OutcomeSet fresh = outcome_set(entry, d, MatrixForce{step.force});
    ASSERT_EQ(fresh.size(), step.outcomes) << to_string(step.action);
    ASSERT_EQ(reused.size(), fresh.size()) << to_string(step.action);
    ASSERT_EQ(reused.end() - reused.begin(),
              static_cast<std::ptrdiff_t>(fresh.size()));
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(reused.begin()[i].droplet, fresh.begin()[i].droplet)
          << to_string(step.action) << " outcome " << i;
      EXPECT_EQ(reused.begin()[i].probability, fresh.begin()[i].probability)
          << to_string(step.action) << " outcome " << i;
    }
  }
  reused.clear();
  EXPECT_TRUE(reused.empty());
  EXPECT_EQ(reused.begin(), reused.end());
}

TEST(Outcomes, MatrixOverloadRejectsOutOfBoundsFrontier) {
  const DoubleMatrix force(10, 10, 1.0);
  // Droplet at the matrix edge: the eastward frontier indexes column 10.
  const Rect d{7, 3, 9, 5};
  EXPECT_THROW(action_outcomes(d, Action::kE, force), PreconditionError);
}

TEST(ForceFromDegradation, SquaresAndClamps) {
  DoubleMatrix d(3, 1);
  d(0, 0) = 0.5;
  d(1, 0) = 1.0;
  d(2, 0) = 1.7;  // out-of-range degradations are clamped
  const DoubleMatrix f = force_from_degradation(d);
  EXPECT_DOUBLE_EQ(f(0, 0), 0.25);
  EXPECT_DOUBLE_EQ(f(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(f(2, 0), 1.0);
}

TEST(ForceFromHealth, ScaledEstimatorEndpoints) {
  IntMatrix h(4, 1);
  h(0, 0) = 0;
  h(1, 0) = 1;
  h(2, 0) = 2;
  h(3, 0) = 3;
  const DoubleMatrix f = force_from_health(h, 2, HealthEstimator::kScaled);
  EXPECT_DOUBLE_EQ(f(0, 0), 0.0);
  EXPECT_NEAR(f(1, 0), 1.0 / 9.0, 1e-12);
  EXPECT_NEAR(f(2, 0), 4.0 / 9.0, 1e-12);
  EXPECT_DOUBLE_EQ(f(3, 0), 1.0);
}

// force_from_health maps each cell through a per-code table while there are
// no more codes than cells, and estimates each cell on its own past that;
// either way every cell must be bit-for-bit the square of its estimate.
TEST(ForceFromHealth, EveryCodeMatchesTheSquaredEstimate) {
  for (const HealthEstimator estimator :
       {HealthEstimator::kScaled, HealthEstimator::kMidpoint,
        HealthEstimator::kLower, HealthEstimator::kUpper}) {
    for (int bits = 1; bits <= 16; ++bits) {
      const int levels = 1 << bits;
      // Codes highest first: every code once over two rows (the table), the
      // upper half over one row (fewer cells than codes, so per cell).
      for (const int rows : {2, 1}) {
        IntMatrix health(levels / 2, rows);
        for (std::size_t i = 0; i < health.size(); ++i)
          health.data()[i] = levels - 1 - static_cast<int>(i);
        const DoubleMatrix force = force_from_health(health, bits, estimator);
        ASSERT_EQ(force.width(), health.width());
        ASSERT_EQ(force.height(), health.height());
        int mismatches = 0;
        for (std::size_t i = 0; i < health.size(); ++i) {
          const double d =
              estimate_degradation(health.data()[i], bits, estimator);
          const double want = d * d;
          if (std::memcmp(&force.data()[i], &want, sizeof want) != 0)
            ++mismatches;
        }
        EXPECT_EQ(mismatches, 0) << "bits " << bits << " rows " << rows
                                 << " estimator "
                                 << static_cast<int>(estimator);
      }
    }
  }
}

/// Runs @p call and expects a PreconditionError whose message names
/// @p reason.
template <typename Call>
void expect_precondition(Call&& call, const std::string& reason) {
  try {
    call();
    ADD_FAILURE() << "no PreconditionError for " << reason;
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
        << e.what();
  }
}

TEST(ForceFromHealth, RejectsBitsAndCodesOutOfRange) {
  // Six cells: bits 1 and 2 take the table, bits 8 and 16 the per-cell path.
  IntMatrix health(3, 2, 1);
  for (const int bits : {0, 17, -1}) {
    expect_precondition(
        [&] { force_from_health(health, bits, HealthEstimator::kScaled); },
        "health bits out of range");
  }
  for (const int bits : {1, 2, 8, 16}) {
    for (const int code : {-1, 1 << bits}) {
      health(2, 1) = code;  // the last cell, after valid ones
      expect_precondition(
          [&] { force_from_health(health, bits, HealthEstimator::kMidpoint); },
          "health code out of range");
    }
    health(2, 1) = 1;
  }
}

TEST(FullHealthForce, AllOnes) {
  const DoubleMatrix f = full_health_force(5, 4);
  for (int y = 0; y < 4; ++y)
    for (int x = 0; x < 5; ++x) EXPECT_DOUBLE_EQ(f(x, y), 1.0);
}

}  // namespace
}  // namespace meda
