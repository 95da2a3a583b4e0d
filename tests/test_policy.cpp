/// \file test_policy.cpp
/// \brief Unit tests for EPD/UPD exploration (eq. 2) and the eq. (6) schedule.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "rtm/policy.hpp"

namespace prime::rtm {
namespace {

TEST(EpdPolicy, UniformAtZeroSlack) {
  const EpdPolicy epd;
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  const auto p = epd.probabilities(opps, 0.0);
  ASSERT_EQ(p.size(), opps.size());
  for (const double v : p) EXPECT_NEAR(v, 1.0 / 19.0, 1e-12);
}

TEST(EpdPolicy, PositiveSlackFavoursSlowOpps) {
  const EpdPolicy epd;
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  const auto p = epd.probabilities(opps, 0.4);
  EXPECT_GT(p.front(), p.back());
  // Monotone decreasing in frequency.
  for (std::size_t i = 1; i < p.size(); ++i) EXPECT_LT(p[i], p[i - 1]);
}

TEST(EpdPolicy, NegativeSlackFavoursFastOpps) {
  const EpdPolicy epd;
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  const auto p = epd.probabilities(opps, -0.4);
  EXPECT_GT(p.back(), p.front());
}

TEST(EpdPolicy, ProbabilitiesNormalised) {
  const EpdPolicy epd(5.0);
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  for (double slack : {-0.5, -0.1, 0.0, 0.2, 0.5}) {
    const auto p = epd.probabilities(opps, slack);
    EXPECT_NEAR(std::accumulate(p.begin(), p.end(), 0.0), 1.0, 1e-9);
  }
}

TEST(EpdPolicy, LargerBetaConcentratesHarder) {
  const EpdPolicy mild(1.0);
  const EpdPolicy sharp(8.0);
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  const auto pm = mild.probabilities(opps, 0.4);
  const auto ps = sharp.probabilities(opps, 0.4);
  EXPECT_GT(ps.front(), pm.front());
}

TEST(EpdPolicy, SamplingFollowsDistribution) {
  const EpdPolicy epd;
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  common::Rng rng(3);
  const int n = 20000;
  std::vector<int> counts(opps.size(), 0);
  for (int i = 0; i < n; ++i) ++counts[epd.sample(opps, 0.4, rng)];
  // Slow half should receive clearly more samples than the fast half.
  int slow = 0;
  int fast = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    (i < counts.size() / 2 ? slow : fast) += counts[i];
  }
  EXPECT_GT(slow, fast * 3 / 2);
}

// sample() reuses one scratch buffer across tables that grow and shrink,
// and picks exactly what the documented distribution would, draw for draw.
TEST(EpdPolicy, SampleMatchesDiscreteOverProbabilities) {
  const EpdPolicy epd(4.0);
  for (const std::size_t n : {1, 19, 4, 100, 19}) {
    SCOPED_TRACE(n);
    const hw::OppTable opps =
        hw::OppTable::linear(n, 200.0e6, 2000.0e6, 0.9, 1.3);
    common::Rng sampled(11);
    common::Rng reference(11);
    for (int i = 0; i < 500; ++i) {
      const double slack = -0.5 + 0.002 * i;
      ASSERT_EQ(epd.sample(opps, slack, sampled),
                reference.discrete(epd.probabilities(opps, slack)))
          << "draw " << i;
    }
  }
}

TEST(UpdPolicy, UniformRegardlessOfSlack) {
  const UpdPolicy upd;
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  for (double slack : {-0.5, 0.0, 0.5}) {
    const auto p = upd.probabilities(opps, slack);
    for (const double v : p) EXPECT_NEAR(v, 1.0 / 19.0, 1e-12);
  }
}

TEST(MakePolicy, Factory) {
  EXPECT_EQ(make_policy("epd")->name(), "epd");
  EXPECT_EQ(make_policy("upd")->name(), "upd");
  EXPECT_THROW(make_policy("thompson"), std::invalid_argument);
}

TEST(EpsilonSchedule, RejectsBadAlpha) {
  EpsilonSchedule::Params p;
  p.alpha = 1.0;
  EXPECT_THROW(EpsilonSchedule{p}, std::invalid_argument);
  p.alpha = -0.1;
  EXPECT_THROW(EpsilonSchedule{p}, std::invalid_argument);
}

TEST(EpsilonSchedule, Eq6DecayAcceleratesWithEpoch) {
  EpsilonSchedule s;  // paper eq. (6) by default
  const double e0 = s.value();
  s.advance();
  const double drop1 = e0 - s.value();
  for (int i = 0; i < 98; ++i) s.advance();
  const double before = s.value();
  s.advance();
  const double drop100 = before - s.value();
  EXPECT_GT(drop100, drop1);  // super-exponential collapse
}

TEST(EpsilonSchedule, StaysHighEarlyThenCollapses) {
  EpsilonSchedule s;
  for (int i = 0; i < 40; ++i) s.advance();
  EXPECT_GT(s.value(), 0.5);  // still mostly exploring at epoch 40
  for (int i = 0; i < 200; ++i) s.advance();
  EXPECT_TRUE(s.converged());
}

TEST(EpsilonSchedule, RewardBoostAcceleratesConvergence) {
  EpsilonSchedule plain;
  EpsilonSchedule boosted;
  for (int i = 0; i < 500; ++i) {
    plain.advance(0.0);
    boosted.advance(1.0);
  }
  EXPECT_TRUE(plain.converged());
  EXPECT_TRUE(boosted.converged());
  EXPECT_LT(boosted.convergence_epoch(), plain.convergence_epoch());
}

TEST(EpsilonSchedule, GeometricModeIsConstantRate) {
  EpsilonSchedule::Params p;
  p.decay = EpsilonDecay::kGeometric;
  p.alpha = 0.99;
  EpsilonSchedule s(p);
  const double r1 = [&] {
    const double before = s.value();
    s.advance();
    return s.value() / before;
  }();
  const double r2 = [&] {
    const double before = s.value();
    s.advance();
    return s.value() / before;
  }();
  EXPECT_NEAR(r1, r2, 1e-12);
  EXPECT_NEAR(r1, std::exp(-0.01), 1e-12);
}

TEST(EpsilonSchedule, FloorIsSticky) {
  EpsilonSchedule s;
  for (int i = 0; i < 1000; ++i) s.advance();
  EXPECT_DOUBLE_EQ(s.value(), s.params().epsilon_min);
  const std::size_t conv = s.convergence_epoch();
  s.advance();
  EXPECT_EQ(s.convergence_epoch(), conv);  // first crossing is recorded once
}

TEST(EpsilonSchedule, FloorShortcutMatchesFullDecay) {
  // advance() skips its exp once settled at the floor. Pin that against the
  // full eq. (6) arithmetic bit for bit, including floors of 0, a negative
  // reward boost (exponent < 0 lifts epsilon off the floor) and NaN pay-offs.
  struct Case {
    double epsilon0, alpha, floor, boost;
    EpsilonDecay decay;
  };
  const Case cases[] = {{1.0, 0.9993, 0.01, 1.0, EpsilonDecay::kPaperEq6},
                        {1.0, 0.9, 0.0, 1.0, EpsilonDecay::kPaperEq6},
                        {0.5, 0.99, 0.05, 1.0, EpsilonDecay::kGeometric},
                        {0.01, 0.99, 0.01, 1.0, EpsilonDecay::kPaperEq6},
                        {1.0, 0.9, 0.01, -50.0, EpsilonDecay::kGeometric}};
  const double payoffs[] = {0.0, 0.7, -0.2, std::nan(""), 3.0};
  for (const Case& c : cases) {
    EpsilonSchedule::Params p;
    p.epsilon0 = c.epsilon0;
    p.alpha = c.alpha;
    p.epsilon_min = c.floor;
    p.reward_boost = c.boost;
    p.decay = c.decay;
    EpsilonSchedule s(p);
    double eps = c.epsilon0;
    std::size_t conv = 0;
    for (std::size_t epoch = 1; epoch <= 3000; ++epoch) {
      const double payoff = payoffs[epoch % std::size(payoffs)];
      s.advance(payoff);
      double exponent =
          (1.0 - c.alpha) * (1.0 + c.boost * (payoff > 0.0 ? payoff : 0.0));
      if (c.decay == EpsilonDecay::kPaperEq6) {
        exponent *= static_cast<double>(epoch);
      }
      eps *= std::exp(-exponent);
      if (eps < c.floor) {
        eps = c.floor;
        if (conv == 0) conv = epoch;
      }
      ASSERT_EQ(std::bit_cast<std::uint64_t>(s.value()),
                std::bit_cast<std::uint64_t>(eps))
          << "epoch " << epoch << " floor " << c.floor;
      ASSERT_EQ(s.convergence_epoch(), conv) << "epoch " << epoch;
    }
  }
}

TEST(EpsilonSchedule, ShouldExploreMatchesEpsilon) {
  EpsilonSchedule::Params p;
  p.epsilon0 = 0.25;
  p.alpha = 0.999999;  // effectively frozen
  EpsilonSchedule s(p);
  common::Rng rng(5);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (s.should_explore(rng)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(EpsilonSchedule, ResetRestores) {
  EpsilonSchedule s;
  for (int i = 0; i < 300; ++i) s.advance();
  s.reset();
  EXPECT_DOUBLE_EQ(s.value(), s.params().epsilon0);
  EXPECT_EQ(s.epoch(), 0u);
  EXPECT_EQ(s.convergence_epoch(), 0u);
}

}  // namespace
}  // namespace prime::rtm
