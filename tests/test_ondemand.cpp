/// \file test_ondemand.cpp
/// \brief Unit tests for the Linux ondemand governor reimplementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "gov/ondemand.hpp"

namespace prime::gov {
namespace {

DecisionContext make_ctx(const hw::OppTable& opps) {
  DecisionContext ctx;
  ctx.period = 0.040;
  ctx.cores = 4;
  ctx.opps = &opps;
  return ctx;
}

/// An observation where the busiest core was busy `load` of a 40 ms window
/// while running at OPP `opp_index`.
EpochObservation obs_with_load(const hw::OppTable& opps, std::size_t opp_index,
                               double load) {
  EpochObservation o;
  o.period = 0.040;
  o.window = 0.040;
  o.frame_time = load * 0.040;
  o.opp_index = opp_index;
  const common::Hertz f = opps.at(opp_index).frequency;
  o.core_cycles = {common::cycles_at(f, load * 0.040), 0, 0, 0};
  o.total_cycles = o.core_cycles[0];
  o.deadline_met = o.frame_time <= o.period;
  return o;
}

TEST(Ondemand, FirstDecisionStartsHigh) {
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  OndemandGovernor g;
  EXPECT_EQ(g.decide(make_ctx(opps), std::nullopt), 18u);
}

TEST(Ondemand, JumpsToMaxAboveThreshold) {
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  OndemandGovernor g;
  (void)g.decide(make_ctx(opps), std::nullopt);
  const auto next = g.decide(make_ctx(opps), obs_with_load(opps, 9, 0.97));
  EXPECT_EQ(next, 18u);
}

TEST(Ondemand, ScalesDownProportionally) {
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  OndemandGovernor g;
  (void)g.decide(make_ctx(opps), std::nullopt);
  // 30 % load at 2000 MHz -> busy_hz = 600 MHz -> target ~ 600/0.72 = 833 MHz
  // -> lowest OPP >= 833 = 900 MHz (index 7).
  const auto next = g.decide(make_ctx(opps), obs_with_load(opps, 18, 0.30));
  EXPECT_EQ(next, opps.lowest_at_least(common::mhz(600.0) / 0.72));
}

TEST(Ondemand, SteadyModerateLoadSettles) {
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  OndemandGovernor g;
  auto ctx = make_ctx(opps);
  std::size_t idx = g.decide(ctx, std::nullopt);
  // Feed a constant cycle demand; the governor should stop moving.
  const common::Cycles demand = 40000000;  // 1 GHz-ms scale work
  std::size_t prev = idx;
  int stable = 0;
  for (int i = 0; i < 30; ++i) {
    EpochObservation o;
    o.period = 0.040;
    o.opp_index = idx;
    const common::Hertz f = opps.at(idx).frequency;
    o.frame_time = common::time_for(demand, f);
    o.window = std::max(o.frame_time, o.period);
    o.core_cycles = {demand, 0, 0, 0};
    o.deadline_met = o.frame_time <= o.period;
    idx = g.decide(ctx, o);
    if (idx == prev) ++stable;
    prev = idx;
  }
  EXPECT_GT(stable, 20);
}

TEST(Ondemand, SamplingRateHoldsBetweenSamples) {
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  OndemandParams p;
  p.sampling_epochs = 3;
  OndemandGovernor g(p);
  auto ctx = make_ctx(opps);
  const std::size_t first = g.decide(ctx, std::nullopt);
  // Low load would normally trigger down-scaling, but two of the next three
  // decisions fall between samples and must hold.
  const auto o = obs_with_load(opps, first, 0.10);
  const std::size_t a = g.decide(ctx, o);
  const std::size_t b = g.decide(ctx, o);
  const std::size_t c = g.decide(ctx, o);
  EXPECT_EQ(a, first);
  EXPECT_EQ(b, first);
  EXPECT_NE(c, first);
}

TEST(Ondemand, ResetForgetsState) {
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  OndemandGovernor g;
  auto ctx = make_ctx(opps);
  (void)g.decide(ctx, std::nullopt);
  (void)g.decide(ctx, obs_with_load(opps, 18, 0.2));
  g.reset();
  EXPECT_EQ(g.decide(ctx, std::nullopt), 18u);
}

TEST(Ondemand, IgnoresDeadlinesByDesign) {
  // The paper's critique: ondemand is agnostic of performance requirements.
  // Same load at two different periods must give the same decision.
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  OndemandGovernor g1;
  OndemandGovernor g2;
  auto ctx1 = make_ctx(opps);
  auto ctx2 = make_ctx(opps);
  ctx2.period = 0.010;
  (void)g1.decide(ctx1, std::nullopt);
  (void)g2.decide(ctx2, std::nullopt);
  auto o = obs_with_load(opps, 18, 0.5);
  EXPECT_EQ(g1.decide(ctx1, o), g2.decide(ctx2, o));
}

// ondemand, schedutil and conservative read the busiest core's load through
// EpochObservation::busiest_load, which divides the largest cycle count once.
// It must give the bits of the per-core loop it replaced.
TEST(EpochObservation, BusiestLoadIsTheLargestPerCoreLoadBitForBit) {
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  common::Rng rng(20170327);
  for (int i = 0; i < 20000; ++i) {
    EpochObservation o;
    o.window = i % 50 == 0 ? 0.0 : rng.uniform(1e-5, 0.2);
    std::vector<common::Cycles> cycles(
        static_cast<std::size_t>(rng.uniform_int(0, 16)));
    for (auto& c : cycles) {
      c = rng.next_u64() >> rng.uniform_int(1, 63);
    }
    o.core_cycles = cycles;
    const common::Hertz f =
        opps.at(static_cast<std::size_t>(rng.uniform_int(0, 18))).frequency;
    double expected = 0.0;
    for (const common::Cycles c : cycles) {
      const double busy = common::time_for(c, f);
      expected = std::max(expected, o.window > 0.0 ? busy / o.window : 0.0);
    }
    ASSERT_EQ(std::bit_cast<std::uint64_t>(o.busiest_load(f)),
              std::bit_cast<std::uint64_t>(expected))
        << "draw " << i << ": " << cycles.size() << " cores, window "
        << o.window << ", f " << f;
  }
}

}  // namespace
}  // namespace prime::gov
