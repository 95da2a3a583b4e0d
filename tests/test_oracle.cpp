/// \file test_oracle.cpp
/// \brief Unit tests for the clairvoyant Oracle governor.
#include <gtest/gtest.h>

#include <array>

#include "gov/oracle.hpp"

namespace prime::gov {
namespace {

constexpr std::size_t kSlots[] = {0, 1, 2, 3};

/// A four-slot frame whose busiest core carries \p busiest cycles (the
/// others a quarter of it), seen over every slot.
struct Frame {
  explicit Frame(common::Cycles busiest, double mem = 0.0)
      : work{busiest / 4, busiest, busiest / 4, busiest / 4},
        mem_fraction(mem) {}
  std::array<common::Cycles, 4> work;
  double mem_fraction;
};

DecisionContext make_ctx(const hw::OppTable& opps, const Frame* frame,
                         double period = 0.040) {
  DecisionContext ctx;
  ctx.period = period;
  ctx.cores = 4;
  ctx.opps = &opps;
  if (frame != nullptr) {
    ctx.work = frame->work.data();
    ctx.slots = kSlots;
    ctx.mem_fraction = frame->mem_fraction;
  }
  return ctx;
}

TEST(Oracle, PicksLowestFeasibleFrequency) {
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  OracleParams p;
  p.guard_band = 0.0;
  OracleGovernor g(p);
  // 36 Mcycles on the critical core in 40 ms -> needs >= 900 MHz.
  const Frame frame(36000000);
  EXPECT_EQ(g.decide(make_ctx(opps, &frame), std::nullopt),
            opps.lowest_at_least(36000000.0 / 0.040));
}

TEST(Oracle, GuardBandRaisesChoice) {
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  OracleParams loose;
  loose.guard_band = 0.0;
  OracleParams tight;
  tight.guard_band = 0.15;
  OracleGovernor a(loose);
  OracleGovernor b(tight);
  // Demand right at a 1000 MHz boundary.
  const Frame frame(40000000);
  const auto ia = a.decide(make_ctx(opps, &frame), std::nullopt);
  const auto ib = b.decide(make_ctx(opps, &frame), std::nullopt);
  EXPECT_GT(ib, ia);
}

TEST(Oracle, InfeasibleDemandUsesFastest) {
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  OracleGovernor g;
  const Frame frame(1000000000);  // 1 Gcycle in 40 ms
  EXPECT_EQ(g.decide(make_ctx(opps, &frame), std::nullopt), 18u);
}

TEST(Oracle, WithoutFrameDefaultsToFastest) {
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  OracleGovernor g;
  EXPECT_EQ(g.decide(make_ctx(opps, nullptr), std::nullopt), 18u);
}

TEST(Oracle, EachDecisionStandsAlone) {
  // Stateless: the same frame decides the same every time, and a context
  // without a frame falls back to the fastest OPP whatever came before.
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  OracleParams p;
  p.guard_band = 0.0;
  OracleGovernor g(p);
  const Frame light(1000000);  // trivially light
  EXPECT_EQ(g.decide(make_ctx(opps, &light), std::nullopt), 0u);
  EXPECT_EQ(g.decide(make_ctx(opps, &light), std::nullopt), 0u);
  EXPECT_EQ(g.decide(make_ctx(opps, nullptr), std::nullopt), 18u);
  EXPECT_EQ(g.decide(make_ctx(opps, &light), std::nullopt), 0u);
}

TEST(Oracle, ScalesWithPeriod) {
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  OracleParams p;
  p.guard_band = 0.0;
  OracleGovernor g(p);
  const Frame frame(36000000);
  const auto at40 = g.decide(make_ctx(opps, &frame, 0.040), std::nullopt);
  const auto at20 = g.decide(make_ctx(opps, &frame, 0.020), std::nullopt);
  EXPECT_GT(at20, at40);  // shorter deadline needs a faster OPP
}

TEST(Oracle, NoLearningOverhead) {
  OracleGovernor g;
  EXPECT_DOUBLE_EQ(g.epoch_overhead(), 0.0);
}

TEST(Oracle, TakesTheMaximumOverItsOwnSlots) {
  // Two domains of two slots: each decision sizes its V-F for the busiest
  // of its own slots, not of the board.
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  OracleParams p;
  p.guard_band = 0.0;
  OracleGovernor g(p);
  const std::array<common::Cycles, 4> work{8000000, 12000000, 36000000,
                                           4000000};
  constexpr std::size_t kLow[] = {0, 1};
  constexpr std::size_t kHigh[] = {2, 3};
  DecisionContext ctx = make_ctx(opps, nullptr);
  ctx.work = work.data();
  ctx.slots = kLow;
  EXPECT_EQ(g.decide(ctx, std::nullopt),
            opps.lowest_at_least(12000000.0 / 0.040));
  ctx.slots = kHigh;
  EXPECT_EQ(g.decide(ctx, std::nullopt),
            opps.lowest_at_least(36000000.0 / 0.040));
  // No slots, no work: the slowest OPP.
  ctx.slots = {};
  EXPECT_EQ(g.decide(ctx, std::nullopt), 0u);
}

TEST(Oracle, MemoryStallsAtTheKernelReferenceFrequency) {
  // Half of the frame stalls on memory for m*c/f_ref, whatever the clock:
  // the compute half must fit what is left of the period.
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  OracleParams p;
  p.guard_band = 0.0;
  OracleGovernor g(p);
  const Frame frame(20000000, 0.5);
  const double stall = 0.5 * 20000000.0 / hw::kMemRefFrequency;
  EXPECT_EQ(g.decide(make_ctx(opps, &frame), std::nullopt),
            opps.lowest_at_least(0.5 * 20000000.0 / (0.040 - stall)));
}

/// Property: the Oracle's choice always meets the deadline when feasible, and
/// the next-lower OPP would not.
class OracleDemandSweep : public ::testing::TestWithParam<double> {};

TEST_P(OracleDemandSweep, ChoiceIsTightlyOptimal) {
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  OracleParams p;
  p.guard_band = 0.0;
  OracleGovernor g(p);
  const double period = 0.040;
  const auto demand = static_cast<common::Cycles>(GetParam() * 1.0e6);
  const Frame frame(demand);
  const std::size_t idx =
      g.decide(make_ctx(opps, &frame, period), std::nullopt);
  const double t_at = common::time_for(demand, opps.at(idx).frequency);
  if (t_at <= period) {
    if (idx > 0) {
      EXPECT_GT(common::time_for(demand, opps.at(idx - 1).frequency), period);
    }
  } else {
    EXPECT_EQ(idx, opps.size() - 1);  // infeasible -> fastest
  }
}

INSTANTIATE_TEST_SUITE_P(Demands, OracleDemandSweep,
                         ::testing::Values(1.0, 8.0, 20.0, 36.0, 44.0, 60.0,
                                           79.9, 80.1, 120.0));

}  // namespace
}  // namespace prime::gov
