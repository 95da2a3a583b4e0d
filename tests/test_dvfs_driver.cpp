/// \file test_dvfs_driver.cpp
/// \brief Unit tests for the DVFS driver transition-cost model.
#include <gtest/gtest.h>

#include <sstream>

#include "common/serial.hpp"
#include "hw/dvfs_driver.hpp"

namespace prime::hw {
namespace {

TEST(DvfsDriver, StartsAtRequestedIndex) {
  const OppTable t = OppTable::odroid_xu3_a15();
  const DvfsDriver d(t, 9);
  EXPECT_EQ(d.current_index(), 9u);
  EXPECT_DOUBLE_EQ(d.current().frequency, common::mhz(1100.0));
}

TEST(DvfsDriver, InitialIndexClamped) {
  const OppTable t = OppTable::odroid_xu3_a15();
  const DvfsDriver d(t, 999);
  EXPECT_EQ(d.current_index(), 18u);
}

TEST(DvfsDriver, NoOpSwitchCostsNothing) {
  const OppTable t = OppTable::odroid_xu3_a15();
  DvfsDriver d(t, 5);
  EXPECT_DOUBLE_EQ(d.set_opp(5), 0.0);
  EXPECT_EQ(d.transition_count(), 0u);
}

TEST(DvfsDriver, TransitionCostGrowsWithDistance) {
  const OppTable t = OppTable::odroid_xu3_a15();
  DvfsDriver near(t, 9);
  DvfsDriver far(t, 9);
  const double small = near.set_opp(10);
  const double big = far.set_opp(18);
  EXPECT_GT(small, 0.0);
  EXPECT_GT(big, small);
}

TEST(DvfsDriver, BaseLatencyMatchesParams) {
  const OppTable t = OppTable::odroid_xu3_a15();
  DvfsDriverParams p;
  p.transition_latency = common::us(100.0);
  p.latency_per_step = common::us(5.0);
  DvfsDriver d(t, 0, p);
  // One 100 MHz step: 100 us + 5 us.
  EXPECT_NEAR(d.set_opp(1), common::us(105.0), 1e-12);
}

TEST(DvfsDriver, CountsTransitionsAndStall) {
  const OppTable t = OppTable::odroid_xu3_a15();
  DvfsDriver d(t, 0);
  (void)d.set_opp(5);
  (void)d.set_opp(5);  // no-op
  (void)d.set_opp(2);
  EXPECT_EQ(d.transition_count(), 2u);
  EXPECT_GT(d.total_stall(), 0.0);
}

TEST(DvfsDriver, TargetClamped) {
  const OppTable t = OppTable::odroid_xu3_a15();
  DvfsDriver d(t, 0);
  (void)d.set_opp(1000);
  EXPECT_EQ(d.current_index(), 18u);
}

// current() indexes the table unchecked, so every way in keeps the index in
// range: the constructor and set_opp() clamp it, and load_state() rejects a
// saved index the table does not have and leaves the driver as it was.
TEST(DvfsDriver, LoadStateRejectsAnOutOfRangeIndex) {
  const OppTable t = OppTable::odroid_xu3_a15();
  std::stringstream bytes;
  common::StateWriter out(bytes);
  out.size(t.size());
  out.size(0);
  out.f64(0.0);
  DvfsDriver d(t, 4);
  common::StateReader in(bytes);
  EXPECT_THROW(d.load_state(in), common::SerialError);
  EXPECT_EQ(d.current_index(), 4u);
  EXPECT_DOUBLE_EQ(d.current().frequency, t.at(4).frequency);
}

TEST(DvfsDriver, ResetCountersKeepsOpp) {
  const OppTable t = OppTable::odroid_xu3_a15();
  DvfsDriver d(t, 0);
  (void)d.set_opp(7);
  d.reset_counters();
  EXPECT_EQ(d.transition_count(), 0u);
  EXPECT_DOUBLE_EQ(d.total_stall(), 0.0);
  EXPECT_EQ(d.current_index(), 7u);
}

}  // namespace
}  // namespace prime::hw
