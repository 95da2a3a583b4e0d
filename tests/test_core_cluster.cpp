/// \file test_core_cluster.cpp
/// \brief Unit tests for Cluster epoch execution and the per-core accounting
///        it records.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "hw/cluster.hpp"

namespace prime::hw {
namespace {

ClusterParams quiet_params() {
  ClusterParams p;
  p.cores = 4;
  p.initial_opp = 9;
  return p;
}

/// One epoch of \p work (entry i on core i) within \p period, compute-bound.
EpochScratch run(Cluster& c, const std::vector<common::Cycles>& work,
                 common::Seconds period) {
  EpochScratch r;
  c.run_epoch_into(work.data(), work.size(), period, 0.0, 1.0e9, r);
  return r;
}

/// A one-core cluster on a single operating point, so core 0's accounting
/// is the cluster's per-core accounting.
Cluster one_core(const OppTable& t) {
  ClusterParams p;
  p.cores = 1;
  p.initial_opp = 0;
  return Cluster(t, p);
}

TEST(Core, BusyTimeIsWorkOverFrequency) {
  const OppTable t({{0, common::ghz(1.0), 1.0}});
  Cluster c = one_core(t);
  const EpochScratch r = run(c, {10000000}, 0.040);
  EXPECT_NEAR(r.core_busy[0], 0.010, 1e-9);
  EXPECT_NEAR(c.core(0).pmu().snapshot().idle_time, 0.030, 1e-9);
}

TEST(Core, OverrunYieldsZeroIdle) {
  const OppTable t({{0, common::mhz(200.0), 0.9}});
  Cluster c = one_core(t);
  const EpochScratch r = run(c, {100000000}, 0.040);
  EXPECT_GT(r.core_busy[0], 0.040);
  EXPECT_DOUBLE_EQ(c.core(0).pmu().snapshot().idle_time, 0.0);
}

TEST(Core, EnergyPositiveEvenWhenIdle) {
  const OppTable t({{0, common::ghz(1.0), 1.0}});
  Cluster c = one_core(t);
  const EpochScratch r = run(c, {0}, 0.040);
  EXPECT_DOUBLE_EQ(r.core_busy[0], 0.0);
  EXPECT_GT(c.core(0).total_energy(), 0.0);  // idle + leakage power
}

TEST(Core, PmuAccumulatesAcrossEpochs) {
  const OppTable t({{0, common::ghz(1.0), 1.0}});
  Cluster c = one_core(t);
  run(c, {1000}, 0.040);
  run(c, {2000}, 0.040);
  EXPECT_EQ(c.core(0).pmu().snapshot().cycles, 3000u);
  EXPECT_GT(c.core(0).total_energy(), 0.0);
}

TEST(Core, ResetClearsAccounting) {
  const OppTable t({{0, common::ghz(1.0), 1.0}});
  Cluster c = one_core(t);
  run(c, {1000}, 0.040);
  c.reset();
  EXPECT_EQ(c.core(0).pmu().snapshot().cycles, 0u);
  EXPECT_DOUBLE_EQ(c.core(0).total_energy(), 0.0);
}

TEST(Core, EnergyMatchesThePowerModelAtEveryOpp) {
  // The cluster takes a core's power terms from its per-OPP coefficient
  // table; they must give, bit for bit, what the PowerModel gives per core:
  // active power while busy, idle power for the rest of the window, leakage
  // at the die temperature the epoch starts at for the whole window. Exact
  // equality on purpose: splitting the leakage term into two products moves
  // only the last bits, which EXPECT_DOUBLE_EQ (4 ulps) lets through.
  const OppTable t = OppTable::odroid_xu3_a15();
  for (std::size_t opp = 0; opp < t.size(); ++opp) {
    for (const common::Cycles work : {common::Cycles{0},
                                      common::Cycles{4000000},
                                      common::Cycles{90000000}}) {
      SCOPED_TRACE(testing::Message() << "opp " << opp << ", work " << work);
      Cluster c(t, quiet_params());
      (void)c.set_opp(opp);
      const common::Celsius temperature = c.thermal().temperature();
      const EpochScratch r = run(c, {work, 1000000}, 0.040);

      const PowerModel& model = c.power_model();
      const Opp& point = t.at(opp);
      const common::Seconds busy =
          work == 0 ? 0.0 : common::time_for(work, point.frequency);
      const common::Seconds idle = std::max(0.0, r.window - busy);
      const common::Joule expected =
          model.active_power(point) * busy + model.idle_power(point) * idle +
          model.leakage_power(point.voltage, temperature) * (busy + idle);
      EXPECT_EQ(c.core(0).total_energy(), expected);
    }
  }
}

TEST(Cluster, FrameTimeIsSlowetCore) {
  const OppTable t = OppTable::odroid_xu3_a15();
  Cluster c(t, quiet_params());
  // Core 2 gets double work: it defines the frame time.
  const auto opp = c.current_opp();
  const common::Cycles base = 10000000;
  const auto r = run(c, {base, base, 2 * base, base}, 0.040);
  EXPECT_NEAR(r.frame_time, common::time_for(2 * base, opp.frequency), 1e-9);
}

TEST(Cluster, DeadlineDetection) {
  const OppTable t = OppTable::odroid_xu3_a15();
  Cluster c(t, quiet_params());
  const auto light = run(c, {1000, 1000, 1000, 1000}, 0.040);
  EXPECT_TRUE(light.deadline_met);
  EXPECT_DOUBLE_EQ(light.window, 0.040);  // early finish pads to the period
  c.set_opp(0);
  const auto heavy = run(c, {50000000, 0, 0, 0}, 0.040);
  EXPECT_FALSE(heavy.deadline_met);
  EXPECT_GT(heavy.window, 0.040);  // overrun extends the window
}

TEST(Cluster, DvfsStallChargedToNextEpoch) {
  const OppTable t = OppTable::odroid_xu3_a15();
  Cluster c(t, quiet_params());
  const double stall = c.set_opp(18);
  EXPECT_GT(stall, 0.0);
  const auto r = run(c, {1000, 1000, 1000, 1000}, 0.040);
  EXPECT_DOUBLE_EQ(r.dvfs_stall, stall);
  const auto r2 = run(c, {1000, 1000, 1000, 1000}, 0.040);
  EXPECT_DOUBLE_EQ(r2.dvfs_stall, 0.0);  // consumed
}

TEST(Cluster, EnergyGrowsWithFrequencyForFixedWindow) {
  const OppTable t = OppTable::odroid_xu3_a15();
  const std::vector<common::Cycles> work{5000000, 5000000, 5000000, 5000000};
  Cluster slow(t, quiet_params());
  slow.set_opp(2);
  Cluster fast(t, quiet_params());
  fast.set_opp(18);
  const auto rs = run(slow, work, 0.040);
  const auto rf = run(fast, work, 0.040);
  ASSERT_TRUE(rs.deadline_met);
  ASSERT_TRUE(rf.deadline_met);
  // Same work, same 40 ms window: the faster/higher-V run burns more energy
  // (race-to-idle does not pay off under quadratic voltage cost).
  EXPECT_GT(rf.energy, rs.energy);
}

TEST(Cluster, MissingWorkEntriesMeanIdleCores) {
  const OppTable t = OppTable::odroid_xu3_a15();
  Cluster c(t, quiet_params());
  const auto r = run(c, {10000000}, 0.040);
  EXPECT_EQ(r.core_cycles.size(), 4u);
  EXPECT_EQ(r.core_cycles[1], 0u);
  EXPECT_DOUBLE_EQ(r.core_busy[3], 0.0);
}

TEST(Cluster, TemperatureRisesUnderLoad) {
  const OppTable t = OppTable::odroid_xu3_a15();
  ClusterParams p = quiet_params();
  p.thermal.t_init = 30.0;
  Cluster c(t, p);
  c.set_opp(18);
  double last = 30.0;
  for (int i = 0; i < 50; ++i) {
    const auto r = run(c, {60000000, 60000000, 60000000, 60000000}, 0.040);
    last = r.temperature;
  }
  EXPECT_GT(last, 45.0);
}

TEST(Cluster, TotalsAccumulateAndReset) {
  const OppTable t = OppTable::odroid_xu3_a15();
  Cluster c(t, quiet_params());
  run(c, {1000000, 1000000, 1000000, 1000000}, 0.040);
  run(c, {1000000, 1000000, 1000000, 1000000}, 0.040);
  EXPECT_NEAR(c.total_time(), 0.080, 1e-9);
  EXPECT_GT(c.total_energy(), 0.0);
  c.reset();
  EXPECT_DOUBLE_EQ(c.total_time(), 0.0);
  EXPECT_DOUBLE_EQ(c.total_energy(), 0.0);
  EXPECT_EQ(c.current_opp_index(), quiet_params().initial_opp);
}

TEST(Cluster, AvgPowerConsistentWithEnergy) {
  const OppTable t = OppTable::odroid_xu3_a15();
  Cluster c(t, quiet_params());
  const auto r = run(c, {20000000, 20000000, 20000000, 20000000}, 0.040);
  EXPECT_NEAR(r.avg_power * r.window, r.energy, 1e-9);
}

/// Property: across all OPPs, executing a feasible fixed workload to the
/// deadline consumes monotonically more energy at higher OPPs (idle-padded).
class ClusterOppSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ClusterOppSweep, FeasibleEpochAccountingInvariants) {
  const OppTable t = OppTable::odroid_xu3_a15();
  Cluster c(t, quiet_params());
  c.set_opp(GetParam());
  const auto r = run(c, {4000000, 4000000, 4000000, 4000000}, 0.040);
  EXPECT_GT(r.energy, 0.0);
  EXPECT_GE(r.window, r.frame_time - 1e-12);
  EXPECT_EQ(r.core_cycles.size(), 4u);
  EXPECT_NEAR(r.avg_power * r.window, r.energy, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllOpps, ClusterOppSweep,
                         ::testing::Range(std::size_t{0}, std::size_t{19},
                                          std::size_t{3}));

}  // namespace
}  // namespace prime::hw
