/// \file test_platform.cpp
/// \brief Unit tests for the board-level platform assembly.
#include <gtest/gtest.h>

#include "common/config.hpp"
#include "hw/platform.hpp"

namespace prime::hw {
namespace {

TEST(Platform, OdroidXu3Defaults) {
  const auto p = Platform::odroid_xu3_a15();
  EXPECT_EQ(p->name(), "odroid-xu3-a15");
  EXPECT_EQ(p->cluster().core_count(), 4u);
  EXPECT_EQ(p->opp_table().size(), 19u);
  // cpufreq-style mid-table boot frequency.
  EXPECT_EQ(p->cluster().current_opp_index(), 9u);
}

TEST(Platform, OppTableAddressStableAndShared) {
  const auto p = Platform::odroid_xu3_a15();
  EXPECT_EQ(&p->cluster().opp_table(), &p->opp_table());
}

TEST(Platform, ResetRestoresClusterAndSensor) {
  auto p = Platform::odroid_xu3_a15();
  (void)p->cluster().set_opp(18);
  const common::Cycles work[] = {1000000, 0, 0, 0};
  EpochScratch epoch;
  p->cluster().run_epoch_into(work, 4, 0.040, 0.0, 1.0e9, epoch);
  (void)p->power_sensor().integrate(3.0, 0.040);
  p->reset();
  EXPECT_EQ(p->cluster().current_opp_index(), 9u);
  EXPECT_DOUBLE_EQ(p->cluster().total_energy(), 0.0);
  EXPECT_DOUBLE_EQ(p->power_sensor().measured_energy(), 0.0);
}

TEST(Platform, FromConfigDefaultsMatchXu3) {
  common::Config cfg;
  const auto p = Platform::from_config(cfg);
  EXPECT_EQ(p->cluster().core_count(), 4u);
  EXPECT_EQ(p->opp_table().size(), 19u);
}

TEST(Platform, FromConfigOverrides) {
  common::Config cfg;
  cfg.set_int("hw.cores", 8);
  cfg.set_int("hw.opps", 10);
  cfg.set_double("hw.fmin_mhz", 400.0);
  cfg.set_double("hw.fmax_mhz", 1600.0);
  cfg.set("hw.name", "custom");
  const auto p = Platform::from_config(cfg);
  EXPECT_EQ(p->cluster().core_count(), 8u);
  EXPECT_EQ(p->opp_table().size(), 10u);
  EXPECT_DOUBLE_EQ(p->opp_table().min().frequency, common::mhz(400.0));
  EXPECT_DOUBLE_EQ(p->opp_table().max().frequency, common::mhz(1600.0));
  EXPECT_EQ(p->name(), "custom");
}

TEST(Platform, SensorSeedMakesDistinctBoards) {
  auto a = Platform::odroid_xu3_a15(1);
  auto b = Platform::odroid_xu3_a15(2);
  // Different sensor devices have (almost surely) different gain errors.
  EXPECT_NE(a->power_sensor().gain(), b->power_sensor().gain());
}

}  // namespace
}  // namespace prime::hw
