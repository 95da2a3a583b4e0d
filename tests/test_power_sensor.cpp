/// \file test_power_sensor.cpp
/// \brief Unit tests for the INA231-like power sensor emulation.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "common/serial.hpp"
#include "hw/power_sensor.hpp"

namespace prime::hw {
namespace {

TEST(PowerSensor, ReadingTracksTruePower) {
  PowerSensor s(PowerSensorParams{}, 1);
  double sum = 0.0;
  const int n = 1000;
  for (int i = 0; i < n; ++i) sum += s.sample(3.0);
  // Gain error <= 1 %, noise averages out: within 2 % of truth.
  EXPECT_NEAR(sum / n, 3.0, 0.06);
}

TEST(PowerSensor, QuantisesToLsb) {
  PowerSensorParams p;
  p.lsb = 0.25;
  p.noise_sigma = 0.0;
  p.gain_error = 0.0;
  PowerSensor s(p, 2);
  const double r = s.sample(1.1);
  EXPECT_DOUBLE_EQ(r, 1.0);  // rounds to nearest 0.25
}

TEST(PowerSensor, ClampsToRange) {
  PowerSensorParams p;
  p.max_range = 2.0;
  p.noise_sigma = 0.0;
  p.gain_error = 0.0;
  PowerSensor s(p, 3);
  EXPECT_LE(s.sample(100.0), 2.0);
  EXPECT_GE(s.sample(-5.0), 0.0);
}

TEST(PowerSensor, GainIsFixedPerDevice) {
  PowerSensor s(PowerSensorParams{}, 4);
  const double g = s.gain();
  EXPECT_GE(g, 0.99);
  EXPECT_LE(g, 1.01);
  (void)s.sample(1.0);
  EXPECT_DOUBLE_EQ(s.gain(), g);  // sampling never changes the gain
}

TEST(PowerSensor, IntegratesEnergy) {
  PowerSensorParams p;
  p.noise_sigma = 0.0;
  p.gain_error = 0.0;
  p.lsb = 0.0;
  PowerSensor s(p, 5);
  (void)s.integrate(2.0, 0.5);
  (void)s.integrate(4.0, 0.25);
  EXPECT_NEAR(s.measured_energy(), 2.0, 1e-12);
}

TEST(PowerSensor, ResetClearsEnergyKeepsGain) {
  PowerSensor s(PowerSensorParams{}, 6);
  const double g = s.gain();
  (void)s.integrate(1.0, 1.0);
  s.reset();
  EXPECT_DOUBLE_EQ(s.measured_energy(), 0.0);
  EXPECT_DOUBLE_EQ(s.gain(), g);
}

TEST(PowerSensor, DeterministicForSameSeed) {
  PowerSensor a(PowerSensorParams{}, 42);
  PowerSensor b(PowerSensorParams{}, 42);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(a.sample(2.5), b.sample(2.5));
  }
}

TEST(PowerSensor, MeasuredEnergyCloseToTrueEnergy) {
  PowerSensor s(PowerSensorParams{}, 7);
  double true_energy = 0.0;
  for (int i = 0; i < 1000; ++i) {
    (void)s.integrate(3.5, 0.04);
    true_energy += 3.5 * 0.04;
  }
  EXPECT_NEAR(s.measured_energy() / true_energy, 1.0, 0.02);
}

std::string state_bytes(const PowerSensor& s) {
  std::ostringstream out;
  common::StateWriter w(out);
  s.save_state(w);
  return out.str();
}

/// Drives \p plain with integrate() and \p drawn with pre-drawn terms from
/// \p ahead for \p n epochs of varying power, checking every reading.
void integrate_in_lockstep(PowerSensor& plain, PowerSensor& drawn,
                           common::Rng& ahead, int n) {
  for (int i = 0; i < n; ++i) {
    const double power = 1.0 + 0.37 * (i % 11);
    const double dt = 0.01 + 0.001 * (i % 7);
    const common::NormalDraw noise = drawn.draw_noise(ahead);
    const double a = plain.integrate(power, dt);
    const double b = drawn.integrate(power, dt, noise);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
        << "epoch " << i;
  }
}

TEST(PowerSensor, PreDrawnNoiseMatchesIntegrateInLockstep) {
  // The epoch loop draws the noise stream ahead on a copy of the
  // sensor's generator. Readings, energy and save_state bytes must equal
  // plain integrate()'s after odd counts (a Box–Muller half still cached)
  // and even ones.
  for (const int n : {1, 2, 7, 64, 129}) {
    SCOPED_TRACE(n);
    PowerSensor plain(PowerSensorParams{}, 11);
    PowerSensor drawn(PowerSensorParams{}, 11);
    common::Rng ahead = drawn.noise_rng();
    integrate_in_lockstep(plain, drawn, ahead, n);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(plain.measured_energy()),
              std::bit_cast<std::uint64_t>(drawn.measured_energy()));
    EXPECT_EQ(state_bytes(plain), state_bytes(drawn));
  }
}

TEST(PowerSensor, PreDrawnNoiseSurvivesASaveLoadMidPair) {
  // A checkpoint taken between the two halves of a Box–Muller pair: the
  // resumed sensor (with a fresh copy of its restored generator) continues
  // exactly where an uninterrupted plain sensor does.
  PowerSensor plain(PowerSensorParams{}, 12);
  PowerSensor drawn(PowerSensorParams{}, 12);
  common::Rng ahead = drawn.noise_rng();
  integrate_in_lockstep(plain, drawn, ahead, 3);  // odd: one half cached
  const std::string saved = state_bytes(drawn);
  ASSERT_EQ(saved, state_bytes(plain));

  PowerSensor resumed(PowerSensorParams{}, 99);
  std::istringstream in(saved);
  common::StateReader r(in);
  resumed.load_state(r);
  common::Rng resumed_ahead = resumed.noise_rng();
  integrate_in_lockstep(plain, resumed, resumed_ahead, 6);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(plain.measured_energy()),
            std::bit_cast<std::uint64_t>(resumed.measured_energy()));
  EXPECT_EQ(state_bytes(plain), state_bytes(resumed));
}

}  // namespace
}  // namespace prime::hw
