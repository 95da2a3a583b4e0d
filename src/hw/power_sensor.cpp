#include "hw/power_sensor.hpp"

#include <algorithm>
#include <cmath>

#include "common/serial.hpp"

namespace prime::hw {

PowerSensor::PowerSensor(const PowerSensorParams& params, std::uint64_t seed)
    : params_(params), rng_(seed),
      gain_(1.0 + rng_.uniform(-params.gain_error, params.gain_error)) {}

common::Watt PowerSensor::to_reading(common::Watt true_power,
                                     double noise) const noexcept {
  double reading = true_power * gain_ + noise;
  reading = std::clamp(reading, 0.0, params_.max_range);
  if (params_.lsb > 0.0) {
    reading = std::round(reading / params_.lsb) * params_.lsb;
  }
  return reading;
}

common::Watt PowerSensor::sample(common::Watt true_power) noexcept {
  return to_reading(true_power, rng_.normal(0.0, params_.noise_sigma));
}

common::Watt PowerSensor::integrate(common::Watt true_power,
                                    common::Seconds dt) noexcept {
  const common::Watt reading = sample(true_power);
  energy_ += reading * dt;
  return reading;
}

common::Watt PowerSensor::integrate(common::Watt true_power, common::Seconds dt,
                                    const common::NormalDraw& noise) noexcept {
  rng_.skip_normal(noise);
  const common::Watt reading = to_reading(true_power, noise.value);
  energy_ += reading * dt;
  return reading;
}

void PowerSensor::save_state(common::StateWriter& out) const {
  rng_.save_state(out);
  out.f64(gain_);
  out.f64(energy_);
}

void PowerSensor::load_state(common::StateReader& in) {
  rng_.load_state(in);
  gain_ = in.f64();
  energy_ = in.f64();
}

}  // namespace prime::hw
