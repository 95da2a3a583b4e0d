/// \file power_sensor.hpp
/// \brief On-board power sensor emulation (XU3 INA231-style).
///
/// The paper measures power "from on-board power sensors each frame". The
/// XU3's INA231 sensors quantise to ~1 mW-class LSBs and carry a small gain
/// error plus sampling noise. Benches read frame power through this sensor
/// (not the exact model value) so measured energies inherit realistic sensor
/// behaviour; tests verify the error stays within the configured bounds.
#pragma once

#include "common/rng.hpp"
#include "common/units.hpp"

namespace prime::common {
class StateWriter;
class StateReader;
}  // namespace prime::common

namespace prime::hw {

/// \brief Sensor error parameters.
struct PowerSensorParams {
  common::Watt lsb = 0.001;      ///< Quantisation step (watts).
  double gain_error = 0.01;      ///< Fixed multiplicative gain error (+/-).
  double noise_sigma = 0.002;    ///< Additive Gaussian noise sigma (watts).
  common::Watt max_range = 20.0; ///< Full-scale clamp.
};

/// \brief Samples true power into quantised, noisy readings and integrates
///        measured energy the way the paper's per-frame measurement does.
class PowerSensor {
 public:
  /// \brief Construct with parameters and a deterministic noise seed. The
  ///        per-device gain error is drawn once at construction.
  explicit PowerSensor(const PowerSensorParams& params = {},
                       std::uint64_t seed = 0xC0FFEE);

  /// \brief Produce one reading of the true average power \p true_power.
  [[nodiscard]] common::Watt sample(common::Watt true_power) noexcept;

  /// \brief Sample \p true_power over \p dt seconds and accumulate measured
  ///        energy. Returns the reading.
  common::Watt integrate(common::Watt true_power, common::Seconds dt) noexcept;
  /// \brief integrate() with its noise term drawn ahead by draw_noise() on a
  ///        copy of noise_rng(), taken in the state this sensor is in now:
  ///        the same reading and energy, and the sensor's own generator
  ///        advances in lockstep, so save_state() bytes match too.
  common::Watt integrate(common::Watt true_power, common::Seconds dt,
                         const common::NormalDraw& noise) noexcept;

  /// \brief The generator the next integrate() draws its noise from; draw
  ///        on a copy of it with draw_noise() to pre-draw the noise stream.
  [[nodiscard]] const common::Rng& noise_rng() const noexcept { return rng_; }
  /// \brief The noise term integrate() would draw from \p ahead.
  [[nodiscard]] common::NormalDraw draw_noise(
      common::Rng& ahead) const noexcept {
    return ahead.draw_normal(0.0, params_.noise_sigma);
  }

  /// \brief Energy integrated from readings so far.
  [[nodiscard]] common::Joule measured_energy() const noexcept { return energy_; }
  /// \brief The fixed per-device gain applied to every reading.
  [[nodiscard]] double gain() const noexcept { return gain_; }
  /// \brief Reset integrated energy (gain is a device property and persists).
  void reset() noexcept { energy_ = 0.0; }

  /// \brief Serialise the noise RNG, gain and integrated energy — the noise
  ///        stream must continue exactly for resumed runs to read the same
  ///        per-epoch sensor values an uninterrupted run would.
  void save_state(common::StateWriter& out) const;
  /// \brief Restore state written by save_state().
  void load_state(common::StateReader& in);

 private:
  [[nodiscard]] common::Watt to_reading(common::Watt true_power,
                                        double noise) const noexcept;

  PowerSensorParams params_;
  common::Rng rng_;
  double gain_;
  common::Joule energy_ = 0.0;
};

}  // namespace prime::hw
