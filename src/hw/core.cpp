#include "hw/core.hpp"

#include "common/serial.hpp"

namespace prime::hw {

void Core::account(common::Cycles work, common::Seconds busy_time,
                   common::Seconds idle_time, common::Joule energy) noexcept {
  if (work > 0) pmu_.record_active(work, busy_time);
  if (idle_time > 0.0) pmu_.record_idle(idle_time);
  energy_ += energy;
}

void Core::reset() noexcept {
  pmu_.reset();
  energy_ = 0.0;
}

void Core::save_state(common::StateWriter& out) const {
  pmu_.save_state(out);
  out.f64(energy_);
}

void Core::load_state(common::StateReader& in) {
  pmu_.load_state(in);
  energy_ = in.f64();
}

}  // namespace prime::hw
