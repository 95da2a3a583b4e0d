#include "hw/dvfs_driver.hpp"

#include <cmath>
#include <string>

#include "common/serial.hpp"

namespace prime::hw {

DvfsDriver::DvfsDriver(const OppTable& table, std::size_t initial_index,
                       const DvfsDriverParams& params)
    : table_(&table), index_(table.clamp_index(static_cast<long long>(initial_index))),
      params_(params) {}

common::Seconds DvfsDriver::set_opp(std::size_t index) noexcept {
  const std::size_t target = table_->clamp_index(static_cast<long long>(index));
  if (target == index_) return 0.0;
  const double steps =
      std::abs(table_->at(target).frequency - table_->at(index_).frequency) /
      common::mhz(100.0);
  const common::Seconds cost =
      params_.transition_latency + params_.latency_per_step * steps;
  index_ = target;
  ++transitions_;
  stall_ += cost;
  return cost;
}

// Unchecked: index_ is clamped on construction and in set_opp(), and
// load_state() rejects an out-of-range one.
const Opp& DvfsDriver::current() const noexcept {
  return table_->points()[index_];
}

void DvfsDriver::reset_counters() noexcept {
  transitions_ = 0;
  stall_ = 0.0;
}

void DvfsDriver::save_state(common::StateWriter& out) const {
  out.size(index_);
  out.size(transitions_);
  out.f64(stall_);
}

void DvfsDriver::load_state(common::StateReader& in) {
  const std::size_t index = in.size();
  if (index >= table_->size()) {
    throw common::SerialError("DvfsDriver state: OPP index " +
                              std::to_string(index) +
                              " out of range for a table of " +
                              std::to_string(table_->size()));
  }
  index_ = index;
  transitions_ = in.size();
  stall_ = in.f64();
}

}  // namespace prime::hw
