#include "hw/cluster.hpp"

#include <algorithm>
#include <string>

#include "common/serial.hpp"

namespace prime::hw {

Cluster::Cluster(const OppTable& table, const ClusterParams& params)
    : table_(&table),
      power_(params.power),
      thermal_(params.thermal),
      dvfs_(table, params.initial_opp, params.dvfs),
      initial_opp_(params.initial_opp) {
  cores_.reserve(params.cores);
  for (std::size_t i = 0; i < params.cores; ++i) cores_.emplace_back(i);
  coeffs_.reserve(table.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    const Opp& opp = table.at(i);
    OppCoeffs c;
    c.active_power = power_.active_power(opp);
    c.idle_power = power_.idle_power(opp);
    c.uncore_power = power_.uncore_power(opp);
    c.leak_base = power_.leakage_base(opp.voltage);
    coeffs_.push_back(c);
  }
}

common::Seconds Cluster::set_opp(std::size_t index) noexcept {
  const common::Seconds stall = dvfs_.set_opp(index);
  pending_stall_ += stall;
  return stall;
}

void Cluster::run_epoch_into(const common::Cycles* work,
                             std::size_t work_count, common::Seconds period,
                             double mem_fraction,
                             common::Hertz ref_frequency, EpochScratch& r) {
  const Opp& opp = dvfs_.current();
  const OppCoeffs& co = coeffs_[dvfs_.current_index()];
  const common::Celsius temp_before = thermal_.temperature();

  r.dvfs_stall = pending_stall_;
  pending_stall_ = 0.0;
  r.core_cycles.resize(cores_.size());
  r.core_busy.resize(cores_.size());

  // Memory stalls do not scale with frequency: a frame of w base cycles
  // retires as w * ((1-m) + m * f/f_ref) effective (PMU-visible) cycles.
  // The division by ref_frequency stays inside the expression — hoisting
  // f/f_ref would reassociate the product and change bits.
  const double eff_scale = (1.0 - mem_fraction) +
                           mem_fraction * opp.frequency / ref_frequency;

  // First pass: per-core busy times determine the frame time.
  common::Seconds longest_busy = 0.0;
  common::Cycles executed = 0;
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    const common::Cycles base = i < work_count ? work[i] : 0;
    const auto w =
        static_cast<common::Cycles>(static_cast<double>(base) * eff_scale);
    r.core_cycles[i] = w;
    executed += w;
    const common::Seconds busy =
        w == 0 ? 0.0 : common::time_for(w, opp.frequency);
    r.core_busy[i] = busy;
    longest_busy = std::max(longest_busy, busy);
  }
  r.executed = executed;
  r.frame_time = longest_busy + r.dvfs_stall;
  r.window = std::max(r.frame_time, period);
  r.deadline_met = r.frame_time <= period;

  // Second pass: account cores within the window and accumulate energy. All
  // cores share one rail and one die temperature, so the per-core power terms
  // are epoch constants — taken from the per-OPP table (active/idle/leak_base)
  // with only the leakage temperature factor evaluated here. Same bits as
  // PowerModel's active_power/idle_power/leakage_power per core.
  const common::Watt p_leak = co.leak_base * power_.leakage_tempf(temp_before);
  common::Joule energy = 0.0;
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    const common::Seconds busy = r.core_busy[i];
    const common::Seconds idle = std::max(0.0, r.window - busy);
    const common::Joule core_energy =
        co.active_power * busy + co.idle_power * idle + p_leak * (busy + idle);
    cores_[i].account(r.core_cycles[i], busy, idle, core_energy);
    energy += core_energy;
  }
  // Shared uncore power runs for the whole window; the DVFS stall burns
  // active-level uncore power but no core work.
  energy += co.uncore_power * r.window;

  r.energy = energy;
  r.avg_power = r.window > 0.0 ? energy / r.window : 0.0;

  thermal_.step(r.avg_power, r.window);
  r.temperature = thermal_.temperature();

  total_energy_ += energy;
  total_time_ += r.window;
}

void Cluster::reset() {
  for (auto& c : cores_) c.reset();
  thermal_.reset();
  dvfs_.reset_counters();
  (void)dvfs_.set_opp(initial_opp_);
  dvfs_.reset_counters();
  pending_stall_ = 0.0;
  total_energy_ = 0.0;
  total_time_ = 0.0;
}

void Cluster::save_state(common::StateWriter& out) const {
  out.size(cores_.size());
  dvfs_.save_state(out);
  thermal_.save_state(out);
  out.f64(pending_stall_);
  out.f64(total_energy_);
  out.f64(total_time_);
  for (const Core& core : cores_) core.save_state(out);
}

void Cluster::load_state(common::StateReader& in) {
  const std::size_t cores = in.size();
  if (cores != cores_.size()) {
    throw common::SerialError(
        "Cluster state: saved for " + std::to_string(cores) +
        " cores, this cluster has " + std::to_string(cores_.size()));
  }
  dvfs_.load_state(in);
  thermal_.load_state(in);
  pending_stall_ = in.f64();
  total_energy_ = in.f64();
  total_time_ = in.f64();
  for (Core& core : cores_) core.load_state(in);
}

}  // namespace prime::hw
