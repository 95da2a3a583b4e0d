#include "gov/ondemand.hpp"

#include <algorithm>
#include <memory>

#include "common/serial.hpp"
#include "gov/registry.hpp"

namespace prime::gov {

std::size_t OndemandGovernor::decide(const DecisionContext& ctx,
                                     const std::optional<EpochObservation>& last) {
  const hw::OppTable& opps = *ctx.opps;
  if (!last || !initialised_) {
    // Kernel behaviour at governor start: begin at the current (mid) OPP;
    // we start high to avoid an initial miss, as ondemand effectively does
    // after its first sample of a busy system.
    initialised_ = true;
    last_index_ = opps.size() - 1;
    return last_index_;
  }

  if (++epochs_since_sample_ < params_.sampling_epochs) {
    return last_index_;  // between samples, hold frequency
  }
  epochs_since_sample_ = 0;

  // Load of the busiest CPU over the last window (busy/window), computed from
  // per-core cycle counts at the frequency that executed them.
  const hw::Opp& ran_at = opps.at(last->opp_index);
  const double max_load = std::min(last->busiest_load(ran_at.frequency), 1.0);

  if (max_load > params_.up_threshold) {
    last_index_ = opps.size() - 1;
    return last_index_;
  }

  // Scale down proportionally with hysteresis: pick the lowest frequency that
  // keeps the observed busy work under (up_threshold - down_differential).
  const double busy_hz = max_load * ran_at.frequency;
  const double target_hz =
      busy_hz / std::max(0.05, params_.up_threshold - params_.down_differential);
  last_index_ = opps.lowest_at_least(target_hz);
  return last_index_;
}

void OndemandGovernor::reset() {
  last_index_ = 0;
  epochs_since_sample_ = 0;
  initialised_ = false;
}

void OndemandGovernor::save_state(std::ostream& out) const {
  common::StateWriter w(out);
  w.size(last_index_);
  w.size(epochs_since_sample_);
  w.boolean(initialised_);
}

void OndemandGovernor::load_state(std::istream& in) {
  common::StateReader r(in);
  last_index_ = r.size();
  epochs_since_sample_ = r.size();
  initialised_ = r.boolean();
}

namespace {

const GovernorRegistrar kRegisterOndemand{
    governor_registry(), "ondemand",
    "Linux ondemand [5]: load-reactive, deadline-blind; "
    "keys: up, down, sampling",
    [](const common::Spec& spec, std::uint64_t) {
      OndemandParams p;
      p.up_threshold = spec.get_double("up", p.up_threshold);
      p.down_differential = spec.get_double("down", p.down_differential);
      p.sampling_epochs = static_cast<std::size_t>(
          spec.get_int("sampling", static_cast<long long>(p.sampling_epochs)));
      return std::make_unique<OndemandGovernor>(p);
    }};

}  // namespace

}  // namespace prime::gov
