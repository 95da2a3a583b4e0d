#include "gov/schedutil.hpp"

#include <algorithm>
#include <memory>

#include "common/serial.hpp"
#include "gov/registry.hpp"

namespace prime::gov {

std::size_t SchedutilGovernor::decide(const DecisionContext& ctx,
                                      const std::optional<EpochObservation>& last) {
  const hw::OppTable& opps = *ctx.opps;
  if (!last || !initialised_) {
    initialised_ = true;
    last_index_ = opps.size() - 1;  // boot busy: start fast, settle down
    return last_index_;
  }

  // Busiest-CPU utilisation over the last window.
  const hw::Opp& ran_at = opps.at(last->opp_index);
  const double max_load = std::min(last->busiest_load(ran_at.frequency), 1.0);

  // schedutil's frequency-invariant formula: the utilisation measured at
  // ran_at scales to capacity units, then f = headroom * util_cap * f_max.
  const double util_cap = max_load * ran_at.frequency / opps.max().frequency;
  const double target_hz = params_.headroom * util_cap * opps.max().frequency;
  const std::size_t target = opps.lowest_at_least(target_hz);

  if (target >= last_index_) {
    last_index_ = target;  // ramp up immediately
    epochs_since_down_ = 0;
  } else if (++epochs_since_down_ >= params_.down_rate_epochs) {
    last_index_ = target;  // rate-limited ramp down
    epochs_since_down_ = 0;
  }
  return last_index_;
}

void SchedutilGovernor::reset() {
  last_index_ = 0;
  epochs_since_down_ = 0;
  initialised_ = false;
}

void SchedutilGovernor::save_state(std::ostream& out) const {
  common::StateWriter w(out);
  w.size(last_index_);
  w.size(epochs_since_down_);
  w.boolean(initialised_);
}

void SchedutilGovernor::load_state(std::istream& in) {
  common::StateReader r(in);
  last_index_ = r.size();
  epochs_since_down_ = r.size();
  initialised_ = r.boolean();
}

namespace {

const GovernorRegistrar kRegisterSchedutil{
    governor_registry(), "schedutil",
    "Linux schedutil: utilisation-proportional with asymmetric rate limit; "
    "keys: headroom, down-rate",
    [](const common::Spec& spec, std::uint64_t) {
      SchedutilParams p;
      p.headroom = spec.get_double("headroom", p.headroom);
      p.down_rate_epochs = static_cast<std::size_t>(spec.get_int(
          "down-rate", static_cast<long long>(p.down_rate_epochs)));
      return std::make_unique<SchedutilGovernor>(p);
    }};

}  // namespace

}  // namespace prime::gov
