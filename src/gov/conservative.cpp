#include "gov/conservative.hpp"

#include <memory>

#include "common/serial.hpp"
#include "gov/registry.hpp"

namespace prime::gov {

std::size_t ConservativeGovernor::decide(
    const DecisionContext& ctx, const std::optional<EpochObservation>& last) {
  const hw::OppTable& opps = *ctx.opps;
  if (index_ < 0) index_ = static_cast<long long>(opps.size() / 2);
  if (!last) return opps.clamp_index(index_);

  const hw::Opp& ran_at = opps.at(last->opp_index);
  const double max_load = last->busiest_load(ran_at.frequency);

  if (max_load > params_.up_threshold) {
    index_ += static_cast<long long>(params_.freq_step);
  } else if (max_load < params_.down_threshold) {
    index_ -= static_cast<long long>(params_.freq_step);
  }
  index_ = static_cast<long long>(opps.clamp_index(index_));
  return static_cast<std::size_t>(index_);
}

void ConservativeGovernor::reset() { index_ = -1; }

void ConservativeGovernor::save_state(std::ostream& out) const {
  common::StateWriter w(out);
  w.i64(index_);
}

void ConservativeGovernor::load_state(std::istream& in) {
  common::StateReader r(in);
  index_ = r.i64();
}

namespace {

const GovernorRegistrar kRegisterConservative{
    governor_registry(), "conservative",
    "Linux conservative: stepwise reactive; keys: up, down, step",
    [](const common::Spec& spec, std::uint64_t) {
      ConservativeParams p;
      p.up_threshold = spec.get_double("up", p.up_threshold);
      p.down_threshold = spec.get_double("down", p.down_threshold);
      p.freq_step = static_cast<std::size_t>(
          spec.get_int("step", static_cast<long long>(p.freq_step)));
      return std::make_unique<ConservativeGovernor>(p);
    }};

}  // namespace

}  // namespace prime::gov
