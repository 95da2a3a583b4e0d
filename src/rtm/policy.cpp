#include "rtm/policy.hpp"

#include <cmath>
#include <stdexcept>

#include "common/serial.hpp"

namespace prime::rtm {

std::vector<double> EpdPolicy::probabilities(const hw::OppTable& opps,
                                             double slack) const {
  // p(a) = lambda * exp(-beta * Fnorm(a) * L), normalised. lambda (the
  // uniform 1/|A| of eq. 2) cancels in the normalisation but is kept for
  // clarity. Frequencies are normalised by f_max so beta is unitless.
  const std::size_t n = opps.size();
  const double lambda = 1.0 / static_cast<double>(n);
  const double f_max = opps.max().frequency;
  std::vector<double> p(n);
  double sum = 0.0;
  for (std::size_t a = 0; a < n; ++a) {
    const double f_norm = opps.at(a).frequency / f_max;
    p[a] = lambda * std::exp(-beta_ * f_norm * slack);
    sum += p[a];
  }
  for (auto& v : p) v /= sum;
  return p;
}

std::size_t EpdPolicy::sample(const hw::OppTable& opps, double slack,
                              common::Rng& rng) const {
  return rng.discrete(probabilities(opps, slack));
}

std::vector<double> UpdPolicy::probabilities(const hw::OppTable& opps,
                                             double /*slack*/) const {
  return std::vector<double>(opps.size(), 1.0 / static_cast<double>(opps.size()));
}

std::size_t UpdPolicy::sample(const hw::OppTable& opps, double /*slack*/,
                              common::Rng& rng) const {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(opps.size()) - 1));
}

PolicyRegistry& policy_registry() {
  static PolicyRegistry registry("exploration policy");
  return registry;
}

std::unique_ptr<ExplorationPolicy> make_policy(const std::string& name) {
  return policy_registry().create(name);
}

namespace {

const PolicyRegistrar kRegisterEpd{
    policy_registry(), "epd",
    "the paper's slack-directed exponential distribution (eq. 2); keys: beta",
    [](const common::Spec& spec) {
      return std::make_unique<EpdPolicy>(spec.get_double("beta", 3.0));
    }};

const PolicyRegistrar kRegisterUpd{
    policy_registry(), "upd",
    "uniform random selection of prior work [19][21]",
    [](const common::Spec&) { return std::make_unique<UpdPolicy>(); }};

}  // namespace

EpsilonSchedule::EpsilonSchedule(const Params& params)
    : params_(params), epsilon_(params.epsilon0) {
  if (params_.alpha < 0.0 || params_.alpha >= 1.0) {
    throw std::invalid_argument("EpsilonSchedule: alpha must be in [0, 1)");
  }
}

void EpsilonSchedule::advance(double smoothed_payoff) noexcept {
  ++epoch_;
  const double boost =
      1.0 + params_.reward_boost * (smoothed_payoff > 0.0 ? smoothed_payoff : 0.0);
  double exponent = (1.0 - params_.alpha) * boost;
  if (params_.decay == EpsilonDecay::kPaperEq6) {
    exponent *= static_cast<double>(epoch_);
  }
  // Settled at a finite, non-negative floor: exp(-exponent) lies in [0, 1]
  // for exponent >= 0, so the product could only round back to the floor
  // and the exp is skipped. convergence_epoch_ is already set, so nothing
  // else would change either.
  if (convergence_epoch_ != 0 && epsilon_ == params_.epsilon_min &&
      exponent >= 0.0 && epsilon_ >= 0.0 && std::isfinite(epsilon_)) {
    return;
  }
  epsilon_ *= std::exp(-exponent);
  if (epsilon_ < params_.epsilon_min) {
    epsilon_ = params_.epsilon_min;
    if (convergence_epoch_ == 0) convergence_epoch_ = epoch_;
  }
}

bool EpsilonSchedule::should_explore(common::Rng& rng) const noexcept {
  return rng.bernoulli(epsilon_);
}

bool EpsilonSchedule::converged() const noexcept {
  return epsilon_ <= params_.epsilon_min * 1.0000001;
}

void EpsilonSchedule::reset() noexcept {
  epsilon_ = params_.epsilon0;
  epoch_ = 0;
  convergence_epoch_ = 0;
}

void EpsilonSchedule::save_state(common::StateWriter& out) const {
  out.f64(epsilon_);
  out.size(epoch_);
  out.size(convergence_epoch_);
}

void EpsilonSchedule::load_state(common::StateReader& in) {
  epsilon_ = in.f64();
  epoch_ = in.size();
  convergence_epoch_ = in.size();
}

}  // namespace prime::rtm
