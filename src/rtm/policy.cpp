#include "rtm/policy.hpp"

#include <cmath>
#include <stdexcept>

#include "common/serial.hpp"

namespace prime::rtm {

namespace {

/// Eq. (2) into \p p[0, opps.size()): p(a) = lambda * exp(-beta * Fnorm(a) *
/// L), normalised. lambda (the uniform 1/|A| of eq. 2) cancels in the
/// normalisation but is kept for clarity. Frequencies are normalised by
/// f_max so beta is unitless.
void epd_probabilities(const hw::OppTable& opps, double beta, double slack,
                       double* p) {
  const std::size_t n = opps.size();
  const double lambda = 1.0 / static_cast<double>(n);
  const double f_max = opps.max().frequency;
  double sum = 0.0;
  for (std::size_t a = 0; a < n; ++a) {
    const double f_norm = opps.at(a).frequency / f_max;
    p[a] = lambda * std::exp(-beta * f_norm * slack);
    sum += p[a];
  }
  for (std::size_t a = 0; a < n; ++a) p[a] /= sum;
}

}  // namespace

std::vector<double> EpdPolicy::probabilities(const hw::OppTable& opps,
                                             double slack) const {
  std::vector<double> p(opps.size());
  epd_probabilities(opps, beta_, slack, p.data());
  return p;
}

std::size_t EpdPolicy::sample(const hw::OppTable& opps, double slack,
                              common::Rng& rng) const {
  // Explorations happen every epoch early in a run: reuse the scratch
  // buffer, which allocates only when the table grows past its size.
  scratch_.resize(opps.size());
  epd_probabilities(opps, beta_, slack, scratch_.data());
  return rng.discrete(scratch_.data(), scratch_.size());
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
