/// \file policy.hpp
/// \brief Exploration policies (eq. 2) and the epsilon schedule (eq. 6).
///
/// During exploration the paper samples V-F actions from a discrete
/// Exponential Probability Distribution (EPD) biased by the current slack:
///     p(a) ∝ lambda * exp(-beta * Fnorm(a) * L)
/// so that with positive slack (over-performing) low frequencies are favoured
/// and with negative slack high frequencies are favoured, while near-zero
/// slack degenerates to the uniform distribution — contrast with the Uniform
/// Probability Distribution (UPD) of prior work [19][21]. The measured
/// benefit is the reduced exploration count of Table II.
///
/// The exploration/exploitation mix is epsilon-greedy with the exponential
/// decay of eq. (6): eps_{i+1} = eps_i * exp(-(1 - alpha)).
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/registry.hpp"
#include "common/rng.hpp"
#include "hw/opp.hpp"

namespace prime::rtm {

/// \brief Interface of an exploration action-selection policy.
class ExplorationPolicy {
 public:
  virtual ~ExplorationPolicy() = default;
  /// \brief Sample an action index given the action space and current slack.
  [[nodiscard]] virtual std::size_t sample(const hw::OppTable& opps,
                                           double slack,
                                           common::Rng& rng) const = 0;
  /// \brief Per-action probabilities (for tests and analysis).
  [[nodiscard]] virtual std::vector<double> probabilities(
      const hw::OppTable& opps, double slack) const = 0;
  /// \brief Name for reports.
  [[nodiscard]] virtual std::string name() const = 0;
};

/// \brief The paper's slack-directed exponential distribution (eq. 2).
///
/// sample() writes the distribution into a scratch buffer the policy owns,
/// so one policy must not be sampled from two threads at once.
class EpdPolicy final : public ExplorationPolicy {
 public:
  /// \brief Construct with exponent constant \p beta (eq. 2's beta). Larger
  ///        values concentrate exploration harder once slack deviates from 0.
  explicit EpdPolicy(double beta = 3.0) noexcept : beta_(beta) {}

  [[nodiscard]] std::size_t sample(const hw::OppTable& opps, double slack,
                                   common::Rng& rng) const override;
  [[nodiscard]] std::vector<double> probabilities(const hw::OppTable& opps,
                                                  double slack) const override;
  [[nodiscard]] std::string name() const override { return "epd"; }
  /// \brief The exponent constant.
  [[nodiscard]] double beta() const noexcept { return beta_; }

 private:
  double beta_;
  mutable std::vector<double> scratch_;  ///< sample()'s distribution.
};

/// \brief Prior work's uniform random selection (UPD) [19][21].
class UpdPolicy final : public ExplorationPolicy {
 public:
  [[nodiscard]] std::size_t sample(const hw::OppTable& opps, double slack,
                                   common::Rng& rng) const override;
  [[nodiscard]] std::vector<double> probabilities(const hw::OppTable& opps,
                                                  double slack) const override;
  [[nodiscard]] std::string name() const override { return "upd"; }
};

/// \brief Registry of exploration-policy factories: Spec -> ExplorationPolicy.
///        Policies self-register in policy.cpp; RTM specs reference them by
///        name or parameterised spec (e.g. "epd(beta=5)").
using PolicyRegistry = common::Registry<ExplorationPolicy>;

/// \brief The process-wide exploration-policy registry.
[[nodiscard]] PolicyRegistry& policy_registry();

/// \brief Static self-registration helper for exploration policies.
using PolicyRegistrar = common::Registrar<PolicyRegistry>;

/// \brief Factory shim over the registry. Accepts any registered spec, e.g.
///        "epd", "epd(beta=5)", "upd". Throws std::invalid_argument (with the
///        registered names) when unknown.
[[nodiscard]] std::unique_ptr<ExplorationPolicy> make_policy(
    const std::string& name);

/// \brief Decay law of the exploration schedule.
enum class EpsilonDecay {
  /// The paper's eq. (6): eps_{i+1} = exp[-(1-alpha)*i] * eps_i. The decay
  /// factor itself shrinks with the epoch index i, so epsilon stays near
  /// eps0 through the exploration phase and then collapses super-
  /// exponentially — the sharp exploration->exploitation transition the
  /// paper describes.
  kPaperEq6,
  /// Plain geometric decay eps *= exp(-(1-alpha)) per epoch, as used by the
  /// UPD baselines [20][21].
  kGeometric,
};

/// \brief The eq. (6) epsilon-greedy schedule.
///
/// "To accelerate the process of exploitation" the decay exponent is
/// additionally scaled by (1 + reward_boost * max(0, payoff)): once the agent
/// is earning positive pay-offs (its explored actions already work well —
/// which the EPD reaches sooner than the UPD), epsilon collapses faster.
/// This reward coupling is what makes the *number of explorations* (Table II)
/// and the learning duration (Table III) workload- and policy-dependent.
class EpsilonSchedule {
 public:
  /// \brief Parameters of the schedule.
  struct Params {
    double epsilon0 = 1.0;      ///< Initial exploration probability.
    double alpha = 0.9993;      ///< Eq. (6) learning factor.
    double epsilon_min = 0.01;  ///< Exploration floor ("learning complete").
    double reward_boost = 1.0;  ///< Exponent scale per unit positive payoff.
    EpsilonDecay decay = EpsilonDecay::kPaperEq6; ///< Decay law.
  };

  /// \brief Construct with default parameters.
  EpsilonSchedule() : EpsilonSchedule(Params()) {}
  /// \brief Construct with the given parameters. Throws
  ///        std::invalid_argument when alpha is outside [0, 1).
  explicit EpsilonSchedule(const Params& params);

  /// \brief Current epsilon.
  [[nodiscard]] double value() const noexcept { return epsilon_; }
  /// \brief Advance one decision epoch. \p smoothed_payoff is the agent's
  ///        recent average pay-off; only its positive part accelerates decay.
  void advance(double smoothed_payoff = 0.0) noexcept {
    ++epoch_;
    const double boost =
        1.0 + params_.reward_boost *
                  (smoothed_payoff > 0.0 ? smoothed_payoff : 0.0);
    double exponent = (1.0 - params_.alpha) * boost;
    if (params_.decay == EpsilonDecay::kPaperEq6) {
      exponent *= static_cast<double>(epoch_);
    }
    // Settled at a finite, non-negative floor: exp(-exponent) lies in
    // [0, 1] for exponent >= 0, so the product could only round back to the
    // floor and the exp is skipped. convergence_epoch_ is already set, so
    // nothing else would change either.
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
  /// \brief Draw the explore/exploit decision for this epoch.
  [[nodiscard]] bool should_explore(common::Rng& rng) const noexcept;
  /// \brief True once epsilon has decayed to the floor (exploitation phase).
  [[nodiscard]] bool converged() const noexcept;
  /// \brief Epochs advanced so far.
  [[nodiscard]] std::size_t epoch() const noexcept { return epoch_; }
  /// \brief Epoch at which the floor was first reached (the paper's learning
  ///        duration); 0 until converged.
  [[nodiscard]] std::size_t convergence_epoch() const noexcept {
    return convergence_epoch_;
  }
  /// \brief Restart from epsilon0.
  void reset() noexcept;
  /// \brief Access parameters.
  [[nodiscard]] const Params& params() const noexcept { return params_; }

  /// \brief Serialise the schedule state (checkpoint/resume).
  void save_state(common::StateWriter& out) const;
  /// \brief Restore state written by save_state().
  void load_state(common::StateReader& in);

 private:
  Params params_;
  double epsilon_;
  std::size_t epoch_ = 0;
  std::size_t convergence_epoch_ = 0;
};

}  // namespace prime::rtm
