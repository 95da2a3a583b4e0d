/// \file reward.hpp
/// \brief Pay-off (reward) functions for the RTM (eq. 4).
///
/// The paper computes the pay-off from the average slack ratio L_i and its
/// change dL since the previous epoch: `R_i = a*L_i + b*dL`, with constants
/// "to ensure actions improving L_i values are rewarded".
///
/// A *literal* linear reading is maximised by the fastest OPP (slack grows
/// monotonically with frequency) and therefore cannot minimise energy; we
/// provide it as `LinearSlackReward` and demonstrate the saturation in the
/// ablation_reward bench. The default, `TargetSlackReward`, follows the
/// companion journal formulation (Shafik et al., TCAD 2016 [12]): "improving
/// L" means moving it into a small positive target band — the frame finishes
/// just before its deadline, which at once avoids misses and avoids
/// over-performance (wasted energy).
#pragma once

#include <algorithm>
#include <memory>
#include <string>

#include "common/registry.hpp"

namespace prime::rtm {

/// \brief Interface of a pay-off function R(L, dL).
class RewardFunction {
 public:
  virtual ~RewardFunction() = default;
  /// \brief Compute the pay-off from the average slack ratio \p slack and its
  ///        change \p dslack since the previous decision epoch.
  [[nodiscard]] virtual double reward(double slack, double dslack) const = 0;
  /// \brief Name for reports.
  [[nodiscard]] virtual std::string name() const = 0;
};

/// \brief Default reward: maximal when L sits in a small positive band.
///
/// R = a * (1 - |L - target| / scale) + b * (|L_prev - target| - |L - target|)
/// with L_prev recovered from dslack = L - L_prev. Clamped to [-clip, +clip].
class TargetSlackReward final : public RewardFunction {
 public:
  /// \brief Parameters of the target-band reward.
  struct Params {
    double target = 0.10;    ///< Desired average slack ratio (small positive).
    double scale = 0.18;     ///< Slack distance at which the level term hits 0.
    double a = 1.0;          ///< Weight of the slack-level term (paper's a).
    double b = 0.5;          ///< Weight of the improvement term (paper's b).
    double neg_penalty = 4.0;///< Extra weight when slack falls below target
                             ///< (a deadline miss costs more than headroom).
    double clip = 3.0;       ///< Reward magnitude clamp.
  };

  /// \brief Construct with default parameters.
  TargetSlackReward() noexcept : params_() {}
  /// \brief Construct with the given parameters.
  explicit TargetSlackReward(const Params& params) noexcept : params_(params) {}

  /// \brief Inline: the RTM calls it every decision epoch, through a
  ///        TargetSlackReward pointer when this is its reward.
  [[nodiscard]] double reward(double slack, double dslack) const override {
    // Distance from the target band, weighted asymmetrically: running below
    // the target (towards deadline misses) is penalised `neg_penalty` times
    // harder than the same distance of wasteful headroom above it.
    const auto dist = [this](double l) {
      const double d = (l - params_.target) / params_.scale;
      return d < 0.0 ? -d * params_.neg_penalty : d;
    };
    const double cur_dist = dist(slack);
    const double prev_dist = dist(slack - dslack);
    const double level_term = params_.a * (1.0 - cur_dist);
    const double improve_term = params_.b * (prev_dist - cur_dist);
    return std::clamp(level_term + improve_term, -params_.clip, params_.clip);
  }
  [[nodiscard]] std::string name() const override { return "target-slack"; }
  /// \brief Access parameters.
  [[nodiscard]] const Params& params() const noexcept { return params_; }

 private:
  Params params_;
};

/// \brief Literal eq. (4): R = a*L + b*dL. Kept for the ablation showing the
///        formulation saturates at the fastest OPP.
class LinearSlackReward final : public RewardFunction {
 public:
  /// \brief Construct with the paper's constants a and b.
  LinearSlackReward(double a = 1.0, double b = 0.5) noexcept : a_(a), b_(b) {}

  [[nodiscard]] double reward(double slack, double dslack) const override {
    return a_ * slack + b_ * dslack;
  }
  [[nodiscard]] std::string name() const override { return "linear-slack"; }

 private:
  double a_;
  double b_;
};

/// \brief Registry of reward factories: Spec -> RewardFunction. Rewards
///        self-register in reward.cpp; RTM specs reference them by name or
///        parameterised spec (e.g. "target-slack(target=0.15,b=1)").
using RewardRegistry = common::Registry<RewardFunction>;

/// \brief The process-wide reward registry.
[[nodiscard]] RewardRegistry& reward_registry();

/// \brief Static self-registration helper for reward functions.
using RewardRegistrar = common::Registrar<RewardRegistry>;

/// \brief Factory shim over the registry. Accepts any registered spec, e.g.
///        "target-slack", "linear-slack(a=2)". Throws std::invalid_argument
///        (with the registered names) when unknown.
[[nodiscard]] std::unique_ptr<RewardFunction> make_reward(const std::string& name);

}  // namespace prime::rtm
