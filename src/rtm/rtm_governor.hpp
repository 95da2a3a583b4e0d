/// \file rtm_governor.hpp
/// \brief The proposed run-time manager as a power governor (Section II).
///
/// Single-cluster Q-learning RTM implementing the paper's full decision loop.
/// At each system tick t_i the governor:
///   (1) computes the pay-off for the interval (t_{i-1}, t_i) from the
///       average slack ratio (eq. 4/5),
///   (2) updates the Q-table entry of the state-action pair it chose at
///       t_{i-1} (eq. 3),
///   (3) predicts the next workload with the EWMA filter (eq. 1), maps the
///       (predicted CC, slack L) pair to a discrete state, and selects the
///       V-F action for (t_i, t_{i+1}) — exploring via the EPD of eq. (2)
///       with probability eps (eq. 6), exploiting the Q-table otherwise.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "common/rng.hpp"
#include "common/spec.hpp"
#include "gov/governor.hpp"
#include "rtm/discretizer.hpp"
#include "rtm/ewma.hpp"
#include "rtm/overhead.hpp"
#include "rtm/policy.hpp"
#include "rtm/qtable.hpp"
#include "rtm/reward.hpp"
#include "rtm/slack.hpp"

namespace prime::rtm {

/// \brief All tunables of the proposed RTM.
struct RtmParams {
  double ewma_gamma = 0.6;            ///< Eq. (1) smoothing factor.
  DiscretizerParams discretizer{};    ///< N x N state quantisation (N=5).
  double learning_rate = 0.25;        ///< Eq. (3) alpha.
  double discount = 0.5;              ///< Eq. (3) discount gamma.
  EpsilonSchedule::Params epsilon{};  ///< Eq. (6) schedule.
  std::string policy = "epd";         ///< "epd" (eq. 2) or "upd" (baseline).
  double epd_beta = 3.0;              ///< Eq. (2) beta (EPD only).
  std::string reward = "target-slack";///< "target-slack" or "linear-slack".
  SlackAveraging slack_mode = SlackAveraging::kExponential; ///< Eq. (5) mode.
  double slack_ewma_alpha = 0.50;     ///< Slack EWMA weight (exponential mode).
  OverheadParams overhead{};          ///< T_OVH component costs.
  std::uint64_t seed = 0x271828;      ///< Exploration RNG seed.
};

/// \brief Read RtmParams from a registry spec. Recognised keys: gamma (EWMA),
///        alpha (learning rate), discount, policy, reward (both may be nested
///        specs, e.g. policy=epd(beta=5)), beta (EPD), epsilon0, eps-alpha,
///        eps-min, levels (sets both state dimensions), workload-levels,
///        slack-levels, slack-alpha, seed (overrides \p seed). Shared by the
///        rtm, rtm-upd and rtm-manycore registrations.
[[nodiscard]] RtmParams rtm_params_from_spec(const common::Spec& spec,
                                             std::uint64_t seed);

/// \brief The proposed single-cluster Q-learning governor.
class RtmGovernor : public gov::Governor, public gov::Learner {
 public:
  /// \brief Construct with the given tunables.
  explicit RtmGovernor(const RtmParams& params = {});

  [[nodiscard]] std::string name() const override { return "rtm-qlearning"; }
  [[nodiscard]] std::size_t decide(
      const gov::DecisionContext& ctx,
      const std::optional<gov::EpochObservation>& last) override;
  /// \brief T_OVH processing component: one shared-table Bellman update.
  ///        The same value decide() charges to each epoch's slack.
  [[nodiscard]] common::Seconds epoch_overhead() const override {
    return t_ovh_;
  }
  void reset() override;
  void save_state(std::ostream& out) const override;
  void load_state(std::istream& in) override;
  /// \brief Visit-weighted Q-table merger (warm-start policy library); also
  ///        covers the many-core variants, whose extra state appends after
  ///        the base payload and rides along with the champion.
  [[nodiscard]] std::unique_ptr<gov::StateMerger> make_state_merger()
      const override;

  // --- Introspection (benches, tests, convergence tracking) -----------------

  /// \brief Exploration-arm decisions taken so far (Table II numerator).
  [[nodiscard]] std::size_t exploration_count() const noexcept override {
    return explorations_;
  }
  /// \brief Current epsilon of the eq. (6) schedule.
  [[nodiscard]] double epsilon() const noexcept { return epsilon_.value(); }
  /// \brief Epoch at which epsilon first reached its floor — the paper's
  ///        "learning complete" point (Table III); 0 until then.
  [[nodiscard]] std::size_t learning_complete_epoch() const noexcept {
    return epsilon_.convergence_epoch();
  }
  /// \brief Smoothed recent pay-off (drives the adaptive eq. (6) decay).
  [[nodiscard]] double smoothed_payoff() const noexcept { return smoothed_payoff_; }
  /// \brief The learned Q-table (empty until first decide()).
  [[nodiscard]] const QTable* q_table() const noexcept { return qtable_.get(); }
  /// \brief Greedy action per state; empty before initialisation.
  [[nodiscard]] std::vector<std::size_t> greedy_policy() const override;
  /// \brief The EWMA workload predictor (Fig. 3 data source).
  [[nodiscard]] const EwmaPredictor& predictor() const noexcept { return ewma_; }
  /// \brief The slack monitor (Fig. 3 data source).
  [[nodiscard]] const SlackMonitor& slack_monitor() const noexcept { return slack_; }
  /// \brief Tunables in effect.
  [[nodiscard]] const RtmParams& params() const noexcept { return params_; }

 protected:
  /// \brief Workload state coordinate in [0,1] for the upcoming epoch;
  ///        overridden by the many-core RTM to apply eq. (7).
  [[nodiscard]] virtual double workload_coordinate(
      const gov::DecisionContext& ctx, const gov::EpochObservation& last);

  RtmParams params_;
  EwmaPredictor ewma_;
  double max_cycles_seen_ = 1.0;

 private:
  void ensure_initialised(const gov::DecisionContext& ctx);

  Discretizer discretizer_;
  std::unique_ptr<QTable> qtable_;
  std::unique_ptr<RewardFunction> reward_;
  /// reward_ when it is the built-in target-slack reward, else null: decide()
  /// then calls its inline reward() directly instead of through the vtable.
  const TargetSlackReward* target_reward_ = nullptr;
  std::unique_ptr<ExplorationPolicy> policy_;
  EpsilonSchedule epsilon_;
  SlackMonitor slack_;
  /// T_OVH of one epoch (one shared-table Bellman update), fixed at
  /// construction.
  common::Seconds t_ovh_;
  common::Rng rng_;
  std::size_t actions_ = 0;
  std::size_t last_state_ = 0;
  std::size_t last_action_ = 0;
  bool has_last_ = false;
  double last_period_ = -1.0;
  std::size_t explorations_ = 0;
  double smoothed_payoff_ = 0.0;
};

}  // namespace prime::rtm
