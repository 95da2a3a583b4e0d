#include "rtm/rtm_governor.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "common/serial.hpp"
#include "gov/merge.hpp"
#include "gov/registry.hpp"

namespace prime::rtm {

RtmGovernor::RtmGovernor(const RtmParams& params)
    : params_(params), ewma_(params.ewma_gamma),
      discretizer_(params.discretizer), reward_(make_reward(params.reward)),
      target_reward_(dynamic_cast<const TargetSlackReward*>(reward_.get())),
      epsilon_(params.epsilon),
      slack_(params.slack_mode, params.slack_ewma_alpha),
      t_ovh_(OverheadModel(params.overhead).epoch_overhead(1)),
      rng_(params.seed) {
  if (params.policy == "epd") {
    policy_ = std::make_unique<EpdPolicy>(params.epd_beta);
  } else {
    policy_ = make_policy(params.policy);
  }
}

void RtmGovernor::ensure_initialised(const gov::DecisionContext& ctx) {
  if (qtable_ && actions_ == ctx.opps->size()) return;
  actions_ = ctx.opps->size();
  qtable_ = std::make_unique<QTable>(discretizer_.state_count(), actions_);
}

double RtmGovernor::workload_coordinate(const gov::DecisionContext& /*ctx*/,
                                        const gov::EpochObservation& last) {
  // Single-cluster RTM: predict the total cluster workload (eq. 1) and
  // normalise by the largest workload observed so far (the run-time
  // equivalent of the paper's pre-characterised workload range).
  max_cycles_seen_ =
      std::max(max_cycles_seen_, static_cast<double>(last.total_cycles));
  const common::Cycles predicted = ewma_.observe(last.total_cycles);
  return static_cast<double>(predicted) / max_cycles_seen_;
}

std::size_t RtmGovernor::decide(const gov::DecisionContext& ctx,
                                const std::optional<gov::EpochObservation>& last) {
  ensure_initialised(ctx);

  // A changed performance requirement restarts the slack accumulator: eq. (5)
  // averages "since the start of the application with a given Tref".
  if (last_period_ >= 0.0 && ctx.period != last_period_) {
    slack_.reset();
  }
  last_period_ = ctx.period;

  std::size_t state;
  if (!last) {
    state = discretizer_.state_of(1.0, 0.0);  // pessimistic default
  } else {
    // (1) Pay-off for the completed interval (eq. 4 over eq. 5's L).
    const double slack_avg =
        slack_.observe(last->period, last->frame_time, t_ovh_);
    const double payoff =
        target_reward_ != nullptr
            ? target_reward_->reward(slack_avg, slack_.delta_slack())
            : reward_->reward(slack_avg, slack_.delta_slack());

    // (3a) Predict next workload and map (CC, L) to the next state.
    const double w01 = workload_coordinate(ctx, *last);
    state = discretizer_.state_of(w01, slack_avg);

    // (2) Q-table update for the state-action chosen at t_{i-1} (eq. 3).
    if (has_last_) {
      qtable_->update(last_state_, last_action_, payoff, state,
                      params_.learning_rate, params_.discount);
    }

    // Smoothed pay-off drives the adaptive part of the eq. (6) schedule.
    smoothed_payoff_ = has_last_
                           ? 0.1 * payoff + 0.9 * smoothed_payoff_
                           : payoff;
  }

  // (3b) Action selection: explore with probability eps, exploit otherwise.
  std::size_t action;
  if (epsilon_.should_explore(rng_)) {
    action = policy_->sample(*ctx.opps, slack_.average_slack(), rng_);
    ++explorations_;
  } else {
    action = qtable_->best_action(state);
  }
  epsilon_.advance(smoothed_payoff_);

  last_state_ = state;
  last_action_ = action;
  has_last_ = true;
  return action;
}

void RtmGovernor::reset() {
  ewma_.reset();
  slack_.reset();
  epsilon_.reset();
  if (qtable_) qtable_->reset();
  rng_ = common::Rng(params_.seed);
  max_cycles_seen_ = 1.0;
  has_last_ = false;
  last_period_ = -1.0;
  explorations_ = 0;
  smoothed_payoff_ = 0.0;
}

std::vector<std::size_t> RtmGovernor::greedy_policy() const {
  if (!qtable_) return {};
  return qtable_->greedy_policy();
}

void RtmGovernor::save_state(std::ostream& out) const {
  common::StateWriter w(out);
  ewma_.save_state(w);
  w.f64(max_cycles_seen_);
  w.boolean(qtable_ != nullptr);
  if (qtable_) qtable_->save_state(w);
  epsilon_.save_state(w);
  slack_.save_state(w);
  rng_.save_state(w);
  w.size(actions_);
  w.size(last_state_);
  w.size(last_action_);
  w.boolean(has_last_);
  w.f64(last_period_);
  w.size(explorations_);
  w.f64(smoothed_payoff_);
}

void RtmGovernor::load_state(std::istream& in) {
  common::StateReader r(in);
  ewma_.load_state(r);
  max_cycles_seen_ = r.f64();
  if (r.boolean()) {
    // Adopt the stored table's dimensions; a placeholder is enough since
    // load_state overwrites everything including the dimensions.
    if (!qtable_) qtable_ = std::make_unique<QTable>(1, 1);
    qtable_->load_state(r);
  } else {
    qtable_.reset();
  }
  epsilon_.load_state(r);
  slack_.load_state(r);
  rng_.load_state(r);
  actions_ = r.size();
  last_state_ = r.size();
  last_action_ = r.size();
  has_last_ = r.boolean();
  last_period_ = r.f64();
  explorations_ = r.size();
  smoothed_payoff_ = r.f64();
}

namespace {

/// Merge layout of the RTM family (rtm, rtm-upd and — via inheritance — the
/// many-core variants): the Q-table is the mergeable core, weighted by its
/// per-cell visit counters; everything before it (EWMA filter, workload
/// normaliser) and after it (epsilon schedule, slack monitor, RNG, manycore
/// extensions) rides along verbatim from the champion payload. Parsing stops
/// at the table, so any derived governor that appends state after the base
/// payload merges through the same traits.
class RtmMergeTraits final : public gov::MergeTraits {
 public:
  [[nodiscard]] std::string name() const override { return "rtm-q"; }

  [[nodiscard]] gov::ParsedState parse(
      const std::string& payload) const override {
    std::istringstream in(payload, std::ios::binary);
    common::StateReader r(in);
    gov::ParsedState p;
    try {
      EwmaPredictor ewma;
      ewma.load_state(r);
      (void)r.f64();  // max_cycles_seen_ (champion-carried, not merged)
      if (!r.boolean()) return p;  // no table yet: nothing mergeable
      const auto begin = static_cast<std::size_t>(in.tellg());
      QTable table(1, 1);
      table.load_state(r);
      const auto end = static_cast<std::size_t>(in.tellg());
      p.has_data = true;
      p.dims = {table.states(), table.actions()};
      p.values.reserve(table.states() * table.actions());
      p.cell_weights.reserve(table.states() * table.actions());
      for (std::size_t s = 0; s < table.states(); ++s) {
        for (std::size_t a = 0; a < table.actions(); ++a) {
          p.values.push_back(table.q(s, a));
          p.cell_weights.push_back(table.visits(s, a));
        }
      }
      p.weight = table.total_updates();
      p.counters = {table.total_updates()};
      p.spans = {{begin, end}};
    } catch (const common::SerialError& e) {
      throw gov::StateMergeError(std::string("rtm state parse: ") + e.what());
    }
    return p;
  }

  [[nodiscard]] std::vector<std::string> replacements(
      const gov::ParsedState& champion,
      const std::vector<double>& merged_values,
      const std::vector<std::uint64_t>& merged_cell_weights,
      const std::vector<std::uint64_t>& merged_counters) const override {
    if (champion.spans.empty()) return {};
    const auto states = static_cast<std::size_t>(champion.dims.at(0));
    const auto actions = static_cast<std::size_t>(champion.dims.at(1));
    QTable table(states, actions);
    std::size_t i = 0;
    for (std::size_t s = 0; s < states; ++s) {
      for (std::size_t a = 0; a < actions; ++a, ++i) {
        table.set_q(s, a, merged_values.at(i));
        table.set_visits(s, a,
                         static_cast<std::size_t>(merged_cell_weights.at(i)));
      }
    }
    table.set_total_updates(static_cast<std::size_t>(merged_counters.at(0)));
    std::ostringstream out(std::ios::binary);
    common::StateWriter w(out);
    table.save_state(w);
    return {out.str()};
  }
};

}  // namespace

std::unique_ptr<gov::StateMerger> RtmGovernor::make_state_merger() const {
  return gov::make_weighted_merger(std::make_unique<RtmMergeTraits>());
}

RtmParams rtm_params_from_spec(const common::Spec& spec, std::uint64_t seed) {
  RtmParams p;
  p.seed = gov::effective_seed(spec, seed);
  p.ewma_gamma = spec.get_double("gamma", p.ewma_gamma);
  p.learning_rate = spec.get_double("alpha", p.learning_rate);
  p.discount = spec.get_double("discount", p.discount);
  p.policy = spec.get_string("policy", p.policy);
  p.reward = spec.get_string("reward", p.reward);
  p.epd_beta = spec.get_double("beta", p.epd_beta);
  p.epsilon.epsilon0 = spec.get_double("epsilon0", p.epsilon.epsilon0);
  p.epsilon.alpha = spec.get_double("eps-alpha", p.epsilon.alpha);
  p.epsilon.epsilon_min = spec.get_double("eps-min", p.epsilon.epsilon_min);
  if (spec.has("levels")) {
    const auto n = static_cast<std::size_t>(spec.get_int("levels", 5));
    p.discretizer.workload_levels = n;
    p.discretizer.slack_levels = n;
  }
  p.discretizer.workload_levels = static_cast<std::size_t>(spec.get_int(
      "workload-levels", static_cast<long long>(p.discretizer.workload_levels)));
  p.discretizer.slack_levels = static_cast<std::size_t>(spec.get_int(
      "slack-levels", static_cast<long long>(p.discretizer.slack_levels)));
  p.slack_ewma_alpha = spec.get_double("slack-alpha", p.slack_ewma_alpha);
  if (spec.has("slack-mode")) {
    const std::string mode = spec.get_string("slack-mode", "");
    if (mode == "cumulative") {
      p.slack_mode = SlackAveraging::kCumulative;
    } else if (mode == "exponential") {
      p.slack_mode = SlackAveraging::kExponential;
    } else {
      throw std::invalid_argument(
          "rtm: slack-mode must be 'cumulative' or 'exponential', got '" +
          mode + "'");
    }
  }
  return p;
}

namespace {

const gov::GovernorRegistrar kRegisterRtm{
    gov::governor_registry(), "rtm",
    "proposed single-cluster Q-learning RTM (Section II); keys: policy, "
    "reward, gamma, alpha, discount, beta, epsilon0, eps-alpha, eps-min, "
    "levels, slack-alpha, seed",
    [](const common::Spec& spec, std::uint64_t seed) {
      return std::make_unique<RtmGovernor>(rtm_params_from_spec(spec, seed));
    }};

const gov::GovernorRegistrar kRegisterRtmUpd{
    gov::governor_registry(), "rtm-upd",
    "proposed RTM with the UPD exploration of prior work (Table II "
    "baseline); same keys as rtm",
    [](const common::Spec& spec, std::uint64_t seed) {
      RtmParams p = rtm_params_from_spec(spec, seed);
      if (!spec.has("policy")) p.policy = "upd";
      return std::make_unique<RtmGovernor>(p);
    }};

}  // namespace

}  // namespace prime::rtm
