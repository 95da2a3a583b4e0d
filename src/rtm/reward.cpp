#include "rtm/reward.hpp"

#include <stdexcept>

namespace prime::rtm {

RewardRegistry& reward_registry() {
  static RewardRegistry registry("reward");
  return registry;
}

std::unique_ptr<RewardFunction> make_reward(const std::string& name) {
  return reward_registry().create(name);
}

namespace {

const RewardRegistrar kRegisterTargetSlack{
    reward_registry(), "target-slack",
    "default: maximal in a small positive slack band (TCAD'16 companion); "
    "keys: target, scale, a, b, neg-penalty, clip",
    [](const common::Spec& spec) {
      TargetSlackReward::Params p;
      p.target = spec.get_double("target", p.target);
      p.scale = spec.get_double("scale", p.scale);
      p.a = spec.get_double("a", p.a);
      p.b = spec.get_double("b", p.b);
      p.neg_penalty = spec.get_double("neg-penalty", p.neg_penalty);
      p.clip = spec.get_double("clip", p.clip);
      return std::make_unique<TargetSlackReward>(p);
    }};

const RewardRegistrar kRegisterLinearSlack{
    reward_registry(), "linear-slack",
    "literal eq. (4) R = a*L + b*dL (saturates at f_max; ablation only); "
    "keys: a, b",
    [](const common::Spec& spec) {
      return std::make_unique<LinearSlackReward>(spec.get_double("a", 1.0),
                                                 spec.get_double("b", 0.5));
    }};

}  // namespace

}  // namespace prime::rtm
