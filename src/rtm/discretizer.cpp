#include "rtm/discretizer.hpp"

#include <stdexcept>

namespace prime::rtm {

Discretizer::Discretizer(const DiscretizerParams& params) : params_(params) {
  if (params_.workload_levels == 0 || params_.slack_levels == 0) {
    throw std::invalid_argument("Discretizer: level counts must be >= 1");
  }
  if (params_.slack_clip <= 0.0) {
    throw std::invalid_argument("Discretizer: slack_clip must be > 0");
  }
}

Discretizer::Levels Discretizer::levels_of(std::size_t state) const noexcept {
  Levels l;
  l.workload = state / params_.slack_levels;
  l.slack = state % params_.slack_levels;
  if (l.workload >= params_.workload_levels) {
    l.workload = params_.workload_levels - 1;
  }
  return l;
}

}  // namespace prime::rtm
