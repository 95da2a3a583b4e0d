#include "rtm/slack.hpp"

#include <stdexcept>

#include "common/serial.hpp"

namespace prime::rtm {

SlackMonitor::SlackMonitor(SlackAveraging mode, double ewma_alpha)
    : mode_(mode), ewma_alpha_(ewma_alpha) {
  if (!(ewma_alpha > 0.0) || ewma_alpha > 1.0) {
    throw std::invalid_argument("SlackMonitor: ewma_alpha must be in (0, 1]");
  }
}

void SlackMonitor::reset() noexcept {
  average_ = 0.0;
  delta_ = 0.0;
  last_ = 0.0;
  sum_ = 0.0;
  epochs_ = 0;
}

void SlackMonitor::save_state(common::StateWriter& out) const {
  out.f64(average_);
  out.f64(delta_);
  out.f64(last_);
  out.f64(sum_);
  out.size(epochs_);
}

void SlackMonitor::load_state(common::StateReader& in) {
  average_ = in.f64();
  delta_ = in.f64();
  last_ = in.f64();
  sum_ = in.f64();
  epochs_ = in.size();
}

}  // namespace prime::rtm
