#include "rtm/ewma.hpp"

#include <stdexcept>

#include "common/serial.hpp"

namespace prime::rtm {

EwmaPredictor::EwmaPredictor(double gamma) : gamma_(gamma) {
  if (!(gamma > 0.0) || gamma > 1.0) {
    throw std::invalid_argument("EwmaPredictor: gamma must be in (0, 1]");
  }
}

void EwmaPredictor::reset() noexcept {
  predicted_ = 0;
  primed_ = false;
  count_ = 0;
  last_err_ = 0.0;
  err_stats_.reset();
}

void EwmaPredictor::save_state(common::StateWriter& out) const {
  out.u64(predicted_);
  out.boolean(primed_);
  out.size(count_);
  out.f64(last_err_);
  err_stats_.save_state(out);
}

void EwmaPredictor::load_state(common::StateReader& in) {
  predicted_ = in.u64();
  primed_ = in.boolean();
  count_ = in.size();
  last_err_ = in.f64();
  err_stats_.load_state(in);
}

}  // namespace prime::rtm
