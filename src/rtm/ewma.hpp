/// \file ewma.hpp
/// \brief Exponential weighted moving average workload predictor (eq. 1).
///
/// The paper's state-prediction step: the workload (CPU cycle count, CC)
/// expected in the next decision epoch is
///     CC_{i+1} = gamma * actualCC_i + (1 - gamma) * predCC_i
/// with smoothing factor gamma = 0.6 determined experimentally (Section
/// III-B). The predictor also tracks its own misprediction statistics, which
/// is the data behind Fig. 3.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"

namespace prime::common {
class StateWriter;
class StateReader;
}  // namespace prime::common

namespace prime::rtm {

/// \brief EWMA predictor over per-epoch cycle counts.
class EwmaPredictor {
 public:
  /// \brief Construct with smoothing factor \p gamma in (0, 1]. The paper's
  ///        experimentally determined value is 0.6.
  explicit EwmaPredictor(double gamma = 0.6);

  /// \brief Record the actual workload of the epoch that just finished and
  ///        return the prediction for the next epoch (eq. 1). The first call
  ///        seeds the filter and returns the observation unchanged.
  common::Cycles observe(common::Cycles actual) {
    ++count_;
    if (!primed_) {
      predicted_ = actual;
      primed_ = true;
      last_err_ = 0.0;
      return predicted_;
    }
    // Misprediction of the epoch that just completed: the filter had
    // predicted `predicted_` and the hardware reported `actual`.
    if (actual > 0) {
      last_err_ = std::abs(static_cast<double>(actual) -
                           static_cast<double>(predicted_)) /
                  static_cast<double>(actual);
      err_stats_.add(last_err_);
    }
    const double next = gamma_ * static_cast<double>(actual) +
                        (1.0 - gamma_) * static_cast<double>(predicted_);
    predicted_ = static_cast<common::Cycles>(next);
    return predicted_;
  }

  /// \brief Prediction for the upcoming epoch (last value returned by
  ///        observe(); 0 before any observation).
  [[nodiscard]] common::Cycles prediction() const noexcept { return predicted_; }

  /// \brief True once at least one observation has seeded the filter.
  [[nodiscard]] bool primed() const noexcept { return primed_; }

  /// \brief The smoothing factor gamma.
  [[nodiscard]] double gamma() const noexcept { return gamma_; }

  /// \brief Number of observations so far.
  [[nodiscard]] std::size_t observations() const noexcept { return count_; }

  /// \brief |actual - predicted| / actual of the most recent epoch (0 before
  ///        two observations). This is the per-frame misprediction of Fig. 3.
  [[nodiscard]] double last_misprediction() const noexcept { return last_err_; }

  /// \brief Running statistics of the per-epoch relative misprediction.
  [[nodiscard]] const common::RunningStats& misprediction_stats() const noexcept {
    return err_stats_;
  }

  /// \brief Forget all state (new application / requirement change).
  void reset() noexcept;

  /// \brief Serialise the filter state (not gamma, which is configuration).
  void save_state(common::StateWriter& out) const;
  /// \brief Restore state written by save_state().
  void load_state(common::StateReader& in);

 private:
  double gamma_;
  common::Cycles predicted_ = 0;
  bool primed_ = false;
  std::size_t count_ = 0;
  double last_err_ = 0.0;
  common::RunningStats err_stats_;
};

}  // namespace prime::rtm
