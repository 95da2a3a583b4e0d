/// \file governor.hpp
/// \brief The power-governor interface between the run-time layer and the
///        hardware.
///
/// Mirrors the Linux cpufreq governor contract the paper's RTM plugs into:
/// once per decision epoch the OS hands the governor what the hardware
/// reported for the epoch that just finished (`EpochObservation`) plus the
/// requirement for the epoch about to start (`DecisionContext`), and the
/// governor returns the OPP index to apply. Governors must be deterministic
/// given their seed so experiments replay exactly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "hw/opp.hpp"

namespace prime::gov {

class StateMerger;  // gov/merge.hpp

/// \brief Per-core cycle counts as an owned-or-borrowed view.
///
/// Governors only ever *read* core cycles, so the engine's batched hot loop
/// binds the observation to the cluster's reused scratch buffer instead of
/// copying a vector per frame (bind() borrows; the buffer must stay valid
/// and unchanged until the next epoch overwrites the observation). Assigning
/// a vector or initializer list owns the elements — the natural form for
/// tests and checkpoint restore. Copying always deep-copies into owned
/// storage, so a stored copy (checkpoint snapshot) can never dangle.
class CycleSpan {
 public:
  CycleSpan() = default;
  CycleSpan(std::vector<common::Cycles> v) : owned_(std::move(v)) {
    data_ = owned_.data();
    size_ = owned_.size();
  }
  CycleSpan(std::initializer_list<common::Cycles> v)
      : CycleSpan(std::vector<common::Cycles>(v)) {}
  CycleSpan(const CycleSpan& other) { *this = other; }
  CycleSpan(CycleSpan&& other) noexcept { *this = std::move(other); }
  CycleSpan& operator=(const CycleSpan& other) {
    if (this != &other) {
      owned_.assign(other.begin(), other.end());
      data_ = owned_.data();
      size_ = owned_.size();
    }
    return *this;
  }
  CycleSpan& operator=(CycleSpan&& other) noexcept {
    if (this != &other) {
      if (other.data_ == other.owned_.data() && !other.owned_.empty()) {
        owned_ = std::move(other.owned_);
        data_ = owned_.data();
      } else {
        owned_.clear();
        data_ = other.data_;
      }
      size_ = other.size_;
    }
    return *this;
  }

  /// \brief Borrow \p n counts at \p data without copying (engine hot path).
  void bind(const common::Cycles* data, std::size_t n) noexcept {
    owned_.clear();  // keeps capacity; just marks "not owning"
    data_ = data;
    size_ = n;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] const common::Cycles* data() const noexcept { return data_; }
  [[nodiscard]] const common::Cycles* begin() const noexcept { return data_; }
  [[nodiscard]] const common::Cycles* end() const noexcept {
    return data_ + size_;
  }
  [[nodiscard]] common::Cycles operator[](std::size_t i) const noexcept {
    return data_[i];
  }
  [[nodiscard]] bool operator==(const CycleSpan& other) const noexcept {
    if (size_ != other.size_) return false;
    for (std::size_t i = 0; i < size_; ++i) {
      if (data_[i] != other.data_[i]) return false;
    }
    return true;
  }

 private:
  std::vector<common::Cycles> owned_;
  const common::Cycles* data_ = nullptr;
  std::size_t size_ = 0;
};

/// \brief Hardware/application feedback for one completed decision epoch.
struct EpochObservation {
  std::size_t epoch = 0;            ///< Index of the completed epoch.
  common::Seconds period = 0.0;     ///< Deadline (Tref) that applied to it.
  common::Seconds frame_time = 0.0; ///< Time to finish the frame (inc. stall).
  common::Seconds window = 0.0;     ///< Wall-clock epoch length.
  common::Cycles total_cycles = 0;  ///< Cycles summed over all cores (the paper's CC).
  CycleSpan core_cycles;            ///< Per-core cycle counts (view).
  std::size_t opp_index = 0;        ///< OPP that executed the epoch.
  common::Watt avg_power = 0.0;     ///< Sensor-measured average power.
  common::Celsius temperature = 0.0;///< Die temperature after the epoch.
  bool deadline_met = true;         ///< frame_time <= period.

  /// \brief Slack ratio of this single epoch: (Tref - Ti)/Tref (negative on a
  ///        miss). Governors that track *average* slack maintain their own
  ///        running estimate per the paper's eq. (5).
  [[nodiscard]] double slack_ratio() const noexcept {
    return period <= 0.0 ? 0.0 : (period - frame_time) / period;
  }

  /// \brief The busiest core's load: its busy time at \p frequency (the OPP
  ///        that executed the epoch) over the window, 0 for no window. The
  ///        largest cycle count is found first and divided once; division by
  ///        a positive number is monotone, so this is bit-equal to the
  ///        largest per-core load.
  [[nodiscard]] double busiest_load(common::Hertz frequency) const noexcept {
    common::Cycles busiest = 0;
    for (const common::Cycles c : core_cycles) busiest = std::max(busiest, c);
    return window > 0.0 ? common::time_for(busiest, frequency) / window : 0.0;
  }
};

/// \brief Everything known about the epoch that is about to run.
struct DecisionContext {
  std::size_t epoch = 0;               ///< Index of the upcoming epoch.
  common::Seconds period = 0.0;        ///< Deadline (Tref) for it.
  std::size_t cores = 1;               ///< Cores it decides for: slots.size().
  const hw::OppTable* opps = nullptr;  ///< The action space.
  /// DVFS domain this decision applies to; run_multi_simulation gives the
  /// application's first core's. On multi-domain platforms the engine calls
  /// decide() once per domain per epoch (same governor instance, so learning
  /// state is shared and the decision stream interleaves domain observations
  /// — the rtm family co-learns placement x per-domain V-F through the
  /// per-domain feedback it receives). Always 0 on the paper's board.
  std::size_t domain = 0;
  /// Independent DVFS domains on the platform (1 = the paper's board).
  std::size_t domains = 1;
  /// The work row of the frame this decision is for, one entry per work slot
  /// and before any governor overhead is added; nullptr when the caller has
  /// no frame to offer. Only the Oracle reads it: every other governor
  /// decides from the observed past alone.
  const common::Cycles* work = nullptr;
  /// The slots of `work` this decision covers: those on `domain` in
  /// run_simulation, the application's own in run_multi_simulation.
  std::span<const std::size_t> slots;
  /// The memory fraction the board-epoch kernel will run the frame at.
  double mem_fraction = 0.0;
};

/// \brief Abstract power governor.
class Governor {
 public:
  virtual ~Governor() = default;

  /// \brief Display name used in reports ("ondemand", "rtm-qlearning", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// \brief Choose the OPP index for the upcoming epoch. \p last is empty for
  ///        the very first epoch.
  [[nodiscard]] virtual std::size_t decide(
      const DecisionContext& ctx,
      const std::optional<EpochObservation>& last) = 0;

  /// \brief Per-epoch processing overhead charged to the frame time (the
  ///        paper's T_OVH processing component). Default: a PMU register
  ///        read's worth of time.
  [[nodiscard]] virtual common::Seconds epoch_overhead() const {
    return common::us(2.0);
  }

  /// \brief Restore the governor to its initial (untrained) state.
  virtual void reset() = 0;

  /// \brief Serialise every piece of mutable decision state (learning tables,
  ///        accumulators, exploration RNG, ...) so that a governor restored
  ///        by load_state() makes bit-identical decisions to one that kept
  ///        running — the contract checkpoint/resume (sim/checkpoint.hpp)
  ///        builds on, pinned per registered governor in
  ///        tests/test_checkpoint.cpp. Configuration (constructor parameters)
  ///        is NOT serialised: a payload is only valid for a governor built
  ///        from the same spec. Stateless governors inherit this empty
  ///        default.
  virtual void save_state(std::ostream& out) const { (void)out; }
  /// \brief Restore state written by save_state() on an identically
  ///        constructed governor. Throws common::SerialError on truncated or
  ///        corrupt payloads.
  virtual void load_state(std::istream& in) { (void)in; }

  /// \brief The wrapped governor of a decorator (thermal-cap, ...), nullptr
  ///        for leaf governors. Lets observers (telemetry probes) unwrap
  ///        composed specs to reach the governor that actually learns.
  [[nodiscard]] virtual const Governor* inner_governor() const noexcept {
    return nullptr;
  }

  /// \brief A fresh merge accumulator for this governor's save_state()
  ///        payloads (gov/merge.hpp), the primitive behind the warm-start
  ///        policy library's visit-weighted fleet merge. The merger is bound
  ///        to this governor's *configuration* — only payloads saved by
  ///        identically constructed governors may be folded in. Governors
  ///        without mergeable learning state return nullptr (the default),
  ///        which callers treat as "not publishable, skip". Defined
  ///        out-of-line (gov/merge.cpp) where StateMerger is complete.
  [[nodiscard]] virtual std::unique_ptr<StateMerger> make_state_merger() const;
};

/// \brief Interface for governors whose learning progress is observable: the
///        greedy policy extracted from the learner's table(s) plus the
///        cumulative exploration count. Consumed per epoch by telemetry
///        (sim::ConvergenceSink) to detect when learning completes
///        (Tables II/III) without knowing the concrete learner type.
class Learner {
 public:
  virtual ~Learner() = default;
  /// \brief Greedy action per state; empty before initialisation.
  [[nodiscard]] virtual std::vector<std::size_t> greedy_policy() const = 0;
  /// \brief Exploration-arm decisions taken so far.
  [[nodiscard]] virtual std::size_t exploration_count() const = 0;
};

}  // namespace prime::gov
