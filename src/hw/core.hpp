/// \file core.hpp
/// \brief A single simulated CPU core.
///
/// Cores record the per-frame cycle budgets the cluster executes at its
/// operating point, accumulate busy/idle time into their PMU, and tally
/// their own energy. The cluster (not the core) owns the V-F domain and the
/// power terms, matching the big.LITTLE A15 cluster where all four cores
/// share one rail and one PLL.
#pragma once

#include <cstddef>

#include "common/units.hpp"
#include "hw/pmu.hpp"

namespace prime::common {
class StateWriter;
class StateReader;
}  // namespace prime::common

namespace prime::hw {

/// \brief One simulated A15 core.
class Core {
 public:
  /// \brief Construct with an id.
  explicit Core(std::size_t id) noexcept : id_(id) {}

  /// \brief Record one epoch whose busy/idle/energy split the cluster
  ///        computed: \p work cycles over \p busy_time, WFI for
  ///        \p idle_time, and \p energy attributed to this core. Updates the
  ///        PMU and energy counters.
  void account(common::Cycles work, common::Seconds busy_time,
               common::Seconds idle_time, common::Joule energy) noexcept;

  /// \brief Core identifier (0-based).
  [[nodiscard]] std::size_t id() const noexcept { return id_; }
  /// \brief This core's PMU (read-only).
  [[nodiscard]] const Pmu& pmu() const noexcept { return pmu_; }
  /// \brief This core's PMU (for snapshot-based interval reads).
  [[nodiscard]] Pmu& pmu() noexcept { return pmu_; }
  /// \brief Cumulative energy attributed to this core.
  [[nodiscard]] common::Joule total_energy() const noexcept { return energy_; }
  /// \brief Reset PMU and energy accounting.
  void reset() noexcept;

  /// \brief Serialise PMU counters and accumulated energy.
  void save_state(common::StateWriter& out) const;
  /// \brief Restore state written by save_state().
  void load_state(common::StateReader& in);

 private:
  std::size_t id_;
  Pmu pmu_;
  common::Joule energy_ = 0.0;
};

}  // namespace prime::hw
