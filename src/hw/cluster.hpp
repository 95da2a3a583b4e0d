/// \file cluster.hpp
/// \brief A DVFS cluster: several cores sharing one V-F domain.
///
/// Mirrors the ODROID-XU3 A15 cluster: four cores, one voltage rail, one PLL,
/// one `cpufreq` policy. The cluster executes one decision epoch at a time:
/// given each core's cycle budget and the epoch period, it runs all cores at
/// the current OPP, accounts per-core and shared (uncore, leakage) energy,
/// advances the thermal model and reports the frame/epoch timing that the
/// governor observes.
#pragma once

#include <cstddef>
#include <vector>

#include "common/units.hpp"
#include "hw/core.hpp"
// StateWriter/StateReader forward declarations arrive via hw/core.hpp.
#include "hw/dvfs_driver.hpp"
#include "hw/opp.hpp"
#include "hw/power_model.hpp"
#include "hw/thermal_model.hpp"

namespace prime::hw {

/// \brief Everything the platform reports about one executed epoch. The
///        per-core vectors keep their capacity across epochs, so
///        Cluster::run_epoch_into() does no allocation after the first call:
///        declare one outside the loop and pass it to every epoch.
struct EpochScratch {
  /// Time from epoch start until the slowest core finished its work,
  /// including any DVFS transition stall at the epoch boundary.
  common::Seconds frame_time = 0.0;
  /// Wall-clock length of the epoch window: max(frame_time, period).
  common::Seconds window = 0.0;
  /// DVFS stall included in frame_time (0 when no transition happened).
  common::Seconds dvfs_stall = 0.0;
  /// Total cluster energy over the window (cores + uncore + leakage).
  common::Joule energy = 0.0;
  /// Average cluster power over the window.
  common::Watt avg_power = 0.0;
  /// Die temperature at the end of the window.
  common::Celsius temperature = 0.0;
  /// Per-core active cycles executed this epoch.
  std::vector<common::Cycles> core_cycles;
  /// Their sum.
  common::Cycles executed = 0;
  /// Per-core busy time this epoch.
  std::vector<common::Seconds> core_busy;
  /// True when frame_time <= period (the deadline was met).
  bool deadline_met = true;
};

/// \brief Per-OPP coefficients hoisted out of the per-frame path: every term
///        of the power model that depends only on the operating point is
///        evaluated once at construction (with the exact same expressions the
///        PowerModel would use per frame, so results stay bit-identical).
///        Only the temperature factor of leakage remains per-epoch.
struct OppCoeffs {
  common::Watt active_power = 0.0;  ///< PowerModel::active_power(opp).
  common::Watt idle_power = 0.0;    ///< PowerModel::idle_power(opp).
  common::Watt uncore_power = 0.0;  ///< PowerModel::uncore_power(opp).
  common::Watt leak_base = 0.0;     ///< PowerModel::leakage_base(voltage).
};

/// \brief Construction parameters for a cluster.
struct ClusterParams {
  std::size_t cores = 4;                ///< Number of cores in the V-F domain.
  PowerModelParams power{};             ///< Analytical power-model parameters.
  ThermalModelParams thermal{};         ///< RC thermal-model parameters.
  DvfsDriverParams dvfs{};              ///< Transition-cost parameters.
  std::size_t initial_opp = 0;          ///< OPP index applied at reset.
};

/// \brief A multi-core shared-V-F cluster.
class Cluster {
 public:
  /// \brief Build a cluster over \p table with the given parameters.
  Cluster(const OppTable& table, const ClusterParams& params);

  /// \brief Request an OPP change effective for the next epoch; the stall is
  ///        charged to that epoch's frame time. Returns the stall incurred.
  common::Seconds set_opp(std::size_t index) noexcept;

  /// \brief Execute one epoch: each core runs `work[i]` base cycles for i <
  ///        \p work_count (missing entries mean idle) within a nominal
  ///        \p period, with full accounting written into \p out. The epoch
  ///        window extends beyond the period when the work overruns
  ///        (deadline miss).
  ///
  /// \p mem_fraction models memory-boundedness: that fraction of the frame's
  /// execution time at \p ref_frequency is memory stalls, whose wall-clock
  /// duration does not shrink at higher f. The PMU consequently counts
  /// *effective* cycles `w * ((1-m) + m * f/f_ref)` — observed workload grows
  /// with frequency, exactly as on real cores — which is what governors see.
  /// Power terms come from the per-OPP coefficient table built at
  /// construction; only the leakage temperature factor is per-epoch.
  void run_epoch_into(const common::Cycles* work, std::size_t work_count,
                      common::Seconds period, double mem_fraction,
                      common::Hertz ref_frequency, EpochScratch& out);

  /// \brief Number of cores.
  [[nodiscard]] std::size_t core_count() const noexcept { return cores_.size(); }
  /// \brief Core \p i (read-only).
  [[nodiscard]] const Core& core(std::size_t i) const { return cores_.at(i); }
  /// \brief Core \p i (for PMU snapshotting).
  [[nodiscard]] Core& core(std::size_t i) { return cores_.at(i); }
  /// \brief Currently applied operating point.
  [[nodiscard]] const Opp& current_opp() const noexcept { return dvfs_.current(); }
  /// \brief Index of the current operating point.
  [[nodiscard]] std::size_t current_opp_index() const noexcept {
    return dvfs_.current_index();
  }
  /// \brief The OPP table (the governor's action space).
  [[nodiscard]] const OppTable& opp_table() const noexcept { return *table_; }
  /// \brief The DVFS driver (for transition statistics).
  [[nodiscard]] const DvfsDriver& dvfs() const noexcept { return dvfs_; }
  /// \brief The thermal model state.
  [[nodiscard]] const ThermalModel& thermal() const noexcept { return thermal_; }
  /// \brief The power model in use.
  [[nodiscard]] const PowerModel& power_model() const noexcept { return power_; }
  /// \brief Cumulative energy across all epochs since reset.
  [[nodiscard]] common::Joule total_energy() const noexcept { return total_energy_; }
  /// \brief Cumulative wall-clock time across all epochs since reset.
  [[nodiscard]] common::Seconds total_time() const noexcept { return total_time_; }
  /// \brief Reset cores, thermal state, DVFS counters and energy accounting.
  void reset();

  /// \brief Serialise everything mutable: DVFS driver, thermal state, pending
  ///        transition stall, energy/time totals and per-core PMU/energy.
  void save_state(common::StateWriter& out) const;
  /// \brief Restore state written by save_state() on a cluster with the same
  ///        core count (mismatch throws common::SerialError).
  void load_state(common::StateReader& in);

 private:
  const OppTable* table_;
  PowerModel power_;
  /// OPP-invariant power terms, indexed by OPP table index (immutable after
  /// construction — the table is fixed, only the *current* index moves).
  std::vector<OppCoeffs> coeffs_;
  ThermalModel thermal_;
  DvfsDriver dvfs_;
  std::vector<Core> cores_;
  common::Seconds pending_stall_ = 0.0;
  common::Joule total_energy_ = 0.0;
  common::Seconds total_time_ = 0.0;
  std::size_t initial_opp_;
};

}  // namespace prime::hw
