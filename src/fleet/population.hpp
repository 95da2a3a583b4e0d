/// \file population.hpp
/// \brief Fleet population definition and shard partitioning.
///
/// The ROADMAP north-star is simulating millions of *independent devices*,
/// not one device per scenario: a population is the (governors × workloads ×
/// fps) scenario matrix replicated `devices_per_cell` times, every replica a
/// distinct simulated device with its own derived seeds (and therefore its
/// own frame trace, sensor noise and exploration trajectory). PopulationSpec
/// names that population; ShardPlan partitions its device index range into
/// contiguous shards for worker processes.
///
/// Two invariants make sharded runs bit-identical to unsharded ones:
///
/// 1. **Seeds are functions of the population-wide device index**
///    (common::derive_seed), never of shard coordinates — repartitioning a
///    population cannot change any device's simulated trajectory.
/// 2. **Device order is globally defined** (cell-major, replica-minor), and
///    shards cover contiguous index ranges — a shard's work is fully
///    determined by [device_begin, device_end).
///
/// A population's fingerprint (FNV-1a over its canonical key=value encoding)
/// rides in every shard artifact, so summaries and checkpoints from a
/// different population can never be merged or resumed by accident.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"

namespace prime::fleet {

/// \brief One simulated device of the population: its coordinates in the
///        scenario matrix plus its derived per-device seeds.
struct DeviceSpec {
  std::size_t index = 0;        ///< Population-wide device index.
  std::size_t cell = 0;         ///< (workload, fps, governor) cell index.
  std::size_t replica = 0;      ///< Replica index within the cell.
  std::string governor;         ///< Governor spec string.
  std::string workload;         ///< Workload spec string.
  double fps = 25.0;            ///< Performance requirement.
  std::uint64_t trace_seed = 0; ///< Seed for the device's frame source.
  std::uint64_t governor_seed = 0; ///< Seed for the device's governor.
  std::uint64_t platform_seed = 0; ///< Seed for the device's sensor noise.
};

/// \brief The coordinates of one (governor, workload, fps) cell.
struct CellCoords {
  std::size_t index = 0;
  std::string governor;
  std::string workload;
  double fps = 25.0;
};

/// \brief A population of simulated devices: the scenario matrix times
///        devices_per_cell replicas, plus the histogram ranges its
///        distributional report uses (bin geometry must be population-wide
///        so per-shard histograms merge exactly).
struct PopulationSpec {
  std::vector<std::string> governors;  ///< Governor spec strings.
  std::vector<std::string> workloads;  ///< Workload spec strings.
  std::vector<double> fps = {25.0};    ///< Frame-rate requirements.
  std::size_t devices_per_cell = 1;    ///< Device replicas per cell.
  std::size_t frames = 1000;           ///< Frames simulated per device.
  bool stream = true;                  ///< Stream frame sources (O(1) memory).
  std::uint64_t base_seed = 42;        ///< Root of every derived device seed.
  double target_utilisation = 0.45;    ///< Workload calibration target.

  // Distributional report histogram geometry. Values at or above hi clamp
  // into the top bin (percentiles then saturate at hi) — range them for the
  // population being run. energy_hi = 0 auto-scales to 1 J/frame.
  double energy_hi = 0.0;          ///< Per-device energy range (0 = frames*1J).
  std::size_t energy_bins = 4096;  ///< Energy histogram bins.
  std::size_t miss_bins = 1000;    ///< Miss-rate histogram bins over [0, 1+).
  double perf_hi = 2.0;            ///< Normalised-performance range.
  std::size_t perf_bins = 1000;    ///< Performance histogram bins.

  /// \brief Cells in the matrix (workload-major, then fps, then governor —
  ///        the ExperimentBuilder scenario order).
  [[nodiscard]] std::size_t cell_count() const noexcept;
  /// \brief Total devices (cell_count() * devices_per_cell).
  [[nodiscard]] std::size_t device_count() const noexcept;
  /// \brief Decode cell \p cell_index into its coordinates.
  [[nodiscard]] CellCoords cell(std::size_t cell_index) const;
  /// \brief Decode population-wide device \p index into its full spec,
  ///        including the seeds derived from base_seed and \p index alone.
  [[nodiscard]] DeviceSpec device(std::size_t index) const;
  /// \brief The energy histogram's upper bound with the auto default applied.
  [[nodiscard]] double resolved_energy_hi() const noexcept;

  /// \brief Reject empty/degenerate populations (no governors, workloads or
  ///        fps, zero devices_per_cell or frames, a non-finite or negative
  ///        util, bad histogram geometry) with std::invalid_argument.
  void validate() const;

  /// \brief FNV-1a over the canonical encoding: two populations fingerprint
  ///        equal iff every field that affects simulation or reporting is
  ///        equal. Stamped into shard summaries and checkpoints.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// \brief Canonical key=value encoding (the fingerprint input, and the
  ///        argv tokens the driver hands worker processes). Doubles are
  ///        rendered with round-trip precision.
  [[nodiscard]] std::vector<std::string> to_args() const;
  /// \brief Parse the to_args() keys back out of a Config (also the surface
  ///        fleet_tool's own command line goes through). Unset keys keep the
  ///        defaults above; the result is validate()d.
  [[nodiscard]] static PopulationSpec from_config(const common::Config& cfg);
};

/// \brief One contiguous slice of the population's device index range.
struct Shard {
  std::size_t index = 0;         ///< Shard index in the plan.
  std::size_t count = 1;         ///< Total shards in the plan.
  std::size_t device_begin = 0;  ///< First device (population-wide index).
  std::size_t device_end = 0;    ///< One past the last device.

  [[nodiscard]] std::size_t size() const noexcept {
    return device_end - device_begin;
  }
};

/// \brief Contiguous, near-equal partition of a population into shards: the
///        first (devices % shards) shards take one extra device, and the
///        shard ranges tile [0, device_count) exactly — verified by the
///        partition property tests and re-checked by the driver's merge.
class ShardPlan {
 public:
  /// \brief Partition \p device_count devices into \p shard_count shards.
  ///        Requires shard_count >= 1 (std::invalid_argument otherwise);
  ///        shards beyond device_count come out empty.
  ShardPlan(std::size_t device_count, std::size_t shard_count);

  [[nodiscard]] std::size_t device_count() const noexcept { return devices_; }
  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_; }
  /// \brief The \p index-th shard (std::out_of_range past shard_count()).
  [[nodiscard]] Shard shard(std::size_t index) const;
  /// \brief All shards in index order.
  [[nodiscard]] std::vector<Shard> shards() const;

 private:
  std::size_t devices_;
  std::size_t shards_;
};

}  // namespace prime::fleet
