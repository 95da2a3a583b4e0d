/// \file platform.hpp
/// \brief Board-level assembly of the simulated hardware.
///
/// `Platform` bundles an OPP table, one or more clusters and a power sensor
/// into the "board" the run-time layer manages, with named factories for the
/// configurations used in the paper (ODROID-XU3 A15 quad) and in tests.
///
/// The paper's platform has a single V-F domain; real many-cores ship several
/// independent per-cluster DVFS domains. A `Platform` therefore owns N
/// homogeneous `Cluster`s ("domains"), each with its own OPP index,
/// DvfsDriver, thermal state and per-OPP power coefficients — governors
/// decide per domain (gov::DecisionContext::domain) and the placement layer
/// (sim/placement.hpp) partitions an application's work slots across them.
/// The default N=1 configuration is bit-identical to the historical
/// single-cluster platform in construction, state serialisation and shape
/// fingerprint.
///
/// This module owns the board epoch (`BoardEpoch`, `Platform::run_epoch_into`):
/// T_OVH on slot 0's core, every domain's epoch, and the rule that combines
/// them into one result. Every board, the paper's 1x4 included, runs its
/// epochs through it from the one epoch loop (sim/frame_loop.hpp) that both
/// engines share, which integrates the sensor over its result.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "hw/cluster.hpp"
#include "hw/opp.hpp"
#include "hw/power_sensor.hpp"

namespace prime::hw {

/// \brief One board epoch: the slot map in, each domain's result and their
///        combination out. Platform::make_epoch() sizes it once per run;
///        reusing it, an epoch allocates nothing.
struct BoardEpoch {
  std::vector<std::size_t> slot_domain;  ///< Work slot -> DVFS domain.
  std::vector<std::size_t> slot_local;   ///< Work slot -> core in its domain.
  /// True when the slot map is the identity (slot j on global core j): each
  /// domain then reads its stretch of the caller's row in place.
  bool contiguous = false;
  /// Per-domain work rows, assigned from the caller's row when the slot map
  /// is not the identity (empty when it is).
  std::vector<std::vector<common::Cycles>> work;
  std::vector<EpochScratch> domains;  ///< Per-domain results.

  common::Seconds frame_time = 0.0;   ///< The slowest domain's frame time.
  std::size_t bottleneck = 0;         ///< That domain (lowest index on ties).
  common::Seconds window = 0.0;       ///< The longest domain window.
  common::Joule energy = 0.0;         ///< Summed in domain order.
  common::Watt avg_power = 0.0;       ///< energy / window (0 for no window).
  common::Celsius temperature = 0.0;  ///< The hottest domain's.
  common::Cycles executed = 0;        ///< Summed in domain order.
};

/// \brief A simulated board: OPP table + clusters (DVFS domains) + sensor.
///
/// Owns the OPP table so the clusters' pointers stay valid for the platform's
/// lifetime. Non-copyable (the clusters hold references to the table).
class Platform {
 public:
  /// \brief Build from an OPP table and cluster parameters. \p clusters
  ///        independent DVFS domains are created, each with `cluster_params`
  ///        (homogeneous domains: same core count, power/thermal/DVFS
  ///        parameters and shared OPP table, but fully independent state).
  Platform(OppTable table, const ClusterParams& cluster_params,
           const PowerSensorParams& sensor_params = {},
           std::uint64_t sensor_seed = 0xC0FFEE, std::size_t clusters = 1);

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  /// \brief The paper's platform: 4x Cortex-A15, 19 OPPs (200-2000 MHz),
  ///        XU3-calibrated power/thermal parameters, INA231-like sensor.
  [[nodiscard]] static std::unique_ptr<Platform> odroid_xu3_a15(
      std::uint64_t sensor_seed = 0xC0FFEE);

  /// \brief Config-driven factory. Recognised keys (all optional):
  ///        hw.clusters (DVFS domains, default 1), hw.cores (cores per
  ///        domain), hw.opps, hw.fmin_mhz, hw.fmax_mhz, hw.ceff,
  ///        hw.idle_fraction, hw.ambient, hw.sensor_seed.
  [[nodiscard]] static std::unique_ptr<Platform> from_config(
      const common::Config& cfg);

  /// \brief Number of independent DVFS domains on the board.
  [[nodiscard]] std::size_t domain_count() const noexcept {
    return clusters_.size();
  }
  /// \brief DVFS domain \p d, for \p d < domain_count() (unchecked: the
  ///        engines call it per epoch).
  [[nodiscard]] Cluster& domain(std::size_t d) { return *clusters_[d]; }
  /// \brief DVFS domain \p d (read-only).
  [[nodiscard]] const Cluster& domain(std::size_t d) const {
    return *clusters_[d];
  }
  /// \brief Total cores across all domains (the board's core count — what an
  ///        application's work is split across).
  [[nodiscard]] std::size_t total_cores() const noexcept {
    return total_cores_;
  }
  /// \brief Domain owning global core \p core (domain-major numbering:
  ///        domain 0 holds cores [0, c0), domain 1 holds [c0, c0+c1), ...).
  [[nodiscard]] std::size_t domain_of_core(std::size_t core) const noexcept {
    return core / clusters_.front()->core_count();
  }
  /// \brief Domain-local index of global core \p core.
  [[nodiscard]] std::size_t local_of_core(std::size_t core) const noexcept {
    return core % clusters_.front()->core_count();
  }

  /// \brief A BoardEpoch over a slot map the caller has validated (in
  ///        bounds, no core twice). An identity map is marked `contiguous`;
  ///        any other gets a zeroed work row per domain.
  [[nodiscard]] BoardEpoch make_epoch(std::vector<std::size_t> slot_domain,
                                      std::vector<std::size_t> slot_local) const;
  /// \brief The board-epoch kernel. \p row holds one work entry per slot;
  ///        \p overhead seconds of governor processing (T_OVH) are added to
  ///        `row[0]` as cycles at slot 0's domain frequency (the RTM runs on
  ///        the core hosting the first worker). A contiguous epoch's domains
  ///        then read their stretch of \p row in place; otherwise `row[j]` is
  ///        assigned to slot j's core. Every domain runs its epoch (at the
  ///        kMemRefFrequency memory reference) and the results combine into
  ///        \p epoch.
  void run_epoch_into(BoardEpoch& epoch, common::Cycles* row,
                      common::Seconds overhead, common::Seconds period,
                      double mem_fraction);

  /// \brief Domain 0: on the paper's single-domain board, the whole board.
  ///        The engines drive every board through run_epoch_into(); this
  ///        accessor is for callers that inspect a single-domain board.
  [[nodiscard]] Cluster& cluster() noexcept { return *clusters_.front(); }
  /// \brief Domain 0 (read-only).
  [[nodiscard]] const Cluster& cluster() const noexcept {
    return *clusters_.front();
  }
  /// \brief The OPP table (stable address for the platform's lifetime),
  ///        shared by every domain.
  [[nodiscard]] const OppTable& opp_table() const noexcept { return table_; }
  /// \brief The on-board power sensor.
  [[nodiscard]] PowerSensor& power_sensor() noexcept { return sensor_; }
  /// \brief Board name for reports.
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// \brief FNV-1a fingerprint of the platform *shape*: total core count plus
  ///        every OPP's frequency/voltage bit pattern, and — for multi-domain
  ///        boards — the domain structure (domain count and per-domain core
  ///        counts). Two platforms fingerprint equal iff a governor's action
  ///        space and learning-state geometry are interchangeable between
  ///        them — the identity that checkpoints and policy-library entries
  ///        are keyed by; platforms that differ only in how the same cores
  ///        are partitioned into domains (2x4 vs 1x8) fingerprint
  ///        differently. Single-domain boards hash exactly the historical
  ///        fields, so existing `.ckpt`/`.qpol` keys stay valid.
  ///        Deliberately excludes mutable state, seeds and the display name.
  [[nodiscard]] std::uint64_t shape_fingerprint() const noexcept;
  /// \brief Set the board name.
  void set_name(std::string name) { name_ = std::move(name); }
  /// \brief Reset every domain's state and the sensor integration.
  void reset();

  /// \brief Serialise all mutable board state (every cluster + power sensor),
  ///        so a run resumed from a checkpoint (sim/checkpoint.hpp) sees the
  ///        exact thermal, DVFS and sensor-noise trajectory an uninterrupted
  ///        run would. Configuration (OPP table, model parameters) is not
  ///        stored: a payload is only valid for an identically constructed
  ///        platform. Single-domain payloads are byte-identical to the
  ///        historical format (cluster state, then sensor state).
  void save_state(std::ostream& out) const;
  /// \brief Restore state written by save_state(). Throws
  ///        common::SerialError on truncated payloads or core-count mismatch.
  void load_state(std::istream& in);

 private:
  OppTable table_;
  std::vector<std::unique_ptr<Cluster>> clusters_;
  std::size_t total_cores_ = 0;
  PowerSensor sensor_;
  std::string name_ = "sim-board";
};

}  // namespace prime::hw
