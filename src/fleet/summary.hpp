/// \file summary.hpp
/// \brief Per-shard result aggregation: mergeable cell statistics and the
///        sealed shard summary / shard checkpoint container.
///
/// A shard runner folds every finished device run into one CellStats per
/// (governor, workload, fps) cell it touches: exact counters (devices,
/// epochs, deadline misses), common::ExactSum accumulators for the
/// double-typed per-device metrics, fixed-geometry common::Histograms of
/// per-device energy / miss-rate / normalised performance, and the merged
/// RunResult aggregates. Counters, ExactSums and histogram bins all add in
/// plain integers, so CellStats::merge is **exact, associative and
/// order-invariant** — the merged population report is bit-identical no
/// matter how the population was sharded, which the 1-shard-vs-N-shard
/// differential test pins.
///
/// Both shard artifacts share one sealed container (`ShardSummary`):
///
///   - `shard-<i>.fsum` — the finished shard (next_device == device_end),
///     what the driver merges into the PopulationReport;
///   - `shard-<i>.ckpt` — mid-shard progress at a device boundary, what a
///     relaunched worker resumes from after a crash or kill; removed once
///     the shard's `.fsum` is sealed.
///
/// On-disk format (version 2): the sealed envelope of common/sealed.hpp —
/// magic "PRIMEFS\0", header words 0 and 1 (offsets 24, 32) the shard index
/// and shard count. The payload carries the population fingerprint, the
/// device range, progress counters, the per-cell stats and — since version
/// 2 — the per-cell policy accumulator records (CellPolicy): the
/// gov::StateMerger accumulator of every trained governor state the shard
/// folded, so the driver can merge shards into fleet `.qpol` policies and a
/// killed/retried worker resumes its accumulation bit-identically from the
/// same sealed artifact as its statistics. A torn artifact is detectable,
/// never silently partial; reading also rejects duplicate cell or policy
/// records and an inconsistent device range.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <stdexcept>
#include <string>

#include "common/stats.hpp"
#include "fleet/population.hpp"
#include "sim/engine.hpp"

namespace prime::fleet {

/// \brief File identification bytes at offset 0.
inline constexpr std::array<unsigned char, 8> kShardSummaryMagic = {
    'P', 'R', 'I', 'M', 'E', 'F', 'S', '\0'};
/// \brief The format version this build reads and writes. Version 2 added
///        the per-cell policy accumulator records.
inline constexpr std::uint32_t kShardSummaryVersion = 2;

/// \brief Error thrown by the fleet layer: malformed or mismatched shard
///        artifacts, incomplete coverage at merge time, worker failures the
///        retry budget could not absorb.
class FleetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// \brief Exactly-mergeable statistics of one (governor, workload, fps)
///        cell's devices.
struct CellStats {
  /// \brief Placeholder construction (deserialisation target): histograms
  ///        are replaced wholesale by load_state().
  CellStats();
  /// \brief Accumulation construction: histogram geometry from \p pop, so
  ///        every shard of one population bins identically.
  explicit CellStats(const PopulationSpec& pop);

  std::uint64_t devices = 0;      ///< Devices folded in.
  sim::RunResult run;             ///< Merged per-device RunResult aggregates.
  common::ExactSum energy_sum;    ///< Σ per-device total energy (J).
  common::ExactSum time_sum;      ///< Σ per-device simulated time (s).
  common::ExactSum perf_sum;      ///< Σ per-device mean normalised perf.
  common::ExactSum power_sum;     ///< Σ per-device mean sensor power (W).
  common::ExactSum miss_sum;      ///< Σ per-device miss rate.
  common::Histogram energy_hist;  ///< Per-device energy distribution.
  common::Histogram miss_hist;    ///< Per-device miss-rate distribution.
  common::Histogram perf_hist;    ///< Per-device normalised-perf distribution.

  /// \brief Fold one finished device run into the cell.
  void add_device(const sim::RunResult& result);
  /// \brief Merge another cell's statistics (exact; throws
  ///        std::invalid_argument on histogram-geometry mismatch).
  void merge(const CellStats& other);

  // Derived per-device means (0 when the cell is empty).
  [[nodiscard]] double mean_energy() const noexcept;
  [[nodiscard]] double mean_miss_rate() const noexcept;
  [[nodiscard]] double mean_performance() const noexcept;
  [[nodiscard]] double mean_power() const noexcept;

  void save_state(common::StateWriter& out) const;
  void load_state(common::StateReader& in);
};

/// \brief Per-cell accumulated governor learning state (shard summary v2).
///
/// One record per cell the shard touched. For a mergeable governor the
/// accumulator holds the gov::StateMerger bytes over every device state the
/// shard folded so far — associative and order-invariant, so the driver's
/// cross-shard fold is bit-identical under any partition. Non-mergeable
/// governors record mergeable=false (deterministically skipped downstream).
/// The identity fields mirror a `.qpol` entry's and are validated at merge
/// time with the same specific errors.
struct CellPolicy {
  bool mergeable = false;           ///< Whether the governor has a merger.
  std::string governor_name;        ///< Governor display name.
  std::uint64_t opp_count = 0;      ///< Device OPP-table size.
  std::uint64_t core_count = 0;     ///< Device cluster core count.
  std::uint64_t platform_fingerprint = 0;  ///< hw shape fingerprint.
  std::uint64_t epochs = 0;         ///< Σ epochs trained across devices.
  std::uint64_t source_fingerprint = 0;  ///< XOR of per-device fingerprints.
  std::string accumulator;          ///< StateMerger accumulator bytes.
};

/// \brief One shard's sealed result/progress artifact (see file comment).
struct ShardSummary {
  std::uint64_t fingerprint = 0;   ///< PopulationSpec::fingerprint().
  Shard shard;                     ///< The device range this shard owns.
  /// Absolute index of the next device to simulate: device_end when the
  /// shard is complete (a summary), less when mid-shard (a checkpoint).
  std::uint64_t next_device = 0;
  /// Where the *writing session* began — device_begin for a fresh run,
  /// the checkpoint position for a resumed one (retry diagnostics).
  std::uint64_t started_at_device = 0;
  /// Per-cell statistics, keyed by population cell index; only cells whose
  /// device range intersects the shard appear. The map key order makes the
  /// serialisation canonical.
  std::map<std::uint64_t, CellStats> cells;
  /// Per-cell policy accumulators (v2), keyed like `cells` — every cell
  /// present in `cells` has a record here (possibly mergeable=false).
  std::map<std::uint64_t, CellPolicy> policies;

  /// \brief True when every device of the shard has been folded in.
  [[nodiscard]] bool complete() const noexcept {
    return next_device == shard.device_end;
  }

  /// \brief Serialise header + payload onto \p out and seal in place
  ///        (requires a seekable stream).
  void write(std::ostream& out) const;
  /// \brief Parse and validate; \p label names the source in errors. Throws
  ///        FleetError when any envelope check (common/sealed.hpp) or the
  ///        payload checks fail.
  [[nodiscard]] static ShardSummary read(std::istream& in,
                                         const std::string& label);
  /// \brief Write to \p path atomically (tmp + rename).
  void save_file(const std::string& path) const;
  /// \brief Load and validate the artifact at \p path.
  [[nodiscard]] static ShardSummary load_file(const std::string& path);
};

/// \brief Canonical artifact paths inside a fleet output directory — the
///        single naming convention the runner and the driver share.
[[nodiscard]] std::string shard_summary_path(const std::string& out_dir,
                                             std::size_t shard_index);
[[nodiscard]] std::string shard_checkpoint_path(const std::string& out_dir,
                                                std::size_t shard_index);

}  // namespace prime::fleet
