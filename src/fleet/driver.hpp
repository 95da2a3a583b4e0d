/// \file driver.hpp
/// \brief Multi-process fleet orchestration: launch shard workers, retry
///        failures from their checkpoints, merge summaries into one
///        distributional population report.
///
/// FleetDriver is the parent-side half of population mode. It partitions the
/// population with a ShardPlan and runs it on up to `workers` concurrent
/// worker processes, one per worker slot: each scheduling round deals the
/// pending shards into at most `workers - running` batches (deal_batches:
/// pending shard k to batch k % batches) and starts one process per batch,
/// which runs its shards one after another through run_worker and exits
/// nonzero at the first that fails. A batch is fixed when its process
/// starts, so a slot that finishes early stays idle while the others run;
/// dealing by stride keeps neighbouring shards, which often share a
/// governor's cost, on different slots.
/// When a process exits, the driver checks each shard of its batch for a
/// sealed summary: the first shard without one spends an attempt against
/// the `retries` budget and is relaunched, resuming from its checkpoint; the
/// shards after it never started, so they return to pending without
/// spending one. When every shard's sealed summary exists, the driver
/// merges them — in shard-index order, with CellStats' exact merge — into a
/// PopulationReport whose numbers are bit-identical no matter how the
/// population was sharded or batched or how often workers died.
///
/// Two worker mechanisms share that control loop:
///
///   - **exec mode** (worker_argv non-empty): fork + execv of the given argv
///     (fleet_tool re-invoking itself with `mode=worker`) plus the batch's
///     WorkerBatch::to_args(). What production population runs use —
///     workers are real isolated processes.
///   - **fork mode** (worker_argv empty): fork without exec; the child runs
///     run_worker on its batch in-process and _exits. What tests use — no
///     dependency on a binary's on-disk location, same process-failure
///     semantics.
///
/// `workers == 0` degenerates to sequential in-process execution of every
/// shard (no fork at all) — the reference the differential tests compare
/// multi-process runs against.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fleet/population.hpp"
#include "fleet/summary.hpp"

namespace prime::fleet {

/// \brief Orchestration options (the population itself is passed to run()).
struct FleetOptions {
  std::size_t shards = 1;       ///< Shard count (>= 1).
  /// Maximum concurrent worker processes; each serves a batch of shards,
  /// so a run with no failures starts min(workers, shards) processes.
  /// 0 = run every shard sequentially in-process (no fork).
  std::size_t workers = 1;
  std::size_t retries = 2;      ///< Relaunch budget per shard.
  std::string out_dir = "fleet-out";  ///< Shard artifact directory (created).
  /// Worker-side checkpoint cadence in devices (0 = crash loses the whole
  /// shard attempt).
  std::size_t checkpoint_every = 0;
  /// Worker command line for exec mode: typically {argv0, "mode=worker"} plus
  /// the population's to_args(); the driver appends each batch's
  /// WorkerBatch::to_args(). Empty selects fork mode.
  std::vector<std::string> worker_argv;
  /// Test hook, forwarded to every shard's first attempt (see
  /// ShardRunnerOptions::fail_after_devices).
  std::size_t fail_first_attempt_after = 0;
  /// Live progress dashboards: shard i serves snapshots on loopback port
  /// base + i while it runs (see ShardRunnerOptions::dashboard_port), so a
  /// driver-side poller can watch every shard in flight. 0 disables. run()
  /// rejects a base whose highest shard port would exceed 65535.
  std::uint32_t dashboard_port_base = 0;
};

/// \brief One row of the population report: a cell's identity plus the
///        distribution of its devices' outcomes.
struct ReportRow {
  CellCoords cell;              ///< Which (governor, workload, fps) cell.
  std::uint64_t devices = 0;    ///< Devices aggregated.
  std::uint64_t epochs = 0;     ///< Total epochs simulated.
  double mean_energy = 0.0;     ///< Mean per-device energy (J).
  double mean_miss_rate = 0.0;  ///< Mean per-device deadline miss rate.
  double mean_performance = 0.0;///< Mean per-device normalised performance.
  double mean_power = 0.0;      ///< Mean per-device sensor power (W).
  double energy_p50 = 0.0, energy_p95 = 0.0, energy_p99 = 0.0;
  double miss_p50 = 0.0, miss_p95 = 0.0, miss_p99 = 0.0;
  double perf_p50 = 0.0, perf_p95 = 0.0, perf_p99 = 0.0;
  /// Path of the fleet-merged `.qpol` policy written for this cell into
  /// `<out_dir>/qlib`, or "" when the cell's governor has no mergeable
  /// learning state. Deliberately NOT a write_csv column: the CSV stays
  /// byte-identical to earlier versions.
  std::string policy_path;
};

/// \brief The merged population-wide result: one row per cell (cell-index
///        order) plus the merged per-cell statistics for further analysis.
///
/// Every number in the rows derives from exactly-merged state — integer
/// counters, ExactSum accumulators, integer histogram bins — so the rendered
/// CSV is byte-identical across any shard partition of the same population
/// (the property the 1-shard-vs-N-shard differential pins).
struct PopulationReport {
  std::uint64_t fingerprint = 0;   ///< The population's fingerprint.
  std::uint64_t devices = 0;       ///< Total devices simulated.
  std::vector<ReportRow> rows;     ///< Per-cell rows, cell-index order.
  std::vector<CellStats> cells;    ///< Merged stats, same order as rows.

  /// \brief Render as CSV (%.17g — the byte-comparable artifact).
  void write_csv(std::ostream& out) const;
  /// \brief Render as an aligned text table for terminals.
  void print(std::ostream& out) const;
};

/// \brief Deal \p pending shards into min(\p batches, pending.size())
///        batches, pending[k] to batch k % that count, each batch in pending
///        order: what FleetDriver hands its free worker slots. By stride, not
///        in contiguous runs, because cells are contiguous device ranges:
///        neighbouring shards often share a governor, and a contiguous
///        split would give one slot the cheap governor's shards and another
///        the dear one's.
[[nodiscard]] std::vector<std::vector<std::size_t>> deal_batches(
    const std::vector<std::size_t>& pending, std::size_t batches);

/// \brief Launches, supervises and merges shard workers (see file comment).
class FleetDriver {
 public:
  explicit FleetDriver(FleetOptions options);

  /// \brief Run the whole population and return the merged report. Throws
  ///        FleetError when a shard exhausts its retry budget or the merge
  ///        finds missing/foreign/overlapping summaries.
  PopulationReport run(const PopulationSpec& pop);

  /// \brief Worker processes started by the last run(), one per batch,
  ///        relaunches included; the in-process `workers == 0` path counts
  ///        one per shard it runs.
  [[nodiscard]] std::size_t launches() const noexcept { return launches_; }
  /// \brief Attempts spent by failed shards during the last run() (each
  ///        failed batch spends one, for its first unfinished shard).
  [[nodiscard]] std::size_t retries_used() const noexcept { return retries_; }

  /// \brief Merge the sealed summaries of \p plan's shards from \p out_dir
  ///        (no processes involved): validates fingerprints, completeness
  ///        and exact tiling of the device range, then folds CellStats in
  ///        shard-index order. Exposed for tests and report-only reruns.
  static PopulationReport merge_shards(const PopulationSpec& pop,
                                       const ShardPlan& plan,
                                       const std::string& out_dir);

 private:
  void run_processes(const PopulationSpec& pop, const ShardPlan& plan);

  FleetOptions options_;
  std::size_t launches_ = 0;
  std::size_t retries_ = 0;
};

}  // namespace prime::fleet
