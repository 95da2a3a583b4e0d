/// \file runner.hpp
/// \brief The shard worker: simulates one shard's devices and writes the
///        sealed shard summary, checkpointing progress at device boundaries.
///
/// run_shard is the body of a fleet worker process (fleet_tool's internal
/// `mode=worker`), but it is an ordinary function — tests run it in-process
/// and the driver's fork-mode runs it in a forked child without exec. One
/// worker process serves a WorkerBatch: run_worker runs the batch's shards
/// in order and stops at the first that fails.
///
/// Resume semantics: when a shard checkpoint exists (a mid-shard
/// ShardSummary at checkpoint_path) and matches this population's
/// fingerprint and the shard's device range, the runner continues from its
/// next_device with the checkpoint's partial cell statistics — bit-identical
/// to an uninterrupted run because device seeds and fold order depend only
/// on population-wide device indices. *Any* checkpoint problem (missing,
/// torn, foreign fingerprint, alien range) falls back to a fresh start: the
/// checkpoint is a progress cache, never a correctness input, and a retried
/// worker must always be able to make progress.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "fleet/population.hpp"
#include "fleet/summary.hpp"

namespace prime::fleet {

/// \brief Exit code run_worker uses for a failed shard (any thrown error).
inline constexpr int kWorkerFailureExit = 1;

/// \brief Options for one shard worker session.
struct ShardRunnerOptions {
  std::string summary_path;     ///< Where the sealed .fsum lands (required).
  /// Mid-shard progress file ("" = disabled), removed once the summary is
  /// sealed.
  std::string checkpoint_path;
  /// Checkpoint cadence in devices (0 = never mid-shard). The final summary
  /// is always written regardless.
  std::size_t checkpoint_every = 0;
  /// Which launch attempt this is (0 = first). Drivers pass the retry
  /// ordinal so failure injection only fires on the first attempt.
  std::size_t attempt = 0;
  /// Test hook: crash the process (std::_Exit) after this many devices have
  /// been simulated *this session*, but only when attempt == 0. 0 disables.
  /// Exercises the driver's retry + checkpoint-resume path end to end.
  std::size_t fail_after_devices = 0;
  /// Serve live progress snapshots on this loopback port (sim::DashboardSink;
  /// 0 = disabled). One dashboard persists across the shard's device runs, so
  /// a driver polling /snapshot sees the current device's aggregates and a
  /// runs_completed count of devices finished this session.
  std::uint16_t dashboard_port = 0;
  /// SSE publication cadence in epochs for dashboard_port.
  std::size_t dashboard_every = 1000;
};

/// \brief One device's full outcome: the run aggregates plus the trained
///        governor state (what the policy accumulation folds) and the
///        platform-shape identity it was trained on.
struct DeviceOutcome {
  sim::RunResult result;
  std::string governor_name;    ///< Governor display name.
  std::string governor_state;   ///< gov::Governor::save_state payload.
  std::uint64_t opp_count = 0;
  std::uint64_t core_count = 0;
  std::uint64_t platform_fingerprint = 0;
};

/// \brief Simulate one device of \p pop on a fresh platform and return its
///        run aggregates. The single definition of "run device i" shared by
///        the shard runner, benches and tests — trajectories depend only on
///        \p dev, never on who is asking.
[[nodiscard]] sim::RunResult run_device(const PopulationSpec& pop,
                                        const DeviceSpec& dev);

/// \brief run_device plus the trained governor state — what the shard
///        runner's per-cell policy accumulation consumes. The simulated
///        trajectory is identical to run_device's (the state capture happens
///        after the run). \p sinks are observation-only telemetry attached to
///        the device's run (the shard dashboard rides here) — sinks never
///        influence the trajectory, so the bit-identity guarantees hold with
///        or without them.
[[nodiscard]] DeviceOutcome run_device_outcome(
    const PopulationSpec& pop, const DeviceSpec& dev,
    const std::vector<sim::TelemetrySink*>& sinks = {});

/// \brief Run shard \p shard of \p pop: resume from the checkpoint when
///        possible, simulate the remaining devices in index order, write the
///        sealed summary to opts.summary_path, and return it.
ShardSummary run_shard(const PopulationSpec& pop, const Shard& shard,
                       const ShardRunnerOptions& opts);

/// \brief The shards one worker process runs, in order, and how: what the
///        driver hands a forked child and, through to_args(), puts on an
///        exec'd worker's command line. Shard i's files and dashboard port
///        are derived from out_dir and dashboard_port_base exactly as for a
///        lone shard, so batching changes which process runs a shard, never
///        what the shard writes.
struct WorkerBatch {
  std::string out_dir = "fleet-out";  ///< Shard artifact directory.
  std::size_t shard_count = 1;        ///< Shards in the population's plan.
  std::vector<std::size_t> shards;    ///< Shard indices, run in this order.
  /// Launch attempt of each shard (same length as shards): how many of the
  /// shard's earlier attempts started and failed.
  std::vector<std::size_t> attempts;
  std::size_t checkpoint_every = 0;   ///< See ShardRunnerOptions.
  std::size_t fail_after_devices = 0; ///< See ShardRunnerOptions.
  /// Shard i serves its dashboard on base + i while it runs (0 = off).
  std::uint32_t dashboard_port_base = 0;
  std::size_t dashboard_every = 1000; ///< See ShardRunnerOptions.

  /// \brief Runner options for the \p position-th shard of the batch.
  [[nodiscard]] ShardRunnerOptions shard_options(std::size_t position) const;
  /// \brief The worker command-line arguments (`shard=` and `attempt=` as
  ///        comma lists, `shards=`, `out=`, `checkpoint-every=`, and
  ///        `fail-after=`/`dashboard-port-base=` when set). from_config also
  ///        reads `dashboard-every=`, which the driver leaves at its default.
  [[nodiscard]] std::vector<std::string> to_args() const;
  /// \brief Parse what to_args() wrote. Throws std::invalid_argument on an
  ///        empty or malformed shard list, an attempt list of another
  ///        length, or a dashboard port base whose highest shard port
  ///        exceeds 65535; a missing `attempt=` means attempt 0 for every
  ///        shard.
  static WorkerBatch from_config(const common::Config& cfg);
};

/// \brief Process-boundary loop over a batch: runs each shard of \p batch
///        through run_shard in order, catching every error. Returns 0 when
///        every shard completed, or reports the first failure on stderr and
///        returns kWorkerFailureExit without starting the shards after it.
///        What worker processes — forked or exec'd — should call.
int run_worker(const PopulationSpec& pop, const WorkerBatch& batch) noexcept;

}  // namespace prime::fleet
