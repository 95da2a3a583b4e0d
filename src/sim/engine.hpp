/// \file engine.hpp
/// \brief The decision-epoch simulation loop.
///
/// Drives one application on one platform under one governor, epoch by epoch
/// (epoch = frame), exactly reproducing the paper's experimental loop: the
/// governor decides a V-F setting before the frame runs (proactive control),
/// the cluster executes the frame's per-core work, the power sensor measures
/// the frame, and the observation is fed back to the governor at the next
/// tick. The governor's own processing overhead executes as real cycles on
/// core 0, so T_OVH consumes time and energy like it does on the board.
///
/// Observation is streaming: each executed epoch is emitted to the
/// TelemetrySink observers attached through RunOptions::sinks (see
/// sim/telemetry.hpp), and RunResult carries only O(1) incremental
/// aggregates — run length is never capped by record memory. Attach a
/// TraceSink when the full epoch vector is needed.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "gov/governor.hpp"
#include "hw/platform.hpp"
#include "wl/application.hpp"

namespace prime::sim {

class TelemetrySink;

/// \brief Everything recorded about one executed epoch.
struct EpochRecord {
  std::size_t epoch = 0;            ///< Frame index.
  common::Seconds period = 0.0;     ///< Deadline Tref in force.
  std::size_t opp_index = 0;        ///< OPP chosen by the governor.
  common::Hertz frequency = 0.0;    ///< Its frequency.
  common::Cycles demand = 0;        ///< Application demand (excl. overhead).
  common::Cycles executed = 0;      ///< Cycles actually executed (incl. overhead).
  common::Seconds frame_time = 0.0; ///< Frame completion time.
  common::Seconds window = 0.0;     ///< Epoch wall-clock length.
  common::Joule energy = 0.0;       ///< True model energy for the epoch.
  common::Watt sensor_power = 0.0;  ///< Power-sensor reading.
  common::Celsius temperature = 0.0;///< Die temperature after the epoch.
  double slack = 0.0;               ///< Per-epoch slack (Tref - Ti)/Tref.
  bool deadline_met = true;         ///< Whether the frame met its deadline.
};

/// \brief Aggregate outcome of a run: O(1) incremental aggregates maintained
///        by the shared emission path, independent of run length. Per-epoch
///        records are not stored here — attach a TraceSink (or any other
///        telemetry sink) for per-epoch visibility.
struct RunResult {
  std::string governor;              ///< Governor name.
  std::string application;           ///< Application name.
  std::size_t epoch_count = 0;       ///< Epochs executed.
  common::Joule total_energy = 0.0;  ///< True model energy.
  common::Joule measured_energy = 0.0; ///< Sensor-integrated energy.
  common::Seconds total_time = 0.0;  ///< Total wall-clock time.
  std::size_t deadline_misses = 0;   ///< Frames missing their deadline.
  double performance_sum = 0.0;      ///< Running sum of frame_time/period.
  double power_sum = 0.0;            ///< Running sum of sensor power.

  /// \brief Fold one executed epoch into the aggregates. The single
  ///        accumulation path shared by the engines and AggregateSink, so
  ///        derived metrics can never drift between them.
  void accumulate(const EpochRecord& record);

  /// \brief Fold another run's aggregates into this one: counts and sums
  ///        add; empty identity labels take the other run's (left-biased
  ///        otherwise, so repeated merging is associative). The fleet layer
  ///        merges per-device results into per-cell aggregates with this.
  ///        Note the double-typed sums add in merge order — for sums that
  ///        must be bit-identical under any shard partition the fleet layer
  ///        keeps common::ExactSum accumulators alongside.
  RunResult& merge(const RunResult& other);

  /// \brief Mean of frame_time/period — the paper's normalised performance
  ///        (>1 under-performs the requirement, <1 over-performs). O(1).
  [[nodiscard]] double mean_normalized_performance() const;
  /// \brief Fraction of frames missing their deadline. O(1).
  [[nodiscard]] double miss_rate() const;
  /// \brief Mean sensor power across epochs. O(1).
  [[nodiscard]] common::Watt mean_power() const;
};

/// \brief Per-epoch probe signature used by CallbackSink: the fresh record
///        plus the governor (for introspection such as predictor state).
using EpochCallback = std::function<void(const EpochRecord&, gov::Governor&)>;

inline constexpr std::size_t kBlockFrames = 64;  ///< Frames per FrameBlock.

/// \brief Options controlling a simulation run.
struct RunOptions {
  /// Run length cap. For an application with a stored trace 0 means "the
  /// whole trace" and larger values clamp to the trace length. For streaming
  /// applications (wl::Application::streaming()) the source is unbounded, so
  /// max_frames is the sole run-length authority and must be > 0 —
  /// run_simulation throws std::invalid_argument on 0. Either way the run
  /// moves the application's replay cursor: concurrent runs need one
  /// Application each.
  std::size_t max_frames = 0;
  /// Telemetry sinks (not owned; must outlive the run) receiving run-begin,
  /// every epoch in order, and run-end. See sim/telemetry.hpp.
  std::vector<TelemetrySink*> sinks;
  bool reset_governor = true;  ///< Reset governor learning before the run.

  /// Frames pulled per wl::FrameBlock batch in the epoch loop.
  /// Purely an execution-strategy knob: every block size produces
  /// bit-identical results, records and artifacts — governor decisions,
  /// telemetry emission and checkpoint cadence all remain per-epoch, pinned
  /// by the block-size differential tests. Runs of at least
  /// kMinPrefetchFrames (sim/block_prefetch.hpp) fill blocks ahead on a
  /// helper thread; 0 runs one-frame blocks, all filled on the engine
  /// thread, on every board.
  std::size_t block_frames = kBlockFrames;

  /// Placement policy partitioning the application's work slots across the
  /// platform's DVFS domains ("packed", "spread", "rect" — see
  /// sim/placement.hpp). Resolved at run setup on every board, so unknown
  /// names throw common::UnknownNameError even on a single-domain board,
  /// which has exactly one valid placement and runs the single-cluster path.
  std::string placement = "packed";

  // --- Checkpoint/resume (sim/checkpoint.hpp) --------------------------------

  /// Write a resumable `.ckpt` snapshot here (atomic overwrite). Implemented
  /// by attaching an engine-owned CheckpointSink; a `checkpoint(path=...)`
  /// telemetry sink in `sinks` is the equivalent spec-driven form. Empty
  /// disables engine-side checkpointing.
  std::string checkpoint_path;
  /// Snapshot cadence in epochs for checkpoint_path (0 = only at run end).
  /// Nonzero without a checkpoint_path throws std::invalid_argument.
  std::size_t checkpoint_every = 0;
  /// Resume from the `.ckpt` at this path instead of starting fresh: restores
  /// governor + platform + aggregate state, fast-forwards the frame stream,
  /// and continues at the stored frame position — bit-identical to a run that
  /// never stopped. The checkpoint's governor/application names must match
  /// (CheckpointError otherwise), its frame position must not exceed the run
  /// length, and reset_governor is ignored (the restored state *is* the
  /// pre-run state). Empty disables resume.
  std::string resume_from;

  // --- Warm start (qlib/policy.hpp) ------------------------------------------

  /// Start the governor from a policy-library entry instead of tabula rasa:
  /// a `.qpol` file path, or a library directory to search by the run's own
  /// identity (governor display name, platform shape fingerprint, workload
  /// class, fps band — ambiguous or absent matches throw qlib::QlibError).
  /// Unlike resume_from this transfers *knowledge only*: resets still apply
  /// first, the frame stream starts at 0, and aggregates start empty — it is
  /// a fresh run that begins having already learned. The entry's governor
  /// name and platform shape must match (QlibError otherwise). Mutually
  /// exclusive with resume_from (std::invalid_argument). Empty disables.
  std::string warm_start_from;
};

/// \brief Run \p app on \p platform under \p governor.
///
/// Every decision's gov::DecisionContext carries the frame it is for: the
/// frame's work row, the slots of the domain it decides and the memory
/// fraction the board-epoch kernel will run at (only the Oracle reads them).
///
/// A run owns \p app's streaming replay cursor until it returns: a batched
/// run of 1000 frames or more generates its upcoming frame blocks on a
/// helper thread when the host has two or more hardware threads (see
/// sim/block_prefetch.hpp), so no other thread may use the same Application
/// meanwhile — give each concurrent run its own copy. Whether the helper
/// engages never changes a result bit.
[[nodiscard]] RunResult run_simulation(hw::Platform& platform,
                                       const wl::Application& app,
                                       gov::Governor& governor,
                                       const RunOptions& options = {});

}  // namespace prime::sim
