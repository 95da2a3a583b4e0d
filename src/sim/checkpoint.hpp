/// \file checkpoint.hpp
/// \brief Checkpoint/resume for simulation runs: the sealed `.ckpt` format,
///        the periodic CheckpointSink, and the resume surface the engine uses.
///
/// The learning governors only pay off over long horizons, and a crash at
/// frame 900M of a streaming run used to restart learning from zero. A
/// checkpoint captures *everything* a run's future depends on — the
/// governor's full learning state (gov::Governor::save_state), the platform's
/// thermal/DVFS/sensor state (hw::Platform::save_state), the frame position
/// of the deterministic frame stream, the run's O(1) aggregates, and the last
/// epoch observation pending delivery to the governor — so a resumed run is
/// **bit-identical** to one that never stopped, pinned per registered
/// governor by the differential tests in tests/test_checkpoint.cpp.
///
/// On-disk format (version 2): the sealed envelope of common/sealed.hpp —
/// magic "PRIMECK\0", header word 0 (offset 24) the frame position (epochs
/// executed before the snapshot). The payload carries, in order: governor
/// display name, application name, platform shape (OPP count, core count and
/// — since version 2 — the hw::Platform::shape_fingerprint over the full V-F
/// table), the RunResult aggregates, the optional last EpochObservation,
/// then the length-prefixed opaque governor and platform state blobs. Files
/// are sealed and written to a temporary name and atomically renamed — a
/// producer killed mid-write leaves the previous checkpoint intact, and a
/// torn file is rejected with a specific error instead of resuming from
/// garbage.
///
/// Identity is enforced on load+resume: the stored governor and application
/// names must match the resuming run exactly (resuming `shen-rl-upd` state
/// into `pid-slack` fails loudly), and the opaque blobs additionally fail
/// closed on any structural mismatch (common::SerialError).
#pragma once

#include <array>
#include <cstdint>
#include <future>
#include <iosfwd>
#include <stdexcept>
#include <string>

#include "gov/governor.hpp"
#include "sim/telemetry.hpp"

namespace prime::common {
class StateReader;
class StateWriter;
}  // namespace prime::common

namespace prime::sim {

/// \brief File identification bytes at offset 0.
inline constexpr std::array<unsigned char, 8> kCheckpointMagic = {
    'P', 'R', 'I', 'M', 'E', 'C', 'K', '\0'};
/// \brief The format version this build reads and writes. Version 2 added
///        the platform shape fingerprint to the payload.
inline constexpr std::uint32_t kCheckpointVersion = 2;

/// \brief Error thrown on malformed, incompatible, torn or mismatched
///        checkpoints. Messages name the offending file and expectation.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// \brief In-memory image of one checkpoint: run identity, position,
///        aggregates, the pending observation and the opaque state blobs.
struct Checkpoint {
  std::string governor;            ///< Governor display name (identity).
  std::string application;         ///< Application name (identity).
  /// Platform shape at snapshot time, validated on resume: governors size
  /// their learning tables lazily from the action/core space, so resuming
  /// onto a platform with a different OPP table or core count would silently
  /// re-initialise the restored state on the first decision.
  std::uint64_t opp_count = 0;     ///< OPP-table size (the action space).
  std::uint64_t core_count = 0;    ///< Cluster core count.
  /// hw::Platform::shape_fingerprint() at snapshot time: core count plus the
  /// exact V-F table bits, so resume additionally rejects a platform with
  /// the same table *size* but different operating points.
  std::uint64_t platform_fingerprint = 0;
  std::uint64_t frame_position = 0;///< Epochs executed before the snapshot.
  RunResult aggregates;            ///< Partial run aggregates at the snapshot.
  bool has_last = false;           ///< Whether an observation is pending.
  gov::EpochObservation last;      ///< Observation of epoch frame_position-1.
  std::string governor_state;      ///< gov::Governor::save_state payload.
  std::string platform_state;      ///< hw::Platform::save_state payload.

  /// \brief Serialise header + payload onto \p out and seal in place
  ///        (requires a seekable stream). Throws CheckpointError when any
  ///        write fails.
  void write(std::ostream& out) const;

  /// \brief Parse and validate a checkpoint. \p label names the source in
  ///        errors (a path, usually). Throws CheckpointError when any
  ///        envelope check (common/sealed.hpp) or the payload parse fails.
  [[nodiscard]] static Checkpoint read(std::istream& in,
                                       const std::string& label);

  /// \brief Write to \p path atomically: serialise+seal into `path.tmp`,
  ///        then rename over \p path, so an existing checkpoint survives a
  ///        crash mid-write.
  void save_file(const std::string& path) const;

  /// \brief Load and validate the checkpoint at \p path.
  [[nodiscard]] static Checkpoint load_file(const std::string& path);
};

/// \brief Serialise \p r's counters and sums, not its identity labels: the
///        one RunResult aggregate encoding `.ckpt` and `.fsum` payloads share.
void save_aggregates(common::StateWriter& out, const RunResult& r);
/// \brief Restore what save_aggregates() wrote into \p r.
void load_aggregates(common::StateReader& in, RunResult& r);

/// \brief Telemetry sink writing periodic checkpoints. Spec:
///        `checkpoint(path=out/run.ckpt,every=50000)`.
///
/// The sink decides *when* (every n-th epoch, plus once at run end so a
/// completed run can be extended later). *What* comes from the RunBinding
/// run_simulation lends it through bind(): each snapshot reads the bound
/// governor, platform, aggregates and pending observation. Snapshots ride
/// the existing epoch event path, are read-only with respect to the run (a
/// checkpointed run executes identically to an unobserved one) and
/// overwrite the same path atomically, so the file always holds the most
/// recent complete snapshot. `every=0` writes only the final run-end
/// checkpoint.
///
/// Periodic snapshots are taken on the engine thread at their epoch, then
/// sealed into the file on a background thread while the run goes on. At
/// most one write is in flight: the next snapshot, run end and bind() wait
/// for it, and a failed write's CheckpointError is rethrown on the engine
/// thread there (bind() logs it instead: a write is still in flight there
/// only when the run has already thrown). The run-end checkpoint is written
/// synchronously, so a returned run's file is sealed and can be resumed at
/// once.
///
/// bind() rejects a multi-domain board with std::invalid_argument: the
/// format stores one pending observation, and such runs carry one per
/// domain. Engines that never bind (the multi-app engine) leave the sink
/// unbound, and it fails loudly at run begin instead of silently recording
/// nothing.
class CheckpointSink : public TelemetrySink {
 public:
  /// \brief Write to \p path every \p every epochs (0 = run end only).
  explicit CheckpointSink(std::string path, std::size_t every = 0);

  /// \brief Bind \p run (or unbind with nullptr); either waits for a
  ///        write in flight. Throws std::invalid_argument on a multi-domain
  ///        board.
  void bind(RunBinding* run) override;
  void on_run_begin(const RunContext& ctx) override;
  void on_epoch(const EpochRecord& record, gov::Governor& governor) override;
  void on_run_end(const RunResult& result) override;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::size_t every() const noexcept { return every_; }
  /// \brief Snapshots written in the current (or last finished) run.
  [[nodiscard]] std::size_t snapshots_written() const noexcept {
    return written_;
  }

 private:
  void write_snapshot(bool background);
  /// Wait for the write in flight, if any; rethrow its error.
  void await_pending();

  std::string path_;
  std::size_t every_;
  const RunBinding* run_ = nullptr;
  std::future<void> pending_;  ///< The background write in flight.
  std::size_t seen_ = 0;
  std::size_t written_ = 0;
};

}  // namespace prime::sim
