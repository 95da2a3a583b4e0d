/// \file application.hpp
/// \brief The application layer: periodic frame workloads with deadlines.
///
/// Per the paper, every application is "transformed to a periodic structure"
/// of frames, each with a deadline (the performance requirement announced
/// through an API). `Application` pulls its frames through one replay cursor
/// over a `FrameSource`: a stored `WorkloadTrace` (bounded, archival/CSV
/// round-trip) is replayed by `TraceFrameSource`s over the shared trace, a
/// generator stream (lazy, constant memory, unbounded — run length comes from
/// sim::RunOptions::max_frames) by the sources its factory makes. It splits
/// each frame's cycles across worker threads (with realistic imbalance), and
/// exposes a requirement schedule so experiments can change fps mid-run — the
/// dynamic performance variation the paper says defeats offline methods.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "wl/frame_block.hpp"
#include "wl/frame_source.hpp"
#include "wl/trace.hpp"

namespace prime::wl {

/// \brief A performance requirement announced by the application.
struct PerformanceRequirement {
  double fps = 30.0;  ///< Frames per second the application must sustain.

  /// \brief Per-frame deadline Tref = 1/fps.
  [[nodiscard]] common::Seconds deadline() const noexcept { return 1.0 / fps; }
};

/// \brief A periodic application executing a workload trace.
///
/// Every frame access goes through the replay cursor, which is mutable
/// replay state behind const methods: NOT thread-safe — give each concurrent
/// run its own Application (copies are cheap and share the frames).
class Application {
 public:
  /// \brief Construct from a stored trace, an initial requirement and
  ///        thread count. The trace is moved into shared, immutable storage.
  /// \param name     Display name.
  /// \param trace    Per-frame cycle demands; bounds the run length.
  /// \param fps      Initial performance requirement.
  /// \param threads  Worker threads spawned per frame (>=1).
  /// \param imbalance Max fractional deviation of a thread's share from the
  ///                  even split (0 = perfectly balanced).
  Application(std::string name, WorkloadTrace trace, double fps,
              std::size_t threads = 4, double imbalance = 0.05);

  /// \brief Construct a *streaming* application: frames are pulled lazily
  ///        from a FrameSource instead of a materialised trace, so memory
  ///        stays constant at any run length. \p source is invoked to (re)
  ///        start the stream — each call must restart from the same seed, so
  ///        replays (and repeated runs on the same Application) see the exact
  ///        same frame sequence. Frame access must be (weakly) monotone; a
  ///        lower index than the last one rewinds by re-creating the source.
  Application(std::string name, FrameSourceFactory source, double fps,
              std::size_t threads = 4, double imbalance = 0.05);

  /// \brief Copies share the trace / source factory / calibration / schedule
  ///        but get their own fresh replay cursor — how each concurrent run
  ///        of one workload gets a private cursor. Copying copies no frame.
  Application(const Application& other);
  Application& operator=(const Application& other);
  Application(Application&&) noexcept = default;
  Application& operator=(Application&&) noexcept = default;
  ~Application() = default;

  /// \brief Schedule a requirement change: from frame \p frame onward the
  ///        application demands \p fps. Changes may be added in any order;
  ///        scheduling two changes at the same frame keeps the last-added one
  ///        (deterministic replace-on-equal).
  void add_requirement_change(std::size_t frame, double fps);

  /// \brief The requirement in force at \p frame.
  [[nodiscard]] PerformanceRequirement requirement_at(std::size_t frame) const;
  /// \brief The full requirement schedule as sorted (start-frame, fps)
  ///        breakpoints; the first entry is always frame 0 (the construction
  ///        requirement). Lets consumers that must hold an invariant across
  ///        the whole run — the multi-app engine's equal-rate check — inspect
  ///        every scheduled change instead of sampling frame by frame.
  [[nodiscard]] const std::vector<std::pair<std::size_t, double>>&
  requirement_schedule() const noexcept {
    return schedule_;
  }
  /// \brief Deadline (Tref) in force at \p frame.
  [[nodiscard]] common::Seconds deadline_at(std::size_t frame) const {
    return requirement_at(frame).deadline();
  }

  /// \brief Split frame \p frame's cycle demand across \p cores cores.
  ///        Uses min(threads, cores) workers; the split is deterministic in
  ///        (frame, core) so replays are exact. Idle cores receive zero.
  [[nodiscard]] std::vector<common::Cycles> core_work(std::size_t frame,
                                                      std::size_t cores) const;

  /// \brief Fill \p block with \p frames consecutive frames starting at
  ///        absolute frame \p start: per-frame deadline, per-core split over
  ///        \p cores cores (exactly what core_work() returns per frame) and
  ///        the split's pre-overhead sum, plus the application mem-fraction.
  ///        Positions the cursor with skip_to(\p start), then pulls the batch
  ///        through FrameSource::next_block (one virtual hop per batch, not
  ///        per frame): sequential access is O(1). Throws std::out_of_range
  ///        when a bounded source or trace exhausts before `start + frames`.
  void fill_block(std::size_t start, std::size_t frames, std::size_t cores,
                  FrameBlock& block) const;

  /// \brief Memory-boundedness: the fraction of frame execution time spent
  ///        in memory stalls at the 1 GHz reference frequency. Stall time is
  ///        frequency-independent, so the PMU-visible cycle count of a frame
  ///        grows with the operating frequency (see
  ///        hw::Cluster::run_epoch_into).
  [[nodiscard]] double mem_fraction() const noexcept { return mem_fraction_; }
  /// \brief Set the memory-boundedness fraction (clamped to [0, 0.9]).
  void set_mem_fraction(double m) noexcept;

  /// \brief True when no stored trace bounds the run: the engine requires
  ///        an explicit max_frames (a factory's sources may still exhaust).
  [[nodiscard]] bool streaming() const noexcept { return trace_ == nullptr; }

  /// \brief Position the replay cursor so the next sequential access serves
  ///        frame \p frame — the one positioning rule: a frame below the
  ///        cursor re-creates the source (deterministic sources replay the
  ///        same frames), a frame at or above it goes forward through
  ///        FrameSource::skip_to (O(1) for trace-backed sources, a draw
  ///        replay for generator streams). Checkpoint resume calls it
  ///        directly. Throws std::out_of_range when a bounded source exhausts
  ///        before \p frame. Like the cursor itself this is replay state,
  ///        not logical state, hence const.
  void skip_to(std::size_t frame) const;
  /// \brief Total frames in the stored trace (0 for streaming applications,
  ///        whose length is unbounded — check streaming() first).
  [[nodiscard]] std::size_t frame_count() const noexcept {
    return trace().size();
  }
  /// \brief Demand of frame \p frame (total cycles across threads): O(1) on
  ///        repeated and sequential access, positioned by skip_to otherwise;
  ///        throws std::out_of_range past the end of a bounded source or
  ///        trace.
  [[nodiscard]] common::Cycles frame_cycles(std::size_t frame) const {
    return demand_at(frame).cycles;
  }
  /// \brief The stored trace (empty for streaming applications).
  [[nodiscard]] const WorkloadTrace& trace() const noexcept;
  /// \brief Display name.
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// \brief Worker thread count.
  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }

 private:
  /// \brief Demand of \p frame: the one-frame cache on a repeat, else
  ///        skip_to(\p frame) and one pull from the source.
  [[nodiscard]] const FrameDemand& demand_at(std::size_t frame) const;

  /// \brief The deterministic per-(frame, worker) split shared by core_work
  ///        and fill_block: distribute \p total cycles over \p cores entries
  ///        of \p out (min(threads, cores) workers, SplitMix64 imbalance).
  ///        \p out must already be zeroed; entries past the worker count stay
  ///        untouched. Recomputes the per-worker shares in a second pass
  ///        instead of materialising them — same values, no allocation.
  void split_total_into(std::size_t frame, double total, std::size_t cores,
                        common::Cycles* out) const;

  static constexpr std::size_t kNoFrame =
      std::numeric_limits<std::size_t>::max();

  std::string name_;
  /// The stored trace the factory's sources replay; null when streaming.
  std::shared_ptr<const WorkloadTrace> trace_;
  std::size_t threads_;
  double imbalance_;
  double mem_fraction_ = 0.20;
  /// (start-frame, fps) breakpoints, kept sorted by frame.
  std::vector<std::pair<std::size_t, double>> schedule_;
  /// The source factory plus the replay cursor: source_->position() is the
  /// next frame it yields, and current_ caches frame current_frame_.
  FrameSourceFactory source_factory_;
  mutable std::unique_ptr<FrameSource> source_;
  mutable std::size_t current_frame_ = kNoFrame;
  mutable FrameDemand current_{};
};

}  // namespace prime::wl
