/// \file block_prefetch.hpp
/// \brief The frame-block prefetcher of run_simulation's and
///        run_multi_simulation's epoch loop: serves a run's frames as
///        consecutive wl::FrameBlocks, one per application, with each frame's
///        sensor noise term, optionally made ahead on a helper thread.
///
/// Frame generation and the sensor's noise stream are seed-deterministic and
/// independent of any governor decision, so they can run ahead of the epoch
/// loop on a spare core without changing a bit. Declared here so tests can
/// drive it directly.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "hw/power_sensor.hpp"
#include "wl/application.hpp"
#include "wl/frame_block.hpp"

namespace prime::sim {

/// Shortest run the helper is started for. Helper on versus off, median of
/// 41 alternating runs per length on a 4-vCPU x86-64 VM (h264 stream, 1x4
/// board): break-even near 500 frames under ondemand and rtm-manycore;
/// 1000 frames already saves 8-14%, 2000 frames 16-19%.
inline constexpr std::size_t kMinPrefetchFrames = 1000;

/// True when a run of \p frames should prefetch on a helper thread: it is
/// at least kMinPrefetchFrames long and the host has two or more hardware
/// threads.
[[nodiscard]] bool prefetch_pays_off(std::size_t frames);

/// \brief Serves frames [start, frames) as consecutive blocks of
///        `block_frames` rows, one FrameBlock per source, strictly in order:
///        acquire(k) -> epochs -> release(k).
///
/// Block 0 is always filled on the calling (engine) thread, so any stream
/// rewind or skip_to and every allocation happens there. When `threaded`
/// and the run has more than one block, a helper thread fills blocks 1..N-1
/// into a ring of pre-sized blocks ahead of the engine, making exactly the
/// fill_block calls the engine would, in the same order, never past
/// `frames`; otherwise acquire() fills each block on the engine thread.
/// Both produce the same frames and leave every Application's cursor in the
/// same place — the helper owns those cursors until the prefetcher dies.
///
/// Given a `sensor`, each block also carries one noise term per frame,
/// drawn right after the block's fill_block calls (same thread, same order)
/// from a copy of the sensor's generator taken at construction — after any
/// resume or reset — for hw::PowerSensor's pre-drawn integrate().
///
/// Handoff is two counters under one mutex: blocks filled (helper ->
/// engine) and blocks released (engine -> helper). The helper sleeps only on
/// a full ring and is notified once half the ring is free; notifying a
/// condition variable nobody waits on makes no syscall, so steady state
/// costs one uncontended lock per block on each side. A fill_block
/// exception is rethrown by acquire() at the block it was thrown for;
/// destroying the prefetcher (normal exit or an engine-side throw) stops and
/// joins the helper.
class BlockPrefetcher {
 public:
  struct Source {
    const wl::Application* app;
    std::size_t cores;  ///< Each frame's split.
  };

  BlockPrefetcher(std::vector<Source> sources, std::size_t start,
                  std::size_t frames, std::size_t block_frames, bool threaded,
                  const hw::PowerSensor* sensor = nullptr);
  ~BlockPrefetcher();
  BlockPrefetcher(const BlockPrefetcher&) = delete;
  BlockPrefetcher& operator=(const BlockPrefetcher&) = delete;

  [[nodiscard]] std::size_t blocks() const noexcept { return blocks_; }
  /// Whether a helper thread is filling the blocks after the first.
  [[nodiscard]] bool threaded() const noexcept { return helper_.joinable(); }

  /// The filled block k, one FrameBlock per source in the order given; the
  /// caller owns them until release(k).
  std::span<wl::FrameBlock> acquire(std::size_t k);
  /// Block k's sensor noise terms, one per frame (a sensor was given);
  /// valid from acquire(k) to release(k).
  [[nodiscard]] const common::NormalDraw* noise(std::size_t k) const noexcept {
    return noise_[k % ring_.size()].data();
  }
  /// Hand block k back for refilling.
  void release(std::size_t k);

  /// Prefetchers in this process so far that started a helper thread.
  [[nodiscard]] static std::size_t threaded_runs() noexcept;

 private:
  void fill(std::size_t k);
  [[nodiscard]] bool half_free() const noexcept;
  void run_helper() noexcept;

  const std::vector<Source> sources_;
  const std::size_t start_;
  const std::size_t frames_;
  const std::size_t block_frames_;
  const std::size_t blocks_;
  const hw::PowerSensor* const sensor_;
  common::Rng noise_rng_;  ///< Used by whichever thread fills the blocks.
  std::vector<std::vector<wl::FrameBlock>> ring_;  ///< Per slot, per source.
  std::vector<std::vector<common::NormalDraw>> noise_;  ///< Parallel ring.
  std::mutex mutex_;  ///< Guards the four fields below once the helper runs.
  std::size_t filled_ = 0;
  std::size_t released_ = 0;
  std::exception_ptr error_;
  bool stop_ = false;
  std::condition_variable helper_wake_;
  std::condition_variable engine_wake_;
  std::thread helper_;  ///< Last: it uses every member above.
};

}  // namespace prime::sim
