/// \file trace.hpp
/// \brief Workload traces: ordered per-frame cycle demands.
///
/// A `WorkloadTrace` is what a generator produces and what an `Application`
/// replays. Traces keep only their frames: the summary statistics (the
/// paper's "workload variability" that drives exploration counts) are one
/// in-order pass over them when asked for. CSV round-tripping lets
/// experiment inputs be archived exactly like the paper's dataset DOI.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "wl/frame.hpp"

namespace prime::wl {

class FrameSource;

/// \brief An immutable-after-build sequence of frame demands.
class WorkloadTrace {
 public:
  WorkloadTrace() = default;
  /// \brief Build from frames with a display name.
  WorkloadTrace(std::string name, std::vector<FrameDemand> frames);

  /// \brief Number of frames.
  [[nodiscard]] std::size_t size() const noexcept { return frames_.size(); }
  /// \brief True when the trace has no frames.
  [[nodiscard]] bool empty() const noexcept { return frames_.empty(); }
  /// \brief Frame \p i; throws std::out_of_range.
  [[nodiscard]] const FrameDemand& at(std::size_t i) const { return frames_.at(i); }
  /// \brief All frames.
  [[nodiscard]] const std::vector<FrameDemand>& frames() const noexcept {
    return frames_;
  }
  /// \brief Display name ("h264-football", ...).
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// \brief Mean cycle demand per frame.
  [[nodiscard]] double mean_cycles() const noexcept { return stats().mean(); }
  /// \brief Coefficient of variation of the demand (the paper's workload
  ///        variability: video is high, FFT is low).
  [[nodiscard]] double cv() const noexcept { return stats().cv(); }
  /// \brief Largest frame demand (0 for an empty trace).
  [[nodiscard]] common::Cycles peak_cycles() const noexcept;
  /// \brief Full demand statistics, folded over the frames in trace order.
  [[nodiscard]] common::RunningStats stats() const noexcept;

  /// \brief Return a copy scaled so the mean demand equals \p target_mean
  ///        (used to calibrate traces against platform capacity). Per-frame
  ///        demands are rounded to nearest (common::round_cycles), so the
  ///        achieved mean tracks the target instead of drifting low under
  ///        truncation; a demand that does not fit Cycles throws
  ///        std::out_of_range.
  [[nodiscard]] WorkloadTrace scaled_to_mean(double target_mean) const&;
  /// \brief The same frames as the copying form, rescaling this trace's
  ///        frames in place.
  [[nodiscard]] WorkloadTrace scaled_to_mean(double target_mean) &&;

  /// \brief Serialise as CSV ("frame,cycles,kind").
  [[nodiscard]] std::string to_csv() const;
  /// \brief Parse from CSV produced by to_csv(). Throws on malformed input.
  [[nodiscard]] static WorkloadTrace from_csv(const std::string& name,
                                              const std::string& csv_text);

 private:
  std::string name_;
  std::vector<FrameDemand> frames_;
};

/// \brief Interface implemented by all workload generators.
///
/// The streaming path is primary: `stream(seed)` returns an unbounded lazy
/// FrameSource, and `generate(n, seed)` materialises its first n frames —
/// the two are frame-for-frame identical by construction, so a streamed run
/// and a trace-replay run of the same (generator, seed) execute the exact
/// same demand sequence.
class TraceGenerator {
 public:
  virtual ~TraceGenerator() = default;
  /// \brief Stream frames lazily and deterministically from \p seed.
  ///        The returned source is unbounded (never exhausts) and owns a
  ///        copy of the generator's parameters, so it may outlive *this.
  [[nodiscard]] virtual std::unique_ptr<FrameSource> stream(
      std::uint64_t seed) const = 0;
  /// \brief Materialise the first \p n frames of stream(\p seed) as a trace
  ///        (for archival, CSV round-trip, and stored-trace replay).
  [[nodiscard]] WorkloadTrace generate(std::size_t n, std::uint64_t seed) const;
  /// \brief Generator name, used as the trace name.
  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace prime::wl
