/// \file frame_source.hpp
/// \brief Lazy, pull-based frame demand sources.
///
/// A `FrameSource` yields one `FrameDemand` per `next()` call, deterministic
/// in the seed it was constructed from, without ever materialising a frame
/// vector — the engine's native input for unbounded runs, where the trace
/// vector would otherwise be the last O(frames) allocation (ROADMAP:
/// "Streaming workload generation"). Generator-backed sources never exhaust;
/// `TraceFrameSource` replays a materialised trace and exhausts at its end.
/// The equivalence contract: for any `TraceGenerator` g,
/// `g.stream(seed)` yields exactly the frame sequence `g.generate(n, seed)`
/// materialises, for every n — `generate()` is implemented by pulling from
/// `stream()`, and tests/test_frame_source.cpp pins the guarantee per
/// registered generator.
///
/// Sources track their absolute position (the index of the frame the next
/// `next()` yields) and support forward `skip_to()` — how checkpoint resume
/// (sim/checkpoint.hpp) fast-forwards a stream to the frame it stopped at.
/// Trace-backed and scaled sources skip in O(1); sequential-RNG generator
/// streams replay their per-frame draws (O(n) but allocation-free — an RNG
/// stream's state at frame n is a function of all n draws before it, so no
/// deterministic generator can jump it without changing the sequence).
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "wl/trace.hpp"

namespace prime::wl {

/// \brief A pull-based stream of frame demands.
///
/// Stateful and single-pass: each `next()` advances the stream. Re-create the
/// source (same seed) to replay from the beginning. Not thread-safe; give
/// each concurrent run its own instance.
class FrameSource {
 public:
  virtual ~FrameSource() = default;

  /// \brief The next frame, or nullopt when the source is exhausted.
  ///        Generator-backed sources are unbounded and never return nullopt.
  [[nodiscard]] std::optional<FrameDemand> next();

  /// \brief Pull up to \p n consecutive frames into \p out, returning how
  ///        many were produced (fewer only on exhaustion). Yields exactly the
  ///        frames n successive next() calls would — the default
  ///        generate_block() *is* a loop over next(), so every source keeps
  ///        its exact semantics; random-access-backed sources override it to
  ///        skip the per-frame virtual hop. Advances position() by the count.
  [[nodiscard]] std::size_t next_block(FrameDemand* out, std::size_t n);

  /// \brief Index of the frame the next `next()` call will yield (frames
  ///        consumed so far, counting skipped ones).
  [[nodiscard]] std::size_t position() const noexcept { return position_; }

  /// \brief Fast-forward so position() == \p frame_index. Returns false when
  ///        the source exhausts first (position() is then the end). Skipping
  ///        backward throws std::invalid_argument — deterministic streams
  ///        rewind by re-creation, not by seeking.
  bool skip_to(std::size_t frame_index);

 protected:
  /// \brief Produce the next frame (the per-source generation step behind
  ///        the position-tracking public next()).
  [[nodiscard]] virtual std::optional<FrameDemand> generate() = 0;

  /// \brief Discard up to \p n frames, returning how many were discarded
  ///        (fewer only on exhaustion). Default replays generate(); sources
  ///        with random-access backends override for O(1).
  [[nodiscard]] virtual std::size_t discard(std::size_t n);

  /// \brief Batch-production step behind next_block(). The default loops the
  ///        public next() (which maintains position()); overrides that bypass
  ///        next() must call advance() with the produced count themselves.
  [[nodiscard]] virtual std::size_t generate_block(FrameDemand* out,
                                                   std::size_t n);

  /// \brief Advance the position cursor — for generate_block()/batch
  ///        overrides that produce frames without going through next().
  void advance(std::size_t n) noexcept { position_ += n; }

 private:
  std::size_t position_ = 0;
};

/// \brief Factory re-creating a source from scratch — how replay-from-frame-0
///        is expressed for deterministic streams (each call restarts the
///        underlying RNG from its seed).
using FrameSourceFactory = std::function<std::unique_ptr<FrameSource>()>;

/// \brief Bounded source replaying a materialised trace front to back.
///        Skips in O(1) (cursor arithmetic over the random-access trace).
///        Sources over one shared trace share its frames: re-creating one
///        to rewind copies no frame.
class TraceFrameSource final : public FrameSource {
 public:
  explicit TraceFrameSource(std::shared_ptr<const WorkloadTrace> trace);
  explicit TraceFrameSource(WorkloadTrace trace)
      : TraceFrameSource(
            std::make_shared<const WorkloadTrace>(std::move(trace))) {}

  /// \brief Frames not yet yielded.
  [[nodiscard]] std::size_t remaining() const noexcept {
    return trace_->size() - position();
  }

 protected:
  // The base position() is the cursor: generate()/discard() index the
  // random-access trace with it directly instead of tracking a duplicate.
  [[nodiscard]] std::optional<FrameDemand> generate() override;
  [[nodiscard]] std::size_t discard(std::size_t n) override;
  [[nodiscard]] std::size_t generate_block(FrameDemand* out,
                                           std::size_t n) override;

 private:
  std::shared_ptr<const WorkloadTrace> trace_;
};

/// \brief Decorator scaling every frame's demand by a constant factor,
///        rounding to nearest through common::round_cycles — the rounding
///        WorkloadTrace::scaled_to_mean applies, so a scaled stream and a
///        scaled trace built from the same frames stay frame-for-frame
///        identical (the calibration path in sim::make_application relies on
///        this). A scaled demand that does not fit Cycles throws
///        std::out_of_range from the pull that produces it. Skips as fast as
///        its inner source does (scaling discarded frames is a no-op).
class ScaledFrameSource final : public FrameSource {
 public:
  ScaledFrameSource(std::unique_ptr<FrameSource> inner, double scale);

  [[nodiscard]] double scale() const noexcept { return scale_; }

 protected:
  [[nodiscard]] std::optional<FrameDemand> generate() override;
  [[nodiscard]] std::size_t discard(std::size_t n) override;
  [[nodiscard]] std::size_t generate_block(FrameDemand* out,
                                           std::size_t n) override;

 private:
  std::unique_ptr<FrameSource> inner_;
  double scale_;
};

}  // namespace prime::wl
