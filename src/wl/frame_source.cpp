#include "wl/frame_source.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/rounding.hpp"

namespace prime::wl {

std::optional<FrameDemand> FrameSource::next() {
  std::optional<FrameDemand> frame = generate();
  if (frame) ++position_;
  return frame;
}

std::size_t FrameSource::next_block(FrameDemand* out, std::size_t n) {
  return generate_block(out, n);
}

std::size_t FrameSource::generate_block(FrameDemand* out, std::size_t n) {
  // Default: the batch IS n next() calls, so every source — including
  // sequential RNG generator streams — keeps its exact frame sequence.
  // next() maintains the position cursor.
  std::size_t i = 0;
  for (; i < n; ++i) {
    std::optional<FrameDemand> frame = next();
    if (!frame) break;
    out[i] = *frame;
  }
  return i;
}

bool FrameSource::skip_to(std::size_t frame_index) {
  if (frame_index < position_) {
    throw std::invalid_argument(
        "FrameSource::skip_to: cannot skip backward (at frame " +
        std::to_string(position_) + ", asked for " +
        std::to_string(frame_index) + "); re-create the source to rewind");
  }
  const std::size_t skipped = discard(frame_index - position_);
  position_ += skipped;
  return position_ == frame_index;
}

std::size_t FrameSource::discard(std::size_t n) {
  // Sequential fallback: replay the generation step without handing frames
  // out. For RNG-driven generator streams this is the fastest possible skip —
  // the stream state at frame n depends on every draw before it.
  for (std::size_t i = 0; i < n; ++i) {
    if (!generate()) return i;
  }
  return n;
}

TraceFrameSource::TraceFrameSource(std::shared_ptr<const WorkloadTrace> trace)
    : trace_(std::move(trace)) {
  if (trace_ == nullptr) {
    throw std::invalid_argument("TraceFrameSource: trace required");
  }
}

std::optional<FrameDemand> TraceFrameSource::generate() {
  if (position() >= trace_->size()) return std::nullopt;
  return trace_->frames()[position()];  // the base wrapper advances the cursor
}

std::size_t TraceFrameSource::discard(std::size_t n) {
  return std::min(n, trace_->size() - position());
}

std::size_t TraceFrameSource::generate_block(FrameDemand* out, std::size_t n) {
  const std::size_t got = std::min(n, trace_->size() - position());
  std::copy_n(trace_->frames().data() + position(), got, out);
  advance(got);
  return got;
}

ScaledFrameSource::ScaledFrameSource(std::unique_ptr<FrameSource> inner,
                                     double scale)
    : inner_(std::move(inner)), scale_(scale) {
  if (inner_ == nullptr) {
    throw std::invalid_argument("ScaledFrameSource: inner source required");
  }
  if (!(scale_ > 0.0)) {
    throw std::invalid_argument("ScaledFrameSource: scale must be > 0");
  }
}

std::optional<FrameDemand> ScaledFrameSource::generate() {
  std::optional<FrameDemand> frame = inner_->next();
  if (frame) {
    frame->cycles =
        common::round_cycles(static_cast<double>(frame->cycles) * scale_);
  }
  return frame;
}

std::size_t ScaledFrameSource::generate_block(FrameDemand* out,
                                              std::size_t n) {
  const std::size_t got = inner_->next_block(out, n);
  for (std::size_t i = 0; i < got; ++i) {
    // Same rounding expression as generate(), applied to the same frames.
    out[i].cycles =
        common::round_cycles(static_cast<double>(out[i].cycles) * scale_);
  }
  advance(got);
  return got;
}

std::size_t ScaledFrameSource::discard(std::size_t n) {
  // Delegate through the inner source's public skip (O(1) for trace-backed
  // inners); scaling frames nobody sees is a no-op.
  const std::size_t before = inner_->position();
  (void)inner_->skip_to(before + n);
  return inner_->position() - before;
}

}  // namespace prime::wl
