#include "wl/video.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/rng.hpp"
#include "wl/frame_source.hpp"
#include "wl/registry.hpp"

namespace prime::wl {
namespace {

/// Unbounded GOP-structured stream. Carries the old eager loop's state
/// (rng, scene scale, frame index) across next() calls with the identical
/// per-frame RNG draw order: scene-change bernoulli, optional rescale
/// uniform, then jitter normal.
class VideoFrameStream final : public FrameSource {
 public:
  VideoFrameStream(const VideoParams& params, std::uint64_t seed)
      : params_(params), rng_(seed),
        gop_(std::max<std::size_t>(1, params_.gop_length)) {
    // Normalise kind weights so the configured mean is the stream mean.
    double weight_sum = 0.0;
    for (std::size_t i = 0; i < gop_; ++i) weight_sum += weight_at(i).second;
    base_ = params_.mean_cycles * static_cast<double>(gop_) / weight_sum;
  }

 protected:
  std::optional<FrameDemand> generate() override {
    const auto [kind, weight] = weight_at(i_++ % gop_);
    if (rng_.bernoulli(params_.scene_change_prob)) {
      scene_scale_ =
          rng_.uniform(params_.scene_scale_lo, params_.scene_scale_hi);
    }
    // Multiplicative lognormal-style jitter, clamped to keep demands positive.
    const double jitter =
        std::max(0.2, 1.0 + rng_.normal(0.0, params_.jitter_cv));
    const double cycles = base_ * weight * scene_scale_ * jitter;
    return FrameDemand{static_cast<common::Cycles>(cycles), kind};
  }

 private:
  /// Kind and relative cost of GOP position \p pos.
  [[nodiscard]] std::pair<FrameKind, double> weight_at(std::size_t pos) const {
    if (pos == 0) return {FrameKind::kIntra, params_.i_weight};
    if ((pos - 1) % (params_.b_per_p + 1) == 0) {
      return {FrameKind::kPredicted, params_.p_weight};
    }
    return {FrameKind::kBidirectional, params_.b_weight};
  }

  VideoParams params_;
  common::Rng rng_;
  std::size_t gop_;
  double base_ = 0.0;
  double scene_scale_ = 1.0;
  std::size_t i_ = 0;
};

}  // namespace

VideoTraceGenerator VideoTraceGenerator::mpeg4_svga() {
  // Decode cost at a fixed resolution is dominated by per-pixel work, so the
  // I/P/B spread is mild; demand moves mainly through scene-level shifts the
  // EWMA can track (the paper reports only ~8 % early / ~3 % late
  // misprediction for this workload).
  VideoParams p;
  p.mean_cycles = 100.0e6;
  p.gop_length = 12;
  p.b_per_p = 2;
  p.i_weight = 1.08;
  p.p_weight = 1.00;
  p.b_weight = 0.95;
  p.jitter_cv = 0.025;
  p.scene_change_prob = 0.012;
  p.scene_scale_lo = 0.85;
  p.scene_scale_hi = 1.20;
  p.label = "mpeg4-svga";
  return VideoTraceGenerator(p);
}

VideoTraceGenerator VideoTraceGenerator::h264_football() {
  // Fast-panning sports content: same mild GOP spread but frequent scene
  // changes with wide demand rescaling - the workload variability that makes
  // this the paper's stress case (Table I).
  VideoParams p;
  p.mean_cycles = 150.0e6;
  p.gop_length = 15;
  p.b_per_p = 2;
  p.i_weight = 1.10;
  p.p_weight = 1.00;
  p.b_weight = 0.94;
  p.jitter_cv = 0.030;
  p.scene_change_prob = 0.04;
  p.scene_scale_lo = 0.78;
  p.scene_scale_hi = 1.32;
  p.label = "h264-football";
  return VideoTraceGenerator(p);
}

std::unique_ptr<FrameSource> VideoTraceGenerator::stream(
    std::uint64_t seed) const {
  return std::make_unique<VideoFrameStream>(params_, seed);
}

namespace {

const WorkloadRegistrar kRegisterMpeg4{
    workload_registry(), "mpeg4",
    "the paper's MPEG4 SVGA decode trace (GOP-structured)",
    [](const common::Spec&) {
      return std::make_unique<VideoTraceGenerator>(
          VideoTraceGenerator::mpeg4_svga());
    }};

const WorkloadRegistrar kRegisterH264{
    workload_registry(), "h264",
    "the paper's H.264 'football' decode trace (Table I workload)",
    [](const common::Spec&) {
      return std::make_unique<VideoTraceGenerator>(
          VideoTraceGenerator::h264_football());
    }};

const WorkloadRegistrar kRegisterVideo{
    workload_registry(), "video",
    "parameterisable GOP-structured video decode; keys: mean, gop, i-weight, "
    "p-weight, b-weight, jitter, scene-change",
    [](const common::Spec& spec) {
      VideoParams p;
      p.mean_cycles = spec.get_double("mean", p.mean_cycles);
      p.gop_length = static_cast<std::size_t>(
          spec.get_int("gop", static_cast<long long>(p.gop_length)));
      p.i_weight = spec.get_double("i-weight", p.i_weight);
      p.p_weight = spec.get_double("p-weight", p.p_weight);
      p.b_weight = spec.get_double("b-weight", p.b_weight);
      p.jitter_cv = spec.get_double("jitter", p.jitter_cv);
      p.scene_change_prob = spec.get_double("scene-change", p.scene_change_prob);
      return std::make_unique<VideoTraceGenerator>(p);
    }};

}  // namespace

}  // namespace prime::wl
