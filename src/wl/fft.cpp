#include "wl/fft.hpp"

#include <algorithm>
#include <memory>

#include "common/rng.hpp"
#include "wl/frame_source.hpp"
#include "wl/registry.hpp"

namespace prime::wl {
namespace {

/// Unbounded near-constant FFT batch stream (jitter draw, then the outlier
/// bernoulli — the same per-frame order the eager loop used).
class FftFrameStream final : public FrameSource {
 public:
  FftFrameStream(const FftParams& params, std::uint64_t seed)
      : params_(params), rng_(seed) {}

 protected:
  std::optional<FrameDemand> generate() override {
    double cycles = params_.mean_cycles *
                    std::max(0.5, 1.0 + rng_.normal(0.0, params_.jitter_cv));
    if (rng_.bernoulli(params_.outlier_prob)) cycles *= params_.outlier_scale;
    return FrameDemand{static_cast<common::Cycles>(cycles),
                       FrameKind::kGeneric};
  }

 private:
  FftParams params_;
  common::Rng rng_;
};

}  // namespace

FftTraceGenerator FftTraceGenerator::paper_fft() {
  FftParams p;
  p.mean_cycles = 90.0e6;
  p.jitter_cv = 0.025;
  p.label = "fft";
  return FftTraceGenerator(p);
}

std::unique_ptr<FrameSource> FftTraceGenerator::stream(
    std::uint64_t seed) const {
  return std::make_unique<FftFrameStream>(params_, seed);
}

namespace {

const WorkloadRegistrar kRegisterFft{
    workload_registry(), "fft",
    "the paper's batched-FFT stream (Table II workload)",
    [](const common::Spec&) {
      return std::make_unique<FftTraceGenerator>(FftTraceGenerator::paper_fft());
    }};

}  // namespace

}  // namespace prime::wl
