#include "wl/synthetic.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "common/rng.hpp"
#include "wl/frame_source.hpp"
#include "wl/registry.hpp"

namespace prime::wl {
namespace {

/// Unbounded stream of the phase program: the loop-carried state of the old
/// materialising loop (rng, phase index, position in phase) held across
/// next() calls, one frame per call, identical RNG call order.
class PhaseFrameStream final : public FrameSource {
 public:
  PhaseFrameStream(std::vector<Phase> phases, std::uint64_t seed)
      : phases_(std::move(phases)), rng_(seed) {}

 protected:
  std::optional<FrameDemand> generate() override {
    const Phase& ph = phases_[phase_idx_];
    const double progress =
        ph.frames <= 1 ? 0.0
                       : static_cast<double>(in_phase_) /
                             static_cast<double>(ph.frames - 1);
    const double drift = 1.0 + ph.ramp * (progress - 0.5);
    const double jitter = std::max(0.2, 1.0 + rng_.normal(0.0, ph.jitter_cv));
    const double cycles = ph.mean_cycles * drift * jitter;
    if (++in_phase_ >= ph.frames) {
      in_phase_ = 0;
      phase_idx_ = (phase_idx_ + 1) % phases_.size();
    }
    return FrameDemand{static_cast<common::Cycles>(cycles),
                       FrameKind::kGeneric};
  }

 private:
  std::vector<Phase> phases_;
  common::Rng rng_;
  std::size_t phase_idx_ = 0;
  std::size_t in_phase_ = 0;
};

/// Unbounded Markov-modulated stream: per frame, jitter around the current
/// state mean, then transition (same draw order as the retired eager loop).
class MarkovFrameStream final : public FrameSource {
 public:
  MarkovFrameStream(MarkovParams params, std::uint64_t seed)
      : params_(std::move(params)), rng_(seed), state_(params_.initial_state),
        row_(params_.state_means.size()) {}

 protected:
  std::optional<FrameDemand> generate() override {
    const std::size_t s = params_.state_means.size();
    const double jitter =
        std::max(0.2, 1.0 + rng_.normal(0.0, params_.jitter_cv));
    const double cycles = params_.state_means[state_] * jitter;
    for (std::size_t j = 0; j < s; ++j) {
      row_[j] = params_.transition[state_ * s + j];
    }
    state_ = rng_.discrete(row_);
    return FrameDemand{static_cast<common::Cycles>(cycles),
                       FrameKind::kGeneric};
  }

 private:
  MarkovParams params_;
  common::Rng rng_;
  std::size_t state_;
  std::vector<double> row_;
};

}  // namespace

PhaseTraceGenerator::PhaseTraceGenerator(std::string label,
                                         std::vector<Phase> phases)
    : label_(std::move(label)), phases_(std::move(phases)) {
  if (phases_.empty()) {
    throw std::invalid_argument("PhaseTraceGenerator: phase list empty");
  }
  for (const auto& p : phases_) {
    if (p.frames == 0 || p.mean_cycles <= 0.0) {
      throw std::invalid_argument("PhaseTraceGenerator: invalid phase");
    }
  }
}

std::unique_ptr<FrameSource> PhaseTraceGenerator::stream(
    std::uint64_t seed) const {
  return std::make_unique<PhaseFrameStream>(phases_, seed);
}

MarkovTraceGenerator::MarkovTraceGenerator(const MarkovParams& params)
    : params_(params) {
  const std::size_t s = params_.state_means.size();
  if (s == 0) {
    throw std::invalid_argument("MarkovTraceGenerator: no states");
  }
  if (params_.transition.size() != s * s) {
    throw std::invalid_argument(
        "MarkovTraceGenerator: transition matrix must be states^2");
  }
  if (params_.initial_state >= s) {
    throw std::invalid_argument("MarkovTraceGenerator: bad initial state");
  }
}

std::unique_ptr<FrameSource> MarkovTraceGenerator::stream(
    std::uint64_t seed) const {
  return std::make_unique<MarkovFrameStream>(params_, seed);
}

namespace {

const WorkloadRegistrar kRegisterFlat{
    workload_registry(), "flat",
    "single-phase synthetic workload; keys: mean (cycles/frame), cv, ramp",
    [](const common::Spec& spec) {
      Phase phase;
      phase.frames = 1000;
      phase.mean_cycles = spec.get_double("mean", 120.0e6);
      phase.jitter_cv = spec.get_double("cv", 0.05);
      phase.ramp = spec.get_double("ramp", 0.0);
      return std::make_unique<PhaseTraceGenerator>(
          "flat", std::vector<Phase>{phase});
    }};

}  // namespace

}  // namespace prime::wl
