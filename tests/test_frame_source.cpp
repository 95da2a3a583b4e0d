/// \file test_frame_source.cpp
/// \brief Unit tests for lazy frame sources and the streaming equivalence
///        guarantee: for every registered generator, stream(seed) yields
///        exactly the sequence generate(n, seed) materialises.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "wl/fft.hpp"
#include "wl/frame_source.hpp"
#include "wl/suites.hpp"
#include "wl/trace.hpp"

namespace prime::wl {
namespace {

TEST(FrameSource, StreamMatchesGenerateForEveryRegisteredWorkload) {
  constexpr std::size_t kFrames = 400;
  constexpr std::uint64_t kSeed = 20170327;
  for (const auto& name : all_workload_names()) {
    const auto generator = make_workload(name);
    const WorkloadTrace trace = generator->generate(kFrames, kSeed);
    ASSERT_EQ(trace.size(), kFrames) << name;
    const auto source = generator->stream(kSeed);
    for (std::size_t i = 0; i < kFrames; ++i) {
      const auto frame = source->next();
      ASSERT_TRUE(frame.has_value()) << name << " frame " << i;
      EXPECT_EQ(frame->cycles, trace.at(i).cycles) << name << " frame " << i;
      EXPECT_EQ(frame->kind, trace.at(i).kind) << name << " frame " << i;
    }
  }
}

TEST(FrameSource, StreamIsDeterministicInSeed) {
  const auto generator = make_workload("h264");
  const auto a = generator->stream(7);
  const auto b = generator->stream(7);
  const auto c = generator->stream(8);
  bool any_difference = false;
  for (std::size_t i = 0; i < 200; ++i) {
    const auto fa = a->next();
    const auto fb = b->next();
    const auto fc = c->next();
    EXPECT_EQ(fa->cycles, fb->cycles);
    any_difference = any_difference || fa->cycles != fc->cycles;
  }
  EXPECT_TRUE(any_difference);  // a different seed produces a different stream
}

TEST(FrameSource, StreamOutlivesItsGenerator) {
  std::unique_ptr<FrameSource> source;
  {
    const auto generator = make_workload("fft");
    source = generator->stream(3);
  }  // generator destroyed; the stream owns its own parameters
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(source->next().has_value());
  }
}

TEST(TraceFrameSource, ReplaysAndExhausts) {
  const WorkloadTrace trace("t", {FrameDemand{100, FrameKind::kIntra},
                                  FrameDemand{200, FrameKind::kPredicted}});
  TraceFrameSource source(trace);
  EXPECT_EQ(source.remaining(), 2u);
  EXPECT_EQ(source.next()->cycles, 100u);
  EXPECT_EQ(source.next()->cycles, 200u);
  EXPECT_EQ(source.remaining(), 0u);
  EXPECT_FALSE(source.next().has_value());
  EXPECT_FALSE(source.next().has_value());  // stays exhausted
  EXPECT_THROW(TraceFrameSource(std::shared_ptr<const WorkloadTrace>{}),
               std::invalid_argument);
}

TEST(ScaledFrameSource, RoundsExactlyLikeScaledToMean) {
  const auto generator = FftTraceGenerator::paper_fft();
  const WorkloadTrace trace = generator.generate(300, 11);
  const double target = 1.7e8;
  const WorkloadTrace scaled = trace.scaled_to_mean(target);
  ScaledFrameSource source(generator.stream(11),
                           target / trace.mean_cycles());
  for (std::size_t i = 0; i < scaled.size(); ++i) {
    EXPECT_EQ(source.next()->cycles, scaled.at(i).cycles) << "frame " << i;
  }
}

TEST(ScaledFrameSource, RejectsBadArguments) {
  const auto generator = FftTraceGenerator::paper_fft();
  EXPECT_THROW(ScaledFrameSource(nullptr, 2.0), std::invalid_argument);
  EXPECT_THROW(ScaledFrameSource(generator.stream(1), 0.0),
               std::invalid_argument);
  EXPECT_THROW(ScaledFrameSource(generator.stream(1), -1.0),
               std::invalid_argument);
}

TEST(ScaledFrameSource, PropagatesExhaustion) {
  const WorkloadTrace trace("t", {FrameDemand{101, FrameKind::kGeneric}});
  ScaledFrameSource source(std::make_unique<TraceFrameSource>(trace), 2.0);
  EXPECT_EQ(source.next()->cycles, 202u);
  EXPECT_FALSE(source.next().has_value());
}

}  // namespace
}  // namespace prime::wl
