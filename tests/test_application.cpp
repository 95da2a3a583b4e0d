/// \file test_application.cpp
/// \brief Unit tests for the periodic application model.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "wl/application.hpp"
#include "wl/fft.hpp"
#include "wl/frame_source.hpp"

namespace prime::wl {
namespace {

Application make_app(double fps = 30.0, std::size_t threads = 4,
                     double imbalance = 0.1) {
  WorkloadTrace trace = FftTraceGenerator::paper_fft().generate(100, 1);
  return Application("app", std::move(trace), fps, threads, imbalance);
}

TEST(Application, RejectsNonPositiveFps) {
  WorkloadTrace t = FftTraceGenerator::paper_fft().generate(10, 1);
  EXPECT_THROW(Application("x", std::move(t), 0.0), std::invalid_argument);
}

TEST(Application, DeadlineIsInverseFps) {
  const Application app = make_app(25.0);
  EXPECT_NEAR(app.deadline_at(0), 0.040, 1e-12);
  EXPECT_NEAR(app.requirement_at(50).fps, 25.0, 1e-12);
}

TEST(Application, RequirementChangesApplyFromFrame) {
  Application app = make_app(30.0);
  app.add_requirement_change(50, 15.0);
  EXPECT_NEAR(app.requirement_at(49).fps, 30.0, 1e-12);
  EXPECT_NEAR(app.requirement_at(50).fps, 15.0, 1e-12);
  EXPECT_NEAR(app.requirement_at(99).fps, 15.0, 1e-12);
}

TEST(Application, RequirementChangesSortRegardlessOfInsertOrder) {
  Application app = make_app(30.0);
  app.add_requirement_change(80, 60.0);
  app.add_requirement_change(40, 15.0);
  EXPECT_NEAR(app.requirement_at(45).fps, 15.0, 1e-12);
  EXPECT_NEAR(app.requirement_at(85).fps, 60.0, 1e-12);
}

TEST(Application, RequirementChangeRejectsBadFps) {
  Application app = make_app();
  EXPECT_THROW(app.add_requirement_change(10, -1.0), std::invalid_argument);
}

TEST(Application, RequirementSameFrameLastAddedWins) {
  // Regression: two changes at the same frame used to resolve arbitrarily
  // (unstable sort over equal keys); the last one added must win.
  Application app = make_app(30.0);
  app.add_requirement_change(50, 15.0);
  app.add_requirement_change(50, 60.0);
  EXPECT_NEAR(app.requirement_at(50).fps, 60.0, 1e-12);
  // Replacement works regardless of other breakpoints around it.
  app.add_requirement_change(20, 10.0);
  app.add_requirement_change(80, 40.0);
  app.add_requirement_change(50, 24.0);
  EXPECT_NEAR(app.requirement_at(30).fps, 10.0, 1e-12);
  EXPECT_NEAR(app.requirement_at(50).fps, 24.0, 1e-12);
  EXPECT_NEAR(app.requirement_at(79).fps, 24.0, 1e-12);
  EXPECT_NEAR(app.requirement_at(80).fps, 40.0, 1e-12);
}

TEST(Application, ReplacingFrameZeroOverridesInitialFps) {
  Application app = make_app(30.0);
  app.add_requirement_change(0, 45.0);
  EXPECT_NEAR(app.requirement_at(0).fps, 45.0, 1e-12);
}

TEST(Application, CoreWorkConservesDemand) {
  const Application app = make_app(30.0, 4, 0.2);
  for (std::size_t frame = 0; frame < 10; ++frame) {
    const auto work = app.core_work(frame, 4);
    const common::Cycles total =
        std::accumulate(work.begin(), work.end(), common::Cycles{0});
    // Integer rounding may lose at most `threads` cycles.
    EXPECT_NEAR(static_cast<double>(total),
                static_cast<double>(app.frame_cycles(frame)), 4.0);
  }
}

TEST(Application, CoreWorkUsesOnlyAvailableCores) {
  const Application app = make_app(30.0, 8, 0.0);
  const auto work = app.core_work(0, 2);
  ASSERT_EQ(work.size(), 2u);
  EXPECT_GT(work[0], 0u);
  EXPECT_GT(work[1], 0u);
}

TEST(Application, FewerThreadsThanCoresLeavesIdleCores) {
  const Application app = make_app(30.0, 2, 0.0);
  const auto work = app.core_work(0, 4);
  ASSERT_EQ(work.size(), 4u);
  EXPECT_GT(work[0], 0u);
  EXPECT_GT(work[1], 0u);
  EXPECT_EQ(work[2], 0u);
  EXPECT_EQ(work[3], 0u);
}

TEST(Application, ZeroImbalanceSplitsEvenly) {
  const Application app = make_app(30.0, 4, 0.0);
  const auto work = app.core_work(3, 4);
  for (std::size_t j = 1; j < 4; ++j) {
    EXPECT_NEAR(static_cast<double>(work[j]), static_cast<double>(work[0]),
                2.0);
  }
}

TEST(Application, ImbalanceBounded) {
  const double imb = 0.3;
  const Application app = make_app(30.0, 4, imb);
  for (std::size_t frame = 0; frame < 20; ++frame) {
    const auto work = app.core_work(frame, 4);
    const double even = static_cast<double>(app.frame_cycles(frame)) / 4.0;
    for (const auto w : work) {
      // Normalised shares stay within ~2x the nominal imbalance envelope.
      EXPECT_LT(std::abs(static_cast<double>(w) - even) / even, 2.5 * imb);
    }
  }
}

TEST(Application, CoreWorkDeterministicAndOrderIndependent) {
  const Application app = make_app(30.0, 4, 0.15);
  const auto later = app.core_work(7, 4);
  const auto earlier = app.core_work(3, 4);
  const auto later_again = app.core_work(7, 4);
  EXPECT_EQ(later, later_again);
  (void)earlier;
}

TEST(Application, EmptyStoredTraceFillsZeros) {
  const Application app("empty", WorkloadTrace{}, 30.0);
  FrameBlock block;
  app.fill_block(5, 3, 4, block);
  ASSERT_EQ(block.count, 3u);
  EXPECT_EQ(block.work, std::vector<common::Cycles>(12, 0));
  EXPECT_EQ(block.demand, std::vector<common::Cycles>(3, 0));
  EXPECT_EQ(app.core_work(5, 4), std::vector<common::Cycles>(4, 0));
}

TEST(Application, ZeroCoresYieldsEmpty) {
  const Application app = make_app();
  EXPECT_TRUE(app.core_work(0, 0).empty());
}

// --- Streaming mode ----------------------------------------------------------

Application make_streaming_app(std::uint64_t seed = 1, double fps = 30.0,
                               std::size_t threads = 4,
                               double imbalance = 0.1) {
  auto generator =
      std::make_shared<FftTraceGenerator>(FftTraceGenerator::paper_fft());
  return Application(
      "app", [generator, seed] { return generator->stream(seed); }, fps,
      threads, imbalance);
}

TEST(StreamingApplication, FlagsAndEmptyTrace) {
  const Application app = make_streaming_app();
  EXPECT_TRUE(app.streaming());
  EXPECT_EQ(app.frame_count(), 0u);  // unbounded: no trace length
  EXPECT_TRUE(app.trace().empty());
  EXPECT_FALSE(make_app().streaming());
}

TEST(StreamingApplication, RejectsEmptyFactory) {
  EXPECT_THROW(Application("x", FrameSourceFactory{}, 30.0),
               std::invalid_argument);
}

TEST(StreamingApplication, MatchesTraceReplayFrameForFrame) {
  // The equivalence guarantee at the application layer: a streaming app and
  // a trace app built from the same (generator, seed) split identical work.
  const Application streamed = make_streaming_app(1, 30.0, 4, 0.1);
  const Application replayed = make_app(30.0, 4, 0.1);  // generate(100, 1)
  for (std::size_t frame = 0; frame < 100; ++frame) {
    EXPECT_EQ(streamed.frame_cycles(frame), replayed.frame_cycles(frame));
    EXPECT_EQ(streamed.core_work(frame, 4), replayed.core_work(frame, 4));
  }
}

TEST(StreamingApplication, RepeatedAndSkippingAccess) {
  const Application app = make_streaming_app();
  const common::Cycles c3 = app.frame_cycles(3);
  EXPECT_EQ(app.frame_cycles(3), c3);  // repeated access hits the cache
  const common::Cycles c10 = app.frame_cycles(10);  // skip forward
  EXPECT_GT(c10, 0u);
  EXPECT_EQ(app.frame_cycles(10), c10);
}

TEST(StreamingApplication, FrameBeforeASkipIsReadNotCached) {
  const Application fresh = make_streaming_app();
  const common::Cycles c9 = fresh.frame_cycles(9);
  const Application app = make_streaming_app();
  app.skip_to(10);
  EXPECT_EQ(app.frame_cycles(9), c9);  // a rewind, not the one-frame cache
}

TEST(StreamingApplication, RewindReplaysIdentically) {
  const Application app = make_streaming_app();
  std::vector<common::Cycles> first;
  for (std::size_t i = 0; i < 20; ++i) first.push_back(app.frame_cycles(i));
  // Accessing a lower index re-creates the deterministic source.
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(app.frame_cycles(i), first[i]) << "frame " << i;
  }
}

TEST(StreamingApplication, CopyGetsIndependentFreshCursor) {
  const Application app = make_streaming_app();
  std::vector<common::Cycles> expected;
  for (std::size_t i = 0; i < 10; ++i) expected.push_back(app.frame_cycles(i));
  // Copy taken mid-stream: same calibration/factory, fresh cursor.
  const Application copy = app;
  EXPECT_TRUE(copy.streaming());
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(copy.frame_cycles(i), expected[i]) << "frame " << i;
  }
  // The original's cursor is unaffected by the copy's streaming.
  EXPECT_EQ(app.frame_cycles(10), copy.frame_cycles(10));
  // Copy assignment resets the target's cursor too.
  Application assigned = make_streaming_app(99);
  (void)assigned.frame_cycles(7);
  assigned = app;
  EXPECT_EQ(assigned.frame_cycles(0), expected[0]);
}

TEST(StreamingApplication, BoundedSourceExhaustionThrows) {
  const WorkloadTrace trace = FftTraceGenerator::paper_fft().generate(5, 1);
  const Application app(
      "bounded", [trace] { return std::make_unique<TraceFrameSource>(trace); },
      30.0);
  EXPECT_GT(app.frame_cycles(4), 0u);
  EXPECT_THROW((void)app.frame_cycles(5), std::out_of_range);
}

// --- One replay cursor for every backend -------------------------------------

enum class Backend { kStoredTrace, kGeneratorStream, kBoundedStream };
enum class Access { kSequential, kRewindToZero, kSkipForward, kCopyMidRun };
using CursorCase = std::tuple<Backend, Access>;

constexpr std::size_t kFrames = 100;  // make_app's trace length.
constexpr std::size_t kBlock = 16;
constexpr std::size_t kCores = 4;

std::string backend_name(Backend backend) {
  switch (backend) {
    case Backend::kStoredTrace: return "StoredTrace";
    case Backend::kGeneratorStream: return "GeneratorStream";
    case Backend::kBoundedStream: return "BoundedStream";
  }
  return "?";
}

std::string access_name(Access access) {
  switch (access) {
    case Access::kSequential: return "Sequential";
    case Access::kRewindToZero: return "RewindToZero";
    case Access::kSkipForward: return "SkipForward";
    case Access::kCopyMidRun: return "CopyMidRun";
  }
  return "?";
}

/// The same fft frames (seed 1) behind each backend.
Application make_backend(Backend backend) {
  switch (backend) {
    case Backend::kStoredTrace: return make_app();
    case Backend::kGeneratorStream: return make_streaming_app();
    case Backend::kBoundedStream: {
      const WorkloadTrace trace =
          FftTraceGenerator::paper_fft().generate(kFrames, 1);
      return Application(
          "app", [trace] { return std::make_unique<TraceFrameSource>(trace); },
          30.0, 4, 0.1);
    }
  }
  throw std::logic_error("unknown backend");
}

class ReplayCursor : public ::testing::TestWithParam<CursorCase> {
 protected:
  void SetUp() override {
    where_ = backend_name(std::get<0>(GetParam())) + " x " +
             access_name(std::get<1>(GetParam()));
    // A fresh application's sequential fill of every frame is the reference.
    make_backend(std::get<0>(GetParam())).fill_block(0, kFrames, kCores, ref_);
  }

  /// Fill [from, to) through \p app in kBlock-frame blocks, checking each
  /// block row for row against the reference.
  void fill_and_check(const Application& app, std::size_t from,
                      std::size_t to, const std::string& step) {
    FrameBlock block;
    for (std::size_t start = from; start < to; start += kBlock) {
      const std::size_t n = std::min(kBlock, to - start);
      app.fill_block(start, n, kCores, block);
      ASSERT_EQ(block.start, start) << where_ << ", " << step;
      ASSERT_EQ(block.count, n) << where_ << ", " << step;
      EXPECT_EQ(block.mem_fraction, ref_.mem_fraction) << where_ << ", " << step;
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t f = start + i;
        const std::string at = where_ + ", " + step + ": frame " +
                               std::to_string(f);
        EXPECT_EQ(block.periods[i], ref_.periods[f]) << at;
        EXPECT_EQ(block.demand[i], ref_.demand[f]) << at;
        EXPECT_TRUE(std::equal(block.row(i), block.row(i) + kCores,
                               ref_.row(f)))
            << at;
      }
    }
  }

  std::string where_;
  FrameBlock ref_;
};

// Every access pattern reads, block for block, what a fresh application's
// sequential fill reads, whichever backend holds the frames.
TEST_P(ReplayCursor, EveryBlockMatchesAFreshSequentialFill) {
  const Application app = make_backend(std::get<0>(GetParam()));
  switch (std::get<1>(GetParam())) {
    case Access::kSequential:
      fill_and_check(app, 0, kFrames, "sequential");
      break;
    case Access::kRewindToZero:
      fill_and_check(app, 0, 48, "first pass");
      fill_and_check(app, 0, kFrames, "after the rewind");
      break;
    case Access::kSkipForward:
      fill_and_check(app, 0, kBlock, "first block");
      app.skip_to(37);
      fill_and_check(app, 61, kFrames, "after the skip");
      break;
    case Access::kCopyMidRun: {
      fill_and_check(app, 0, 48, "original, first part");
      const Application copy = app;
      fill_and_check(copy, 0, kFrames, "copy");
      fill_and_check(app, 48, kFrames, "original, rest");
      break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ReplayCursor,
    ::testing::Combine(::testing::Values(Backend::kStoredTrace,
                                         Backend::kGeneratorStream,
                                         Backend::kBoundedStream),
                       ::testing::Values(Access::kSequential,
                                         Access::kRewindToZero,
                                         Access::kSkipForward,
                                         Access::kCopyMidRun)),
    [](const ::testing::TestParamInfo<CursorCase>& info) {
      return backend_name(std::get<0>(info.param)) + "_" +
             access_name(std::get<1>(info.param));
    });

}  // namespace
}  // namespace prime::wl
