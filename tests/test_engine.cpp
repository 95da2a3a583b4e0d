/// \file test_engine.cpp
/// \brief Unit tests for the simulation engine.
#include <gtest/gtest.h>

#include <memory>

#include "gov/oracle.hpp"
#include "gov/simple.hpp"
#include "hw/platform.hpp"
#include "sim/engine.hpp"
#include "sim/telemetry.hpp"
#include "wl/fft.hpp"
#include "wl/frame_source.hpp"

namespace prime::sim {
namespace {

wl::Application make_app(std::size_t frames = 50, double fps = 30.0) {
  wl::WorkloadTrace trace =
      wl::FftTraceGenerator::paper_fft().generate(frames, 1);
  // Scale to a comfortable mid-table load for a 4x2 GHz cluster.
  trace = trace.scaled_to_mean(0.45 * 4.0 * 2.0e9 / fps);
  return wl::Application("fft", std::move(trace), fps);
}

TEST(Engine, RunsWholeTraceByDefault) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_app(50);
  gov::PerformanceGovernor g;
  const RunResult r = run_simulation(*platform, app, g);
  EXPECT_EQ(r.epoch_count, 50u);
  EXPECT_EQ(r.governor, "performance");
  EXPECT_EQ(r.application, "fft");
}

TEST(Engine, MaxFramesLimits) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_app(50);
  gov::PerformanceGovernor g;
  RunOptions opt;
  opt.max_frames = 10;
  EXPECT_EQ(run_simulation(*platform, app, g, opt).epoch_count, 10u);
}

TEST(Engine, MaxFramesBeyondTraceClampsToTrace) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_app(50);
  gov::PerformanceGovernor g;
  RunOptions opt;
  opt.max_frames = 5000;
  EXPECT_EQ(run_simulation(*platform, app, g, opt).epoch_count, 50u);
}

TEST(Engine, EmptyTraceRunsZeroEpochs) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application app("empty", wl::WorkloadTrace{}, 30.0);
  gov::PerformanceGovernor g;
  TraceSink trace;
  RunOptions opt;
  opt.sinks = {&trace};
  const RunResult r = run_simulation(*platform, app, g, opt);
  EXPECT_EQ(r.epoch_count, 0u);
  EXPECT_DOUBLE_EQ(r.total_energy, 0.0);
  EXPECT_DOUBLE_EQ(r.miss_rate(), 0.0);
  EXPECT_TRUE(trace.records().empty());  // run-begin/run-end still delivered
}

TEST(Engine, StreamingApplicationRequiresMaxFrames) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const auto generator =
      std::make_shared<wl::FftTraceGenerator>(wl::FftTraceGenerator::paper_fft());
  const wl::Application app(
      "fft", [generator] { return generator->stream(1); }, 30.0);
  gov::PerformanceGovernor g;
  // max_frames == 0 would mean "run forever" on an unbounded source.
  EXPECT_THROW((void)run_simulation(*platform, app, g), std::invalid_argument);
  RunOptions opt;
  opt.max_frames = 40;
  EXPECT_EQ(run_simulation(*platform, app, g, opt).epoch_count, 40u);
}

TEST(Engine, StreamingRunMatchesTraceReplayExactly) {
  // End-to-end equivalence: a streamed run and a trace-replay run of the
  // same (generator, seed) execute the identical demand sequence, so every
  // aggregate is bit-identical.
  const std::size_t frames = 60;
  const auto generator =
      std::make_shared<wl::FftTraceGenerator>(wl::FftTraceGenerator::paper_fft());
  const wl::Application replayed("fft", generator->generate(frames, 9), 30.0);
  const wl::Application streamed(
      "fft", [generator] { return generator->stream(9); }, 30.0);

  auto p1 = hw::Platform::odroid_xu3_a15();
  auto p2 = hw::Platform::odroid_xu3_a15();
  gov::PerformanceGovernor g1;
  gov::PerformanceGovernor g2;
  RunOptions stream_opt;
  stream_opt.max_frames = frames;
  const RunResult a = run_simulation(*p1, replayed, g1);
  const RunResult b = run_simulation(*p2, streamed, g2, stream_opt);
  EXPECT_EQ(a.epoch_count, b.epoch_count);
  EXPECT_DOUBLE_EQ(a.total_energy, b.total_energy);
  EXPECT_DOUBLE_EQ(a.measured_energy, b.measured_energy);
  EXPECT_DOUBLE_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
}

TEST(Engine, StreamingRunsRepeatDeterministically) {
  // Two consecutive runs on the same streaming Application rewind the
  // source and replay the identical sequence.
  const auto generator =
      std::make_shared<wl::FftTraceGenerator>(wl::FftTraceGenerator::paper_fft());
  const wl::Application app(
      "fft", [generator] { return generator->stream(5); }, 30.0);
  RunOptions opt;
  opt.max_frames = 30;
  auto p1 = hw::Platform::odroid_xu3_a15();
  auto p2 = hw::Platform::odroid_xu3_a15();
  gov::PerformanceGovernor g1;
  gov::PerformanceGovernor g2;
  const RunResult a = run_simulation(*p1, app, g1, opt);
  const RunResult b = run_simulation(*p2, app, g2, opt);
  EXPECT_DOUBLE_EQ(a.total_energy, b.total_energy);
}

TEST(Engine, EnergyAndTimeAccumulate) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_app(30, 30.0);
  gov::PerformanceGovernor g;
  const RunResult r = run_simulation(*platform, app, g);
  EXPECT_GT(r.total_energy, 0.0);
  EXPECT_NEAR(r.total_time, 30.0 / 30.0, 0.05);  // ~1 s of frames
  EXPECT_GT(r.measured_energy, 0.0);
  // Sensor energy within a few percent of true model energy.
  EXPECT_NEAR(r.measured_energy / r.total_energy, 1.0, 0.05);
}

TEST(Engine, PerformanceGovernorMeetsAllDeadlines) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_app(100);
  gov::PerformanceGovernor g;
  const RunResult r = run_simulation(*platform, app, g);
  EXPECT_EQ(r.deadline_misses, 0u);
  EXPECT_DOUBLE_EQ(r.miss_rate(), 0.0);
}

TEST(Engine, PowersaveGovernorMissesEverything) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_app(50);
  gov::PowersaveGovernor g;
  const RunResult r = run_simulation(*platform, app, g);
  // 10x too slow at 200 MHz: every frame overruns.
  EXPECT_GT(r.miss_rate(), 0.9);
  EXPECT_GT(r.mean_normalized_performance(), 1.5);
}

TEST(Engine, OracleSeesEachFrame) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_app(100);
  gov::OracleGovernor g;
  const RunResult r = run_simulation(*platform, app, g);
  EXPECT_EQ(r.deadline_misses, 0u);
  // Oracle must beat the performance governor on energy.
  auto platform2 = hw::Platform::odroid_xu3_a15();
  gov::PerformanceGovernor perf;
  const RunResult rp = run_simulation(*platform2, app, perf);
  EXPECT_LT(r.total_energy, rp.total_energy);
}

TEST(Engine, CallbackSinkSeesEveryEpoch) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_app(25);
  gov::PerformanceGovernor g;
  std::size_t calls = 0;
  CallbackSink probe([&calls](const EpochRecord& e, gov::Governor&) {
    EXPECT_EQ(e.epoch, calls);
    ++calls;
  });
  RunOptions opt;
  opt.sinks = {&probe};
  (void)run_simulation(*platform, app, g, opt);
  EXPECT_EQ(calls, 25u);
}

TEST(Engine, DeterministicReplay) {
  const wl::Application app = make_app(60);
  auto p1 = hw::Platform::odroid_xu3_a15();
  auto p2 = hw::Platform::odroid_xu3_a15();
  gov::PerformanceGovernor g1;
  gov::PerformanceGovernor g2;
  TraceSink t1;
  TraceSink t2;
  RunOptions o1;
  o1.sinks = {&t1};
  RunOptions o2;
  o2.sinks = {&t2};
  const RunResult a = run_simulation(*p1, app, g1, o1);
  const RunResult b = run_simulation(*p2, app, g2, o2);
  ASSERT_EQ(a.epoch_count, b.epoch_count);
  EXPECT_DOUBLE_EQ(a.total_energy, b.total_energy);
  EXPECT_DOUBLE_EQ(a.measured_energy, b.measured_energy);
  ASSERT_EQ(t1.records().size(), t2.records().size());
  for (std::size_t i = 0; i < t1.records().size(); ++i) {
    EXPECT_EQ(t1.records()[i].opp_index, t2.records()[i].opp_index);
    EXPECT_DOUBLE_EQ(t1.records()[i].energy, t2.records()[i].energy);
  }
}

TEST(Engine, GovernorOverheadExecutesAsCycles) {
  // demand excludes overhead, executed includes it.
  auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_app(10);
  gov::PerformanceGovernor g;  // 2 us overhead
  TraceSink trace;
  RunOptions opt;
  opt.sinks = {&trace};
  (void)run_simulation(*platform, app, g, opt);
  ASSERT_EQ(trace.records().size(), 10u);
  for (const auto& e : trace.records()) {
    EXPECT_GT(e.executed, e.demand);
  }
}

TEST(Engine, RecordsConsistentSlack) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_app(20);
  gov::PerformanceGovernor g;
  TraceSink trace;
  RunOptions opt;
  opt.sinks = {&trace};
  (void)run_simulation(*platform, app, g, opt);
  ASSERT_EQ(trace.records().size(), 20u);
  for (const auto& e : trace.records()) {
    EXPECT_NEAR(e.slack, (e.period - e.frame_time) / e.period, 1e-12);
    EXPECT_EQ(e.deadline_met, e.frame_time <= e.period);
  }
}

TEST(RunResult, EmptyAggregates) {
  const RunResult r;
  EXPECT_DOUBLE_EQ(r.mean_normalized_performance(), 0.0);
  EXPECT_DOUBLE_EQ(r.miss_rate(), 0.0);
  EXPECT_DOUBLE_EQ(r.mean_power(), 0.0);
}

TEST(RunResult, AccumulateMaintainsAggregates) {
  RunResult r;
  EpochRecord hit;
  hit.period = 0.040;
  hit.frame_time = 0.030;
  hit.window = 0.040;
  hit.energy = 0.5;
  hit.sensor_power = 2.0;
  hit.deadline_met = true;
  EpochRecord miss = hit;
  miss.frame_time = 0.050;
  miss.window = 0.050;
  miss.sensor_power = 4.0;
  miss.deadline_met = false;
  r.accumulate(hit);
  r.accumulate(miss);
  EXPECT_EQ(r.epoch_count, 2u);
  EXPECT_DOUBLE_EQ(r.total_energy, 1.0);
  EXPECT_DOUBLE_EQ(r.total_time, 0.090);
  EXPECT_EQ(r.deadline_misses, 1u);
  EXPECT_DOUBLE_EQ(r.miss_rate(), 0.5);
  EXPECT_DOUBLE_EQ(r.mean_power(), 3.0);
  EXPECT_DOUBLE_EQ(r.mean_normalized_performance(), (0.75 + 1.25) / 2.0);
}

}  // namespace
}  // namespace prime::sim
