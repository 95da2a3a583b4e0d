/// \file test_calibration.cpp
/// \brief Calibrating an application to a platform: the stats of the
///        traces generate() and both scaled_to_mean() forms build, the
///        materialised and streamed applications demand for demand, and the
///        targets calibration must refuse.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "common/config.hpp"
#include "common/serial.hpp"
#include "common/stats.hpp"
#include "fleet/population.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "wl/suites.hpp"
#include "wl/trace.hpp"

namespace prime {
namespace {

/// The accumulator's serialised state: equal strings mean equal bits.
std::string stats_bytes(const common::RunningStats& stats) {
  std::ostringstream out;
  common::StateWriter writer(out);
  stats.save_state(writer);
  return out.str();
}

/// A second scan over the frames, as the trace constructor does.
std::string fresh_stats_bytes(const wl::WorkloadTrace& trace) {
  common::RunningStats stats;
  for (const auto& f : trace.frames()) stats.add(static_cast<double>(f.cycles));
  return stats_bytes(stats);
}

TEST(OnePassStats, EqualAFreshScanForEveryRegisteredWorkload) {
  constexpr double kTarget = 1.7e8;
  for (const auto& name : wl::all_workload_names()) {
    SCOPED_TRACE("workload " + name);
    const wl::WorkloadTrace trace = wl::make_workload(name)->generate(1000, 77);
    ASSERT_EQ(trace.size(), 1000u);
    EXPECT_EQ(stats_bytes(trace.stats()), fresh_stats_bytes(trace));

    const wl::WorkloadTrace copied = trace.scaled_to_mean(kTarget);
    wl::WorkloadTrace source = trace;
    const wl::WorkloadTrace moved = std::move(source).scaled_to_mean(kTarget);
    EXPECT_EQ(stats_bytes(copied.stats()), fresh_stats_bytes(copied));
    EXPECT_EQ(stats_bytes(moved.stats()), fresh_stats_bytes(moved));
    EXPECT_EQ(stats_bytes(moved.stats()), stats_bytes(copied.stats()));
    EXPECT_TRUE(moved.frames() == copied.frames());
    EXPECT_EQ(moved.name(), trace.name());
    // The copying form leaves its source as it was.
    EXPECT_EQ(stats_bytes(trace.stats()), fresh_stats_bytes(trace));
  }
}

TEST(OnePassStats, UnscalableTraceComesBackUnchanged) {
  wl::WorkloadTrace zeros("zeros", {wl::FrameDemand{0, wl::FrameKind::kGeneric}});
  const wl::WorkloadTrace copied = zeros.scaled_to_mean(100.0);
  const wl::WorkloadTrace moved = std::move(zeros).scaled_to_mean(100.0);
  EXPECT_EQ(copied.at(0).cycles, 0u);
  EXPECT_TRUE(moved.frames() == copied.frames());
  EXPECT_EQ(stats_bytes(moved.stats()), stats_bytes(copied.stats()));
}

using CalibrationCase = std::tuple<std::string, std::size_t>;

class CalibratedDemands : public ::testing::TestWithParam<CalibrationCase> {};

// One calibration window, one scale and one rounding rule: a streamed
// application yields the materialised trace's demands frame for frame.
TEST_P(CalibratedDemands, StreamedEqualsMaterialised) {
  const auto& [workload, frames] = GetParam();
  const std::string where =
      "workload " + workload + ", " + std::to_string(frames) + " frames";
  const auto platform = hw::Platform::odroid_xu3_a15();
  sim::ExperimentSpec spec;
  spec.workload = workload;
  spec.frames = frames;
  spec.seed = 13;
  const wl::Application materialised = sim::make_application(spec, *platform);
  spec.stream = true;
  const wl::Application streamed = sim::make_application(spec, *platform);
  ASSERT_TRUE(streamed.streaming()) << where;
  ASSERT_EQ(materialised.frame_count(), frames) << where;
  for (std::size_t i = 0; i < frames; ++i) {
    ASSERT_EQ(materialised.frame_cycles(i), streamed.frame_cycles(i))
        << where << ": frame " << i;
  }
  EXPECT_EQ(streamed.mem_fraction(), materialised.mem_fraction()) << where;
}

INSTANTIATE_TEST_SUITE_P(
    RegisteredWorkloads, CalibratedDemands,
    ::testing::Combine(::testing::ValuesIn(wl::all_workload_names()),
                       ::testing::Values(std::size_t{1}, std::size_t{999},
                                         std::size_t{3000})),
    [](const ::testing::TestParamInfo<CalibrationCase>& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name + "_" + std::to_string(std::get<1>(info.param));
    });

enum class Mode { kMaterialised, kStreamed };
using BadTargetCase = std::tuple<double, Mode>;

class BadCalibrationTarget : public ::testing::TestWithParam<BadTargetCase> {};

// A non-finite or negative target is refused by name; a finite one whose
// demands do not fit Cycles throws where the frames are scaled: building a
// materialised trace, or pulling a streamed frame in the run.
TEST_P(BadCalibrationTarget, FailsClosed) {
  const auto [target, mode] = GetParam();
  auto platform = hw::Platform::odroid_xu3_a15();
  sim::ExperimentSpec spec;
  spec.workload = "h264";
  spec.frames = 1000;
  spec.target_utilisation = target;
  spec.stream = mode == Mode::kStreamed;
  if (!std::isfinite(target) || target < 0.0) {
    try {
      (void)sim::make_application(spec, *platform);
      FAIL() << "make_application accepted target " << target;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::to_string(target)),
                std::string::npos)
          << e.what();
    }
    return;
  }
  if (mode == Mode::kMaterialised) {
    EXPECT_THROW((void)sim::make_application(spec, *platform),
                 std::out_of_range);
    return;
  }
  const wl::Application app = sim::make_application(spec, *platform);
  const auto governor = sim::make_governor("ondemand", 1);
  sim::RunOptions options;
  options.max_frames = spec.frames;
  EXPECT_THROW((void)sim::run_simulation(*platform, app, *governor, options),
               std::out_of_range);
}

INSTANTIATE_TEST_SUITE_P(
    NonFiniteAndHuge, BadCalibrationTarget,
    ::testing::Combine(
        ::testing::Values(std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN(), -1.0,
                          1e300),
        ::testing::Values(Mode::kMaterialised, Mode::kStreamed)),
    [](const ::testing::TestParamInfo<BadTargetCase>& info) {
      const double target = std::get<0>(info.param);
      const std::string value = std::isnan(target)    ? "nan"
                                : target == -1.0      ? "minus_1"
                                : !std::isinf(target) ? "1e300"
                                : target > 0.0        ? "inf"
                                                      : "minus_inf";
      return value + (std::get<1>(info.param) == Mode::kMaterialised
                          ? "_Materialised"
                          : "_Streamed");
    });

TEST(PopulationUtil, RejectsANonFiniteTargetByValue) {
  for (const char* util : {"inf", "-inf", "nan", "-1"}) {
    common::Config cfg;
    cfg.set("governors", "ondemand");
    cfg.set("workloads", "h264");
    cfg.set("util", util);
    try {
      (void)fleet::PopulationSpec::from_config(cfg);
      ADD_FAILURE() << "util=" << util << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(
          what.find(std::string("util must be finite and >= 0, got ") + util),
                std::string::npos)
          << what;
    }
  }
}

}  // namespace
}  // namespace prime
