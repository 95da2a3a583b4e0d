/// \file test_experiment.cpp
/// \brief Unit tests for experiment assembly (applications, governors).
#include <gtest/gtest.h>

#include "sim/experiment.hpp"

namespace prime::sim {
namespace {

TEST(MakeApplication, CalibratesToTargetUtilisation) {
  const auto platform = hw::Platform::odroid_xu3_a15();
  ExperimentSpec spec;
  spec.workload = "fft";
  spec.fps = 25.0;
  spec.frames = 500;
  spec.target_utilisation = 0.5;
  const wl::Application app = make_application(spec, *platform);
  const double capacity = 4.0 * 2.0e9 * 0.040;  // cores * fmax * Tref
  EXPECT_NEAR(app.trace().mean_cycles() / (0.5 * capacity), 1.0, 0.02);
}

TEST(MakeApplication, ZeroUtilisationSkipsCalibration) {
  const auto platform = hw::Platform::odroid_xu3_a15();
  ExperimentSpec spec;
  spec.workload = "fft";
  spec.target_utilisation = 0.0;
  spec.frames = 100;
  const wl::Application app = make_application(spec, *platform);
  EXPECT_NEAR(app.trace().mean_cycles(), 90.0e6, 9.0e6);  // generator's level
}

TEST(MakeApplication, DeterministicForSeed) {
  const auto platform = hw::Platform::odroid_xu3_a15();
  ExperimentSpec spec;
  spec.workload = "h264";
  spec.frames = 100;
  spec.seed = 7;
  const wl::Application a = make_application(spec, *platform);
  const wl::Application b = make_application(spec, *platform);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a.frame_cycles(i), b.frame_cycles(i));
  }
}

TEST(MakeApplication, StreamFlagBuildsStreamingApplication) {
  const auto platform = hw::Platform::odroid_xu3_a15();
  ExperimentSpec spec;
  spec.workload = "h264";
  spec.frames = 200;
  spec.stream = true;
  const wl::Application app = make_application(spec, *platform);
  EXPECT_TRUE(app.streaming());
  EXPECT_GT(app.frame_cycles(0), 0u);
}

TEST(MakeApplication, StreamSpecKeyOverridesField) {
  const auto platform = hw::Platform::odroid_xu3_a15();
  ExperimentSpec spec;
  spec.frames = 100;
  // The workload factory never sees the stream= key (it would reject it as
  // a typo); the experiment layer consumes it.
  spec.workload = "h264(stream=true)";
  EXPECT_TRUE(make_application(spec, *platform).streaming());
  spec.workload = "h264(stream=false)";
  spec.stream = true;  // per-workload key wins over the builder-level field
  EXPECT_FALSE(make_application(spec, *platform).streaming());
  // Bare boolean-flag form and parameterised specs work too.
  spec.stream = false;
  spec.workload = "flat(mean=2e8,cv=0.1,stream)";
  EXPECT_TRUE(make_application(spec, *platform).streaming());
}

TEST(CompareGovernors, StreamingAppWithMaxFramesMatchesMaterialised) {
  auto platform = hw::Platform::odroid_xu3_a15();
  ExperimentSpec spec;
  spec.workload = "fft";
  spec.frames = 120;
  const wl::Application materialised = make_application(spec, *platform);
  spec.stream = true;
  const wl::Application streamed = make_application(spec, *platform);
  const Comparison a =
      compare_governors(*platform, materialised, {"performance"});
  const Comparison b = compare_governors(*platform, streamed, {"performance"},
                                         0x271828, spec.frames);
  EXPECT_DOUBLE_EQ(a.runs[0].total_energy, b.runs[0].total_energy);
  EXPECT_DOUBLE_EQ(a.oracle_run.total_energy, b.oracle_run.total_energy);
}

TEST(MakeGovernor, AllNamesConstruct) {
  for (const auto& name : governor_names()) {
    const auto g = make_governor(name);
    ASSERT_NE(g, nullptr) << name;
    EXPECT_FALSE(g->name().empty()) << name;
  }
}

TEST(MakeGovernor, UnknownThrows) {
  EXPECT_THROW(make_governor("no-such-governor"), std::invalid_argument);
}

TEST(CompareGovernors, ProducesNormalisedRows) {
  auto platform = hw::Platform::odroid_xu3_a15();
  ExperimentSpec spec;
  spec.workload = "fft";
  spec.frames = 150;
  const wl::Application app = make_application(spec, *platform);
  const Comparison cmp =
      compare_governors(*platform, app, {"performance", "powersave"});
  ASSERT_EQ(cmp.rows.size(), 2u);
  ASSERT_EQ(cmp.runs.size(), 2u);
  EXPECT_EQ(cmp.oracle_run.governor, "oracle");
  // Performance wastes energy vs oracle; powersave misses en masse.
  EXPECT_GT(cmp.rows[0].normalized_energy, 1.0);
  EXPECT_GT(cmp.rows[1].normalized_performance, 1.0);
}

TEST(CompareGovernors, PlatformResetBetweenRuns) {
  auto platform = hw::Platform::odroid_xu3_a15();
  ExperimentSpec spec;
  spec.workload = "fft";
  spec.frames = 100;
  const wl::Application app = make_application(spec, *platform);
  const Comparison a = compare_governors(*platform, app, {"performance"});
  const Comparison b = compare_governors(*platform, app, {"performance"});
  EXPECT_DOUBLE_EQ(a.runs[0].total_energy, b.runs[0].total_energy);
  EXPECT_DOUBLE_EQ(a.oracle_run.total_energy, b.oracle_run.total_energy);
}

}  // namespace
}  // namespace prime::sim
