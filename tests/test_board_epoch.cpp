/// \file test_board_epoch.cpp
/// \brief The board-epoch kernel's combine rule, seen through both engines
///        that run it: the single-app engine and run_multi_simulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>

#include "common/config.hpp"
#include "hw/platform.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/multiapp.hpp"
#include "sim/telemetry.hpp"

namespace prime::sim {
namespace {

enum class Engine { kSingleApp, kMultiApp };

/// A board as "<domains>x<cores per domain>" at an ambient of -40 degC.
std::unique_ptr<hw::Platform> frozen_board(std::size_t domains,
                                           std::size_t cores) {
  common::Config cfg;
  cfg.set_int("hw.clusters", static_cast<long long>(domains));
  cfg.set_int("hw.cores", static_cast<long long>(cores));
  cfg.set_double("hw.ambient", -40.0);
  return hw::Platform::from_config(cfg);
}

wl::Application make_app(const char* workload, std::size_t threads,
                         std::uint64_t seed, const hw::Platform& platform) {
  ExperimentSpec spec;
  spec.workload = workload;
  spec.frames = 1000;
  spec.seed = seed;
  spec.threads = threads;
  return make_application(spec, platform);
}

using BoardCase = std::tuple<std::size_t, Engine>;

class BoardTemperature : public ::testing::TestWithParam<BoardCase> {};

// A board below 0 degC reports its hottest domain's temperature, not 0: the
// combine starts from domain 0, so no domain is compared against a 0 degC
// seed that no domain reached.
TEST_P(BoardTemperature, IsTheHottestDomainsBelowFreezing) {
  const auto [domains, engine] = GetParam();
  const auto board = frozen_board(domains, 4 / domains);
  TraceSink trace;
  if (engine == Engine::kSingleApp) {
    const wl::Application app = make_app("h264", 4, 42, *board);
    const auto governor = make_governor("ondemand", 1);
    RunOptions options;
    options.sinks = {&trace};
    (void)run_simulation(*board, app, *governor, options);
  } else {
    const wl::Application a = make_app("h264", 2, 1, *board);
    const wl::Application b = make_app("fft", 2, 2, *board);
    std::vector<std::unique_ptr<gov::Governor>> governors;
    governors.push_back(make_governor("ondemand", 1));
    governors.push_back(make_governor("ondemand", 2));
    const std::vector<AppPlacement> placements = {{&a, {0, 2}}, {&b, {1, 3}}};
    MultiAppOptions options;
    options.app_sinks = {{&trace}, {}};
    (void)run_multi_simulation(*board, placements, governors, options);
  }
  ASSERT_EQ(trace.records().size(), 1000u);
  common::Celsius hottest = board->domain(0).thermal().temperature();
  for (std::size_t d = 1; d < board->domain_count(); ++d) {
    hottest = std::max(hottest, board->domain(d).thermal().temperature());
  }
  EXPECT_LT(hottest, 0.0);
  EXPECT_EQ(trace.records().back().temperature, hottest);
}

INSTANTIATE_TEST_SUITE_P(
    OneAndTwoDomains, BoardTemperature,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2}),
                       ::testing::Values(Engine::kSingleApp,
                                         Engine::kMultiApp)),
    [](const ::testing::TestParamInfo<BoardCase>& info) {
      const std::size_t domains = std::get<0>(info.param);
      return std::to_string(domains) + "x" + std::to_string(4 / domains) +
             (std::get<1>(info.param) == Engine::kSingleApp ? "_Engine"
                                                            : "_MultiApp");
    });

}  // namespace
}  // namespace prime::sim
