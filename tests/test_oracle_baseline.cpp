/// \file test_oracle_baseline.cpp
/// \brief The Oracle as the normalisation baseline on multi-domain boards:
///        per board x placement x engine x governor spec, the Oracle (bare
///        or under a decorator) uses no more energy than ondemand with no
///        more misses, and in the single-app engine every domain runs at the
///        lowest OPP that fits its own busiest core's work. A baseline that
///        sized every domain for the board, or ran some at the top OPP,
///        would fail here and name the case.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/config.hpp"
#include "gov/oracle.hpp"
#include "hw/platform.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/multiapp.hpp"
#include "sim/placement.hpp"
#include "sim/telemetry.hpp"

namespace prime::sim {
namespace {

constexpr std::size_t kFrames = 200;

/// A board as "<domains>x<cores per domain>".
struct Board {
  std::size_t domains;
  std::size_t cores;
};

std::string board_name(const Board& b) {
  return std::to_string(b.domains) + "x" + std::to_string(b.cores);
}

enum class Engine { kSingle, kMulti };

std::unique_ptr<hw::Platform> make_board(const Board& board) {
  common::Config cfg;
  cfg.set_int("hw.clusters", static_cast<long long>(board.domains));
  cfg.set_int("hw.cores", static_cast<long long>(board.cores));
  cfg.set_int("hw.sensor_seed", 31);
  return hw::Platform::from_config(cfg);
}

/// h264 at 30 fps with one thread per core of the board.
wl::Application make_app(const hw::Platform& platform, std::uint64_t seed,
                         double utilisation) {
  ExperimentSpec spec;
  spec.workload = "h264";
  spec.fps = 30.0;
  spec.frames = kFrames;
  spec.seed = seed;
  spec.threads = platform.total_cores();
  spec.target_utilisation = utilisation;
  return make_application(spec, platform);
}

/// The OPP the Oracle's rule picks for a decision whose busiest slot holds
/// \p busiest cycles.
std::size_t oracle_opp(const hw::OppTable& opps, common::Cycles busiest,
                       double mem_fraction, common::Seconds period) {
  const double guard = gov::OracleParams{}.guard_band;
  const double c = static_cast<double>(busiest);
  const double usable =
      period * (1.0 - guard) - mem_fraction * c / hw::kMemRefFrequency;
  if (usable <= 0.0) return opps.size() - 1;
  return opps.lowest_at_least((1.0 - mem_fraction) * c / usable);
}

/// Records every domain's OPP per epoch, read from the bound platform.
class DomainOppSink final : public TelemetrySink {
 public:
  void bind(RunBinding* run) override {
    platform_ = run == nullptr ? nullptr : &run->platform;
  }
  void on_epoch(const EpochRecord&, gov::Governor&) override {
    std::vector<std::size_t> row;
    for (std::size_t d = 0; d < platform_->domain_count(); ++d) {
      row.push_back(platform_->domain(d).current_opp_index());
    }
    opps.push_back(std::move(row));
  }
  std::vector<std::vector<std::size_t>> opps;

 private:
  const hw::Platform* platform_ = nullptr;
};

/// One run's energy and misses over all of its frames.
struct Outcome {
  common::Joule energy = 0.0;
  std::size_t misses = 0;
  std::size_t frames = 0;
};

Outcome run_single(const Board& board, const std::string& placement,
                   const std::string& governor, DomainOppSink* sink) {
  const auto platform = make_board(board);
  const wl::Application app = make_app(*platform, 7, 0.45);
  const auto gov = make_governor(governor, 0x5EED);
  RunOptions options;
  options.placement = placement;
  if (sink != nullptr) options.sinks = {sink};
  const RunResult r = run_simulation(*platform, app, *gov, options);
  return {r.total_energy, r.deadline_misses, r.epoch_count};
}

/// Two apps on the two halves of the placement's slot order: app 0 on the
/// cores of the first half of the slots, app 1 on the second half.
Outcome run_multi(const Board& board, const std::string& placement,
                  const std::string& governor) {
  const auto platform = make_board(board);
  const std::vector<wl::Application> apps = {make_app(*platform, 7, 0.2),
                                             make_app(*platform, 8, 0.2)};
  const Placement place = make_placement(placement, *platform, &apps[0]);
  std::vector<AppPlacement> placements = {{&apps[0], {}}, {&apps[1], {}}};
  const std::size_t half = place.slots() / 2;
  for (std::size_t j = 0; j < place.slots(); ++j) {
    placements[j < half ? 0 : 1].cores.push_back(
        place.slot_domain[j] * board.cores + place.slot_local[j]);
  }
  std::vector<std::unique_ptr<gov::Governor>> governors;
  governors.push_back(make_governor(governor, 0x5EED));
  governors.push_back(make_governor(governor, 0x5EEE));
  const MultiAppResult r =
      run_multi_simulation(*platform, placements, governors, kFrames);
  Outcome out{r.total_energy, 0, 0};
  for (const RunResult& app : r.per_app) {
    out.misses += app.deadline_misses;
    out.frames += app.epoch_count;
  }
  return out;
}

using BaselineCase = std::tuple<Board, std::string, Engine, std::string>;

class OracleBaseline : public testing::TestWithParam<BaselineCase> {};

TEST_P(OracleBaseline, BeatsOndemandAndSizesEachDomainForItsOwnWork) {
  const auto& [board, placement, engine, governor] = GetParam();
  const bool single = engine == Engine::kSingle;
  DomainOppSink sink;
  const Outcome ondemand =
      single ? run_single(board, placement, "ondemand", nullptr)
             : run_multi(board, placement, "ondemand");
  const Outcome oracle = single ? run_single(board, placement, governor, &sink)
                                : run_multi(board, placement, governor);

  // The board is not saturated: the baseline has room to slow down.
  ASSERT_GT(ondemand.frames, 0u);
  EXPECT_LT(ondemand.misses * 10, ondemand.frames)
      << "ondemand misses " << ondemand.misses << " of " << ondemand.frames;
  EXPECT_LE(oracle.energy, ondemand.energy);
  EXPECT_LE(oracle.misses, ondemand.misses);
  if (!single) return;

  // Every domain at the lowest OPP that fits its own busiest core's work.
  const auto platform = make_board(board);
  const wl::Application app = make_app(*platform, 7, 0.45);
  const Placement place = make_placement(placement, *platform, &app);
  const hw::OppTable& opps = platform->opp_table();
  ASSERT_EQ(sink.opps.size(), kFrames);
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < kFrames; ++i) {
    const std::vector<common::Cycles> work =
        app.core_work(i, platform->total_cores());
    std::vector<common::Cycles> busiest(board.domains, 0);
    for (std::size_t j = 0; j < work.size(); ++j) {
      common::Cycles& b = busiest[place.slot_domain[j]];
      b = std::max(b, work[j]);
    }
    for (std::size_t d = 0; d < board.domains; ++d) {
      const std::size_t want =
          oracle_opp(opps, busiest[d], app.mem_fraction(), app.deadline_at(i));
      if (sink.opps[i][d] != want && ++wrong <= 3) {
        ADD_FAILURE() << "frame " << i << ", domain " << d << ": OPP "
                      << sink.opps[i][d] << ", the Oracle rule gives "
                      << want;
      }
    }
  }
  EXPECT_EQ(wrong, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OracleBaseline,
    testing::Combine(testing::Values(Board{2, 2}, Board{4, 4}, Board{16, 1}),
                     testing::Values(std::string("packed"),
                                     std::string("spread"),
                                     std::string("rect")),
                     testing::Values(Engine::kSingle, Engine::kMulti),
                     testing::Values(std::string("oracle"),
                                     std::string("thermal-cap(inner=oracle)"))),
    [](const testing::TestParamInfo<OracleBaseline::ParamType>& info) {
      return board_name(std::get<0>(info.param)) + "_" +
             std::get<1>(info.param) +
             (std::get<2>(info.param) == Engine::kSingle ? "_Engine"
                                                         : "_MultiApp") +
             (std::get<3>(info.param) == "oracle" ? "_Oracle"
                                                  : "_ThermalCapOracle");
    });

}  // namespace
}  // namespace prime::sim
