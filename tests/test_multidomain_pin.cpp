/// \file test_multidomain_pin.cpp
/// \brief Bit-identity pins of the engine's multi-domain epoch loop: per
///        board x placement x governor, one FNV-1a digest over the
///        `RunResult` and every `EpochRecord` of a fixed-seed run. The other
///        multi-domain tests compare the loop only against itself (repeat
///        runs, block sizes), so a change that moved every run alike would
///        pass them; these digests were committed before the loop was
///        reworked and fail it, naming the board, placement and governor.
#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>

#include "common/config.hpp"
#include "hw/platform.hpp"
#include "sim/block_prefetch.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/telemetry.hpp"
#include "run_digest.hpp"

namespace prime::sim {
namespace {

/// A board as "<domains>x<cores per domain>".
struct Board {
  std::size_t domains;
  std::size_t cores;
};

std::string board_name(const Board& b) {
  return std::to_string(b.domains) + "x" + std::to_string(b.cores);
}

struct Pin {
  const char* board;
  const char* placement;
  const char* governor;
  std::uint64_t digest;
};

// Committed digests of 200-frame runs. Where two policies map this app's
// work identically, their digests coincide: on 2x2 packed and rect; on 4x4,
// where every slot carries work, packed and rect; on 16x1, with one core
// per domain, all three.
constexpr Pin kPins[] = {
    {"2x2", "packed", "ondemand", 0x96f9455a11516911ULL},
    {"2x2", "packed", "rtm-manycore", 0x669011732ef5b69ULL},
    {"2x2", "packed", "oracle", 0x154f50789cf49583ULL},
    {"2x2", "spread", "ondemand", 0xedc6a1c9c8b83d4cULL},
    {"2x2", "spread", "rtm-manycore", 0x60d6d02d1217b0b1ULL},
    {"2x2", "spread", "oracle", 0x435e438e4db91715ULL},
    {"2x2", "rect", "ondemand", 0x96f9455a11516911ULL},
    {"2x2", "rect", "rtm-manycore", 0x669011732ef5b69ULL},
    {"2x2", "rect", "oracle", 0x154f50789cf49583ULL},
    {"4x4", "packed", "ondemand", 0xff15955ae9d4135ULL},
    {"4x4", "packed", "rtm-manycore", 0x83ef629ba3b1bde1ULL},
    {"4x4", "packed", "oracle", 0x9a2044400a61e2ULL},
    {"4x4", "spread", "ondemand", 0x8de2de31a5973859ULL},
    {"4x4", "spread", "rtm-manycore", 0xc32ba4e241986db6ULL},
    {"4x4", "spread", "oracle", 0x51798aa0d8d61b3ULL},
    {"4x4", "rect", "ondemand", 0xff15955ae9d4135ULL},
    {"4x4", "rect", "rtm-manycore", 0x83ef629ba3b1bde1ULL},
    {"4x4", "rect", "oracle", 0x9a2044400a61e2ULL},
    {"16x1", "packed", "ondemand", 0xa159fa176229949aULL},
    {"16x1", "packed", "rtm-manycore", 0x34b6f51fa3dabf68ULL},
    {"16x1", "packed", "oracle", 0x283349b08086a7e0ULL},
    {"16x1", "spread", "ondemand", 0xa159fa176229949aULL},
    {"16x1", "spread", "rtm-manycore", 0x34b6f51fa3dabf68ULL},
    {"16x1", "spread", "oracle", 0x283349b08086a7e0ULL},
    {"16x1", "rect", "ondemand", 0xa159fa176229949aULL},
    {"16x1", "rect", "rtm-manycore", 0x34b6f51fa3dabf68ULL},
    {"16x1", "rect", "oracle", 0x283349b08086a7e0ULL},
};

// The committed digest of the long run: long enough for the prefetch helper.
constexpr std::size_t kLongFrames = 1200;
static_assert(kLongFrames >= kMinPrefetchFrames);
constexpr std::uint64_t kLongPin = 0x78735f58e9e24a79ULL;

std::uint64_t pin_for(const std::string& board, const std::string& placement,
                      const std::string& governor) {
  for (const Pin& p : kPins) {
    if (board == p.board && placement == p.placement &&
        governor == p.governor) {
      return p.digest;
    }
  }
  throw std::logic_error("no pin for " + board + " " + placement + " " +
                         governor);
}

/// One pinned run: its result-and-records digest and its miss rate.
struct PinnedRun {
  std::uint64_t digest;
  double miss_rate;
};

/// Run h264 at 30 fps for \p frames on a fresh \p board with \p placement
/// and \p governor, its work split over \p threads cores (0 = every core of
/// the board) at \p utilisation of the board's capacity.
PinnedRun run_digest_of(const Board& board, const std::string& placement,
                        const std::string& governor, std::size_t frames,
                        std::size_t threads = 0,
                        double utilisation =
                            ExperimentSpec{}.target_utilisation) {
  common::Config cfg;
  cfg.set_int("hw.clusters", static_cast<long long>(board.domains));
  cfg.set_int("hw.cores", static_cast<long long>(board.cores));
  cfg.set_int("hw.sensor_seed", 31);
  const auto platform = hw::Platform::from_config(cfg);
  ExperimentSpec spec;
  spec.workload = "h264";
  spec.fps = 30.0;
  spec.frames = frames;
  spec.seed = 7;
  spec.threads = threads == 0 ? platform->total_cores() : threads;
  spec.target_utilisation = utilisation;
  const wl::Application app = make_application(spec, *platform);
  const auto gov = make_governor(governor, 0x5EED);
  TraceSink trace;
  RunOptions options;
  options.placement = placement;
  options.sinks = {&trace};
  const RunResult run = run_simulation(*platform, app, *gov, options);
  EXPECT_EQ(run.epoch_count, frames);
  return {testing_util::run_digest(run, trace.records()), run.miss_rate()};
}

std::string hex(std::uint64_t v) {
  std::ostringstream out;
  out << "0x" << std::hex << v << "ULL";
  return out.str();
}

class MultiDomainPin
    : public testing::TestWithParam<std::tuple<Board, std::string, std::string>> {
};

TEST_P(MultiDomainPin, RunAndRecordsArePinned) {
  const auto& [board, placement, governor] = GetParam();
  const std::string where = "board " + board_name(board) + ", placement " +
                            placement + ", governor " + governor;
  const PinnedRun got = run_digest_of(board, placement, governor, 200);
  EXPECT_EQ(got.digest, pin_for(board_name(board), placement, governor))
      << where << ": digest " << hex(got.digest);
  // A board the work saturates misses every frame under every governor, and
  // its digests then pin little of the per-domain decisions.
  if (governor == "ondemand") {
    EXPECT_LT(got.miss_rate, 0.10) << where;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MultiDomainPin,
    testing::Combine(testing::Values(Board{2, 2}, Board{4, 4}, Board{16, 1}),
                     testing::Values(std::string("packed"),
                                     std::string("spread"),
                                     std::string("rect")),
                     testing::Values(std::string("ondemand"),
                                     std::string("rtm-manycore"),
                                     std::string("oracle"))),
    [](const testing::TestParamInfo<MultiDomainPin::ParamType>& info) {
      std::string name = board_name(std::get<0>(info.param)) + "_" +
                         std::get<1>(info.param) + "_" +
                         std::get<2>(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Half of a 4x4 board's cores carry work, at the grid's per-core load, so
// the board keeps idle slots: packed leaves domains 2 and 3 without work,
// spread loads two cores of every domain and rect tiles the loaded slots by
// load. Unlike the full-board grid, the three placements run apart. Digests
// committed with the engine's own epoch loop, before the one shared loop.
constexpr Pin kHalfLoadPins[] = {
    {"4x4", "packed", "ondemand", 0x37fd7ab94786b557ULL},
    {"4x4", "packed", "rtm-manycore", 0x1b64f25cd8130b53ULL},
    {"4x4", "packed", "oracle", 0xc2288fac38e520afULL},
    {"4x4", "spread", "ondemand", 0x94fcfcc1857a0e34ULL},
    {"4x4", "spread", "rtm-manycore", 0xed7bc45d305cd40dULL},
    {"4x4", "spread", "oracle", 0xda0c7fee20b9547eULL},
    {"4x4", "rect", "ondemand", 0x332a1ed6da014002ULL},
    {"4x4", "rect", "rtm-manycore", 0x9376329dcbc73c92ULL},
    {"4x4", "rect", "oracle", 0xb965836a00c90eaaULL},
};

TEST(MultiDomainPinHalfLoad, IdleSlotsArePinned) {
  for (const Pin& pin : kHalfLoadPins) {
    const std::string where =
        std::string("board 4x4, 8 threads, placement ") + pin.placement +
        ", governor " + pin.governor;
    const PinnedRun got = run_digest_of(Board{4, 4}, pin.placement,
                                        pin.governor, 200, 8, 0.225);
    EXPECT_EQ(got.digest, pin.digest)
        << where << ": digest " << hex(got.digest);
    if (std::string(pin.governor) == "ondemand") {
      EXPECT_LT(got.miss_rate, 0.10) << where;
    }
  }
}

// The long run goes through the prefetch helper wherever the host has a
// second hardware thread; its digest is the same either way.
TEST(MultiDomainPinLong, HelperRunIsPinned) {
  const std::size_t before = BlockPrefetcher::threaded_runs();
  const PinnedRun got =
      run_digest_of(Board{4, 4}, "rect", "rtm-manycore", kLongFrames);
  EXPECT_EQ(got.digest, kLongPin)
      << "board 4x4, placement rect, governor rtm-manycore, " << kLongFrames
      << " frames: digest " << hex(got.digest);
  EXPECT_EQ(BlockPrefetcher::threaded_runs() - before,
            std::thread::hardware_concurrency() >= 2 ? 1u : 0u);
}

}  // namespace
}  // namespace prime::sim
