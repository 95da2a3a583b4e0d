/// \file test_rtm_digest.cpp
/// \brief Bit-identity pins of the rtm governor family: per governor and
///        board, FNV-1a digests of the per-epoch OPP sequence and of the
///        final save_state bytes of a fixed-seed 4096-frame run. Any change
///        to the decision loop (eqs. 1-6), the Q-table or the state layout
///        that moves a single bit fails here, naming the governor and board.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>

#include "common/config.hpp"
#include "common/hash.hpp"
#include "hw/platform.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/telemetry.hpp"

namespace prime::sim {
namespace {

constexpr std::size_t kFrames = 4096;

struct Pin {
  const char* governor;
  std::size_t clusters;
  std::uint64_t opps;   ///< FNV-1a over each epoch's opp_index.
  std::uint64_t state;  ///< FNV-1a over the final save_state bytes.
};

// Committed digests; they must not move when the rtm hot path is reworked.
constexpr Pin kPins[] = {
    {"rtm", 1, 0xd76135309686ff81ULL, 0x4d223457c98e238dULL},
    {"rtm", 2, 0x46d373bfb5f8845fULL, 0xf1b3dc576b97750cULL},
    {"rtm-upd", 1, 0x4ab8cf8c8b386fa4ULL, 0x6ab451594bae9538ULL},
    {"rtm-upd", 2, 0x8e327ab62ce2c896ULL, 0x1667b743fa99f1d7ULL},
    {"rtm-manycore", 1, 0xc456af3ab009663eULL, 0x00dff57475f33838ULL},
    {"rtm-manycore", 2, 0x7a227d3809508b31ULL, 0x0e6626b6dbb463bbULL},
    {"rtm-manycore-normalized", 1, 0xd2070b41d26a143bULL,
     0xb5e18568914a7426ULL},
    {"rtm-manycore-normalized", 2, 0xf259d2a64cba4fc0ULL,
     0x86f02a12833b7b0dULL},
};

const Pin& pin_for(const std::string& governor, std::size_t clusters) {
  for (const Pin& p : kPins) {
    if (governor == p.governor && clusters == p.clusters) return p;
  }
  throw std::logic_error("no pin for " + governor);
}

class RtmDigest
    : public testing::TestWithParam<std::tuple<std::string, std::size_t>> {};

TEST_P(RtmDigest, OppSequenceAndStateBytesArePinned) {
  const auto [governor_name, clusters] = GetParam();
  const std::string board_name = std::to_string(clusters) + "x4";
  SCOPED_TRACE("governor " + governor_name + " on a " + board_name + " board");

  common::Config cfg;
  cfg.set_int("hw.clusters", static_cast<long long>(clusters));
  cfg.set_int("hw.cores", 4);
  cfg.set_int("hw.sensor_seed", 29);
  const auto board = hw::Platform::from_config(cfg);
  ExperimentSpec spec;
  spec.workload = "h264";
  spec.fps = 30.0;
  spec.frames = kFrames;
  spec.seed = 17;
  const wl::Application app = make_application(spec, *board);
  const auto governor = make_governor(governor_name, 0x5EED);

  common::Fnv1a64 opps;
  CallbackSink record([&](const EpochRecord& rec, gov::Governor&) {
    opps.u64(rec.opp_index);
  });
  RunOptions options;
  options.sinks = {&record};
  const RunResult run = run_simulation(*board, app, *governor, options);
  ASSERT_EQ(run.epoch_count, kFrames);

  std::ostringstream state(std::ios::binary);
  governor->save_state(state);
  common::Fnv1a64 bytes;
  const std::string payload = state.str();
  bytes.bytes(payload.data(), payload.size());

  const Pin& pin = pin_for(governor_name, clusters);
  EXPECT_EQ(opps.value(), pin.opps)
      << std::hex << "opp sequence digest 0x" << opps.value();
  EXPECT_EQ(bytes.value(), pin.state)
      << std::hex << "save_state digest 0x" << bytes.value() << std::dec
      << " over " << payload.size() << " bytes";
}

INSTANTIATE_TEST_SUITE_P(
    Family, RtmDigest,
    testing::Combine(testing::Values(std::string("rtm"),
                                     std::string("rtm-upd"),
                                     std::string("rtm-manycore"),
                                     std::string("rtm-manycore-normalized")),
                     testing::Values(std::size_t{1}, std::size_t{2})),
    [](const testing::TestParamInfo<RtmDigest::ParamType>& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_" + std::to_string(std::get<1>(info.param)) + "x4";
    });

}  // namespace
}  // namespace prime::sim
