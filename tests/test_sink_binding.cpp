/// \file test_sink_binding.cpp
/// \brief How run_simulation lends the live run to its sinks: a grid over
///        sink kind x sample wrapping x board shape pinning each sink's
///        outcome, the unbind-on-throw contract, and the lifecycle of the
///        `.bt` path the dashboard's /window endpoint serves.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>

#include "common/config.hpp"
#include "common/http.hpp"
#include "hw/platform.hpp"
#include "qlib/policy.hpp"
#include "qlib/sink.hpp"
#include "sim/checkpoint.hpp"
#include "sim/dashboard.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/telemetry.hpp"

namespace prime::sim {
namespace {

constexpr std::size_t kFrames = 60;

std::unique_ptr<hw::Platform> make_board(std::size_t clusters) {
  common::Config cfg;
  cfg.set_int("hw.clusters", static_cast<long long>(clusters));
  cfg.set_int("hw.cores", 4);
  return hw::Platform::from_config(cfg);
}

wl::Application make_app(const hw::Platform& platform,
                         std::size_t frames = kFrames) {
  ExperimentSpec spec;
  spec.workload = "h264";
  spec.fps = 30.0;
  spec.frames = frames;
  spec.seed = 7;
  return make_application(spec, platform);
}

std::string fresh_path(const std::string& name) {
  const std::string path = testing::TempDir() + "sink-binding-" + name;
  std::filesystem::remove_all(path);
  return path;
}

/// Rows of the snapshot's opp_residency array: one per domain observed.
std::size_t residency_rows(const std::string& snapshot) {
  const std::string open = "\"opp_residency\":[";
  const std::size_t begin = snapshot.find(open);
  const std::size_t end = snapshot.find("],\"tail\"");
  if (begin == std::string::npos || end == std::string::npos) return 0;
  std::size_t rows = 0;
  for (std::size_t i = begin + open.size(); i < end; ++i) {
    if (snapshot[i] == '[') ++rows;
  }
  return rows;
}

/// The message of the std::invalid_argument \p run throws ("" when it throws
/// nothing; any other exception propagates and fails the test).
std::string invalid_argument_of(const std::function<void()>& run) {
  try {
    run();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

// --- The grid: sink x wrap x board -------------------------------------------

enum class Kind { kCheckpoint, kQlib, kDashboard };
enum class Wrap { kBare, kSample };

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kCheckpoint: return "checkpoint";
    case Kind::kQlib: return "qlib";
    case Kind::kDashboard: return "dashboard";
  }
  return "?";
}

const char* wrap_name(Wrap w) { return w == Wrap::kBare ? "bare" : "sample"; }

class SinkBindingGrid
    : public testing::TestWithParam<std::tuple<Kind, Wrap, std::size_t>> {};

TEST_P(SinkBindingGrid, EachSinkSeesTheLiveRun) {
  const auto [kind, wrap, clusters] = GetParam();
  const std::string cell = std::string(kind_name(kind)) + "-" +
                           wrap_name(wrap) + "-" + std::to_string(clusters);
  std::string inner;
  std::string target;  // the checkpoint file or the library directory
  switch (kind) {
    case Kind::kCheckpoint:
      target = fresh_path(cell + ".ckpt");
      inner = "checkpoint(path=" + target + ")";
      break;
    case Kind::kQlib:
      target = fresh_path(cell + "-qlib");
      inner = "qlib(dir=" + target + ")";
      break;
    case Kind::kDashboard:
      inner = "dashboard(port=0,every=1)";
      break;
  }
  const std::string spec =
      wrap == Wrap::kBare ? inner : "sample(every=1,inner=" + inner + ")";
  const std::string board_name = std::to_string(clusters) + "x4";
  SCOPED_TRACE("sink " + spec + " on a " + board_name + " board");

  auto board = make_board(clusters);
  const wl::Application app = make_app(*board);
  const auto governor = make_governor("rtm", 11);
  const std::unique_ptr<TelemetrySink> sink = make_sink(spec);
  TelemetrySink* bare = sink.get();
  if (wrap == Wrap::kSample) bare = &dynamic_cast<SampleSink&>(*sink).inner();
  RunOptions opt;
  opt.sinks = {sink.get()};

  if (kind == Kind::kCheckpoint && clusters > 1) {
    const std::string message = invalid_argument_of(
        [&] { (void)run_simulation(*board, app, *governor, opt); });
    EXPECT_NE(message.find(std::to_string(clusters) + " DVFS domains"),
              std::string::npos)
        << "message: '" << message << "'";
    return;
  }
  const RunResult run = run_simulation(*board, app, *governor, opt);
  ASSERT_EQ(run.epoch_count, kFrames);

  switch (kind) {
    case Kind::kCheckpoint: {
      const Checkpoint ck = Checkpoint::load_file(target);
      EXPECT_EQ(ck.frame_position, kFrames);
      EXPECT_EQ(ck.aggregates.epoch_count, kFrames);
      EXPECT_EQ(dynamic_cast<CheckpointSink&>(*bare).snapshots_written(), 1u);
      break;
    }
    case Kind::kQlib: {
      const auto& ql = dynamic_cast<qlib::QlibSink&>(*bare);
      EXPECT_EQ(ql.published(), 1u);
      ASSERT_FALSE(ql.last_path().empty());
      const qlib::PolicyEntry entry =
          qlib::PolicyEntry::load_file(ql.last_path());
      EXPECT_EQ(entry.provenance.epochs_trained, kFrames);
      break;
    }
    case Kind::kDashboard: {
      const std::string snapshot =
          dynamic_cast<DashboardSink&>(*bare).snapshot_json();
      EXPECT_EQ(residency_rows(snapshot), clusters) << snapshot;
      break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cells, SinkBindingGrid,
    testing::Combine(testing::Values(Kind::kCheckpoint, Kind::kQlib,
                                     Kind::kDashboard),
                     testing::Values(Wrap::kBare, Wrap::kSample),
                     testing::Values(std::size_t{1}, std::size_t{2})),
    [](const testing::TestParamInfo<SinkBindingGrid::ParamType>& info) {
      return std::string(kind_name(std::get<0>(info.param))) + "_" +
             wrap_name(std::get<1>(info.param)) + "_" +
             std::to_string(std::get<2>(info.param)) + "x4";
    });

// --- Unbinding ---------------------------------------------------------------

TEST(SinkBinding, ThrowWhileBindingLeavesNoSinkBound) {
  // The checkpoint sink rejects the 2x4 board only after the qlib and
  // dashboard sinks ahead of it are bound; the throw must unbind them too.
  auto board = make_board(2);
  const wl::Application app = make_app(*board);
  const auto governor = make_governor("rtm", 11);
  qlib::QlibSink ql(fresh_path("throw-qlib"));
  DashboardSink dash(0, 1);
  CheckpointSink ck(fresh_path("throw.ckpt"));
  RunOptions opt;
  opt.sinks = {&ql, &dash, &ck};
  EXPECT_THROW((void)run_simulation(*board, app, *governor, opt),
               std::invalid_argument);

  const RunContext ctx;
  EXPECT_THROW(ql.on_run_begin(ctx), std::logic_error);
  // Unbound, the dashboard counts residency from each record's opp_index:
  // one row, not one per domain of the board it was bound to.
  dash.on_run_begin(ctx);
  dash.on_epoch(EpochRecord{}, *governor);
  EXPECT_EQ(residency_rows(dash.snapshot_json()), 1u) << dash.snapshot_json();
}

// --- /window: which .bt the dashboard serves ---------------------------------

common::HttpResult window_of(const DashboardSink& dash) {
  return common::http_get("127.0.0.1", dash.bound_port(),
                          "/window?from=0&count=1");
}

std::string record_count(std::size_t n) {
  return "\"record_count\":" + std::to_string(n);
}

TEST(SinkBinding, SampleWrappedBintraceIsFound) {
  auto board = make_board(1);
  const std::string bt = fresh_path("wrapped.bt");
  const auto sampled = make_sink("sample(every=1,inner=bintrace(path=" + bt +
                                 "))");
  DashboardSink dash(0, 1);
  const auto governor = make_governor("ondemand", 1);
  RunOptions opt;
  opt.sinks = {sampled.get(), &dash};
  (void)run_simulation(*board, make_app(*board), *governor, opt);

  const common::HttpResult window = window_of(dash);
  EXPECT_EQ(window.status, 200) << window.body;
  EXPECT_NE(window.body.find(record_count(kFrames)), std::string::npos)
      << window.body;
}

TEST(SinkBinding, FirstBintraceSinkWins) {
  // The two traces differ in length (every record vs every 4th), so the
  // served record count names the trace behind /window.
  for (const bool full_first : {true, false}) {
    SCOPED_TRACE(full_first ? "full trace first" : "sampled trace first");
    auto board = make_board(1);
    const auto full = make_sink("bintrace(path=" + fresh_path("full.bt") + ")");
    const auto quarter = make_sink("sample(every=4,inner=bintrace(path=" +
                                   fresh_path("quarter.bt") + "))");
    DashboardSink dash(0, 1);
    const auto governor = make_governor("ondemand", 1);
    RunOptions opt;
    opt.sinks = full_first
                    ? std::vector<TelemetrySink*>{full.get(), quarter.get(),
                                                  &dash}
                    : std::vector<TelemetrySink*>{quarter.get(), full.get(),
                                                  &dash};
    (void)run_simulation(*board, make_app(*board), *governor, opt);

    const common::HttpResult window = window_of(dash);
    EXPECT_EQ(window.status, 200) << window.body;
    EXPECT_NE(window.body.find(record_count(full_first ? kFrames
                                                       : kFrames / 4)),
              std::string::npos)
        << window.body;
  }
}

TEST(SinkBinding, DashboardReusedWithoutBintraceAnswers404) {
  auto board = make_board(1);
  const auto governor = make_governor("ondemand", 1);
  DashboardSink dash(0, 1);
  {
    const auto bt = make_sink("bintrace(path=" + fresh_path("reuse.bt") + ")");
    RunOptions opt;
    opt.sinks = {bt.get(), &dash};
    (void)run_simulation(*board, make_app(*board), *governor, opt);
  }
  ASSERT_EQ(window_of(dash).status, 200);

  RunOptions opt;
  opt.sinks = {&dash};
  (void)run_simulation(*board, make_app(*board), *governor, opt);
  EXPECT_EQ(window_of(dash).status, 404);
}

TEST(SinkBinding, SpecBtKeyOverridesTheBoundPath) {
  auto board = make_board(1);
  const auto governor = make_governor("ondemand", 1);
  const std::string pinned = fresh_path("pinned.bt");
  {
    // A shorter, already sealed trace for the bt= key to point at.
    const auto bt = make_sink("bintrace(path=" + pinned + ")");
    RunOptions opt;
    opt.sinks = {bt.get()};
    (void)run_simulation(*board, make_app(*board, kFrames / 2), *governor,
                         opt);
  }
  const auto bt = make_sink("bintrace(path=" + fresh_path("live.bt") + ")");
  const auto dash = make_sink("dashboard(port=0,every=1,bt=" + pinned + ")");
  RunOptions opt;
  opt.sinks = {bt.get(), dash.get()};
  (void)run_simulation(*board, make_app(*board), *governor, opt);

  const common::HttpResult window =
      window_of(dynamic_cast<DashboardSink&>(*dash));
  EXPECT_EQ(window.status, 200) << window.body;
  EXPECT_NE(window.body.find(record_count(kFrames / 2)), std::string::npos)
      << window.body;
}

}  // namespace
}  // namespace prime::sim
