/// \file test_dashboard.cpp
/// \brief Tests for the live dashboard telemetry sink: the mid-run and final
///        snapshot differentials against the aggregate sink, the epoch tail,
///        multi-domain OPP residency, the /window scroll-back endpoint, the
///        registry entry and the builder's port-collision validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/http.hpp"
#include "gov/simple.hpp"
#include "hw/platform.hpp"
#include "sim/bintrace.hpp"
#include "sim/builder.hpp"
#include "sim/dashboard.hpp"
#include "sim/experiment.hpp"
#include "sim/telemetry.hpp"
#include "wl/fft.hpp"

namespace prime::sim {
namespace {

wl::Application make_app(std::size_t frames, double fps = 30.0) {
  wl::WorkloadTrace trace =
      wl::FftTraceGenerator::paper_fft().generate(frames, 1);
  trace = trace.scaled_to_mean(0.45 * 4.0 * 2.0e9 / fps);
  return wl::Application("fft", std::move(trace), fps);
}

std::unique_ptr<hw::Platform> make_board(std::size_t clusters) {
  common::Config cfg;
  cfg.set_int("hw.clusters", static_cast<long long>(clusters));
  return hw::Platform::from_config(cfg);
}

std::string get_body(const DashboardSink& dash, const std::string& target) {
  const common::HttpResult result =
      common::http_get("127.0.0.1", dash.bound_port(), target);
  EXPECT_EQ(result.status, 200) << target << ": " << result.body;
  return result.body;
}

// --- The differential: dashboard snapshots vs the aggregate sink -------------

TEST(Dashboard, MidRunSnapshotMatchesAggregateSinkForEveryGovernor) {
  // The acceptance differential: for every registered governor, a snapshot
  // taken over HTTP mid-run carries byte-for-byte the aggregates an
  // AggregateSink holds at that instant — both fold through
  // RunResult::accumulate, and the JSON encoder is shared.
  for (const std::string& name : governor_names()) {
    auto platform = hw::Platform::odroid_xu3_a15();
    const wl::Application app = make_app(120);
    const auto governor = make_governor(name, 42);

    AggregateSink agg;
    DashboardSink dash(0, /*every=*/1, /*tail_n=*/8);
    std::size_t checked = 0;
    CallbackSink probe([&](const EpochRecord& record, gov::Governor&) {
      if (record.epoch != 60) return;
      const std::string body = get_body(dash, "/snapshot");
      const std::string want =
          "\"aggregates\":" + snapshot_aggregates_json(agg.result());
      EXPECT_NE(body.find(want), std::string::npos) << name << ":\n" << body;
      EXPECT_NE(body.find("\"state\":\"running\""), std::string::npos);
      ++checked;
    });
    RunOptions opt;
    // Order matters: the probe runs after both sinks saw the same epoch.
    opt.sinks = {&agg, &dash, &probe};
    const RunResult run = run_simulation(*platform, app, *governor, opt);

    ASSERT_EQ(checked, 1u) << name;
    // And the final snapshot equals the sealed result of the run itself.
    const std::string final_body = get_body(dash, "/snapshot");
    EXPECT_NE(
        final_body.find("\"aggregates\":" + snapshot_aggregates_json(run)),
        std::string::npos)
        << name;
    EXPECT_NE(final_body.find("\"state\":\"finished\""), std::string::npos);
  }
}

TEST(Dashboard, SnapshotCarriesRunIdentity) {
  auto platform = hw::Platform::odroid_xu3_a15();
  DashboardSink dash(0, 1);
  gov::PerformanceGovernor g;
  RunOptions opt;
  opt.sinks = {&dash};
  (void)run_simulation(*platform, make_app(50), g, opt);

  const std::string body = get_body(dash, "/snapshot");
  EXPECT_NE(body.find("\"governor\":\"performance\""), std::string::npos);
  EXPECT_NE(body.find("\"application\":\"fft\""), std::string::npos);
  EXPECT_NE(body.find("\"planned_frames\":50"), std::string::npos);
  EXPECT_NE(body.find("\"runs_completed\":1"), std::string::npos);
}

// --- The epoch tail ----------------------------------------------------------

TEST(Dashboard, TailHoldsTheLastRecordsBitForBit) {
  auto platform = hw::Platform::odroid_xu3_a15();
  TraceSink trace;
  DashboardSink dash(0, 1, /*tail_n=*/16);
  gov::PerformanceGovernor g;
  RunOptions opt;
  opt.sinks = {&trace, &dash};
  (void)run_simulation(*platform, make_app(100), g, opt);

  const std::string body = get_body(dash, "/snapshot");
  // The ring kept exactly the last 16 epochs; each serialises identically to
  // the trace sink's copy of the same record (shared encoder, shared bits).
  ASSERT_EQ(trace.records().size(), 100u);
  for (std::size_t i = 84; i < 100; ++i) {
    EXPECT_NE(body.find(epoch_record_json(trace.records()[i])),
              std::string::npos)
        << "epoch " << i;
  }
  // The evicted prefix is gone.
  EXPECT_EQ(body.find(epoch_record_json(trace.records()[83])),
            std::string::npos);
}

// --- OPP residency -----------------------------------------------------------

/// Extract the "opp_residency" array text from a snapshot body.
std::string residency_of(const std::string& body) {
  const auto begin = body.find("\"opp_residency\":");
  const auto end = body.find(",\"tail\"");
  EXPECT_NE(begin, std::string::npos);
  EXPECT_NE(end, std::string::npos);
  return body.substr(begin, end - begin);
}

/// Sum every integer in \p text (the residency rows are plain u64 arrays).
std::uint64_t sum_numbers(const std::string& text) {
  std::uint64_t sum = 0;
  std::size_t i = 0;
  while (i < text.size()) {
    if (std::isdigit(static_cast<unsigned char>(text[i]))) {
      std::uint64_t v = 0;
      while (i < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[i]))) {
        v = v * 10 + static_cast<std::uint64_t>(text[i] - '0');
        ++i;
      }
      sum += v;
    } else {
      ++i;
    }
  }
  return sum;
}

TEST(Dashboard, ResidencyHasOneRowPerDomainSummingToEpochs) {
  for (const std::size_t clusters : {std::size_t{1}, std::size_t{2}}) {
    auto board = make_board(clusters);
    DashboardSink dash(0, 1);
    gov::PerformanceGovernor g;
    RunOptions opt;
    opt.sinks = {&dash};
    (void)run_simulation(*board, make_app(80), g, opt);

    const std::string rows = residency_of(get_body(dash, "/snapshot"));
    // Row separator appears exactly (domains - 1) times.
    std::size_t seps = 0;
    for (std::size_t p = rows.find("],["); p != std::string::npos;
         p = rows.find("],[", p + 1)) {
      ++seps;
    }
    EXPECT_EQ(seps, clusters - 1) << rows;
    // Every epoch lands in exactly one OPP bin per domain.
    EXPECT_EQ(sum_numbers(rows), 80u * clusters) << rows;
  }
}

// --- /window scroll-back -----------------------------------------------------

TEST(Dashboard, WindowServesRecordsBitIdenticalToTheReader) {
  const std::string path = testing::TempDir() + "dash-window.bt";
  auto platform = hw::Platform::odroid_xu3_a15();
  BinTraceSink bt(path);
  DashboardSink dash(0, 1);
  gov::PerformanceGovernor g;
  RunOptions opt;
  opt.sinks = {&bt, &dash};  // engine points /window at the bintrace path
  (void)run_simulation(*platform, make_app(40), g, opt);

  const std::string body = get_body(dash, "/window?from=10&count=3");
  EXPECT_NE(body.find("\"record_count\":40"), std::string::npos) << body;
  EXPECT_NE(body.find("\"sealed\":true"), std::string::npos);
  EXPECT_NE(body.find("\"from\":10"), std::string::npos);
  BinTraceReader reader(path);
  for (const std::size_t i : {10u, 11u, 12u}) {
    EXPECT_NE(body.find(epoch_record_json(reader.at(i))), std::string::npos)
        << "record " << i;
  }
  EXPECT_EQ(body.find(epoch_record_json(reader.at(13))), std::string::npos);

  // A window starting past the end clamps to empty, not an error.
  const std::string past = get_body(dash, "/window?from=100000&count=5");
  EXPECT_NE(past.find("\"records\":[]"), std::string::npos) << past;

  // Malformed parameters are the client's fault.
  const common::HttpResult bad = common::http_get(
      "127.0.0.1", dash.bound_port(), "/window?from=abc");
  EXPECT_EQ(bad.status, 400);
}

TEST(Dashboard, WindowWithoutATraceIs404) {
  auto platform = hw::Platform::odroid_xu3_a15();
  DashboardSink dash(0, 1);
  gov::PerformanceGovernor g;
  RunOptions opt;
  opt.sinks = {&dash};
  (void)run_simulation(*platform, make_app(30), g, opt);
  const common::HttpResult result =
      common::http_get("127.0.0.1", dash.bound_port(), "/window");
  EXPECT_EQ(result.status, 404);
}

TEST(Dashboard, UnknownPathIs404) {
  auto platform = hw::Platform::odroid_xu3_a15();
  DashboardSink dash(0, 1);
  gov::PerformanceGovernor g;
  RunOptions opt;
  opt.sinks = {&dash};
  (void)run_simulation(*platform, make_app(30), g, opt);
  EXPECT_EQ(
      common::http_get("127.0.0.1", dash.bound_port(), "/nonsense").status,
      404);
}

// The count a lingering process polls to see whether a client came by
// (longrun_smoke's dashboard-linger-ms): zero before the server starts, then
// one per completed request, whatever its status.
TEST(Dashboard, RequestsServedCountsCompletedRequests) {
  auto platform = hw::Platform::odroid_xu3_a15();
  DashboardSink dash(0, 1);
  EXPECT_EQ(dash.requests_served(), 0u);
  gov::PerformanceGovernor g;
  RunOptions opt;
  opt.sinks = {&dash};
  (void)run_simulation(*platform, make_app(30), g, opt);
  EXPECT_EQ(dash.requests_served(), 0u);
  (void)common::http_get("127.0.0.1", dash.bound_port(), "/nonsense");
  (void)common::http_get("127.0.0.1", dash.bound_port(), "/snapshot");
  EXPECT_EQ(dash.requests_served(), 2u);
}

// --- /events -----------------------------------------------------------------

TEST(Dashboard, EventsStreamOpensWithTheCurrentSnapshot) {
  auto platform = hw::Platform::odroid_xu3_a15();
  DashboardSink dash(0, 1);
  gov::PerformanceGovernor g;
  RunOptions opt;
  opt.sinks = {&dash};
  const RunResult run = run_simulation(*platform, make_app(60), g, opt);

  std::string first;
  const int status = common::http_get_stream(
      "127.0.0.1", dash.bound_port(), "/events",
      [&](const std::string& line) {
        if (line.rfind("data: ", 0) != 0) return true;
        first = line.substr(6);
        return false;  // one event is enough, hang up
      });
  EXPECT_EQ(status, 200);
  EXPECT_NE(first.find("\"aggregates\":" + snapshot_aggregates_json(run)),
            std::string::npos);
}

TEST(Dashboard, IdleEventsStreamEmitsKeepAliveHeartbeats) {
  // Once a run finishes the snapshot version stops changing; the stream
  // must still emit SSE comment heartbeats so a dead peer fails the next
  // send and its connection thread exits instead of spinning forever.
  auto platform = hw::Platform::odroid_xu3_a15();
  DashboardSink dash(0, 1);
  gov::PerformanceGovernor g;
  RunOptions opt;
  opt.sinks = {&dash};
  (void)run_simulation(*platform, make_app(30), g, opt);

  bool got_heartbeat = false;
  const int status = common::http_get_stream(
      "127.0.0.1", dash.bound_port(), "/events",
      [&](const std::string& line) {
        if (line.rfind(':', 0) == 0) {
          got_heartbeat = true;
          return false;
        }
        return true;  // skip the opening snapshot and blank separators
      });
  EXPECT_EQ(status, 200);
  EXPECT_TRUE(got_heartbeat);
}

// --- Registry and lazy-open contract -----------------------------------------

TEST(Dashboard, RegistrySpecDiagnostics) {
  const auto names = sink_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "dashboard"), names.end());

  auto sink = make_sink("dashboard(port=0,every=50,tail=8)");
  auto* dash = dynamic_cast<DashboardSink*>(sink.get());
  ASSERT_NE(dash, nullptr);
  // Lazy-open: constructing the sink must not bind a socket yet.
  EXPECT_EQ(dash->bound_port(), 0);

  // A port is mandatory, and must be a real port number.
  EXPECT_THROW((void)make_sink("dashboard"), std::invalid_argument);
  EXPECT_THROW((void)make_sink("dashboard(port=99999)"),
               std::invalid_argument);
  EXPECT_THROW((void)make_sink("dashboard(port=0,evry=5)"),
               common::UnknownKeyError);
}

// --- Builder integration -----------------------------------------------------

TEST(Dashboard, BuilderRejectsASharedPortAcrossConcurrentRuns) {
  ExperimentBuilder shared;
  shared.workload("fft").frames(20)
      .governors({"performance", "powersave"})
      .oracle_baseline(false)
      .dashboard("18080");
  try {
    (void)shared.run();
    FAIL() << "expected the port collision to be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("18080"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("{cell}"), std::string::npos);
  }
}

TEST(Dashboard, BuilderEphemeralPortsNeverCollide) {
  // port=0 binds a fresh ephemeral port per run, so "0" may repeat.
  ExperimentBuilder b;
  const SweepResult sweep = b.workload("fft").frames(20)
      .governors({"performance", "powersave"})
      .oracle_baseline(false)
      .dashboard("0")
      .run();
  ASSERT_EQ(sweep.results.size(), 2u);
  for (const auto& r : sweep.results) {
    auto* dash = r.sink<DashboardSink>();
    ASSERT_NE(dash, nullptr);
    EXPECT_NE(dash->bound_port(), 0);  // server up, run finished, sealed view
    const std::string body = get_body(*dash, "/snapshot");
    EXPECT_NE(
        body.find("\"aggregates\":" + snapshot_aggregates_json(r.run)),
        std::string::npos);
  }
}

TEST(Dashboard, BuilderCellPlaceholderKeysPortsPerCell) {
  // One governor across two (workload, fps) cells: "1917{cell}" expands to
  // distinct ports 19170 and 19171, passing validation and binding both.
  ExperimentBuilder b;
  const SweepResult sweep = b.workload("fft").frames(20)
      .governor("performance")
      .fps_set({25.0, 30.0})
      .oracle_baseline(false)
      .dashboard("1917{cell}")
      .run();
  ASSERT_EQ(sweep.results.size(), 2u);
  std::vector<std::uint16_t> ports;
  for (const auto& r : sweep.results) {
    auto* dash = r.sink<DashboardSink>();
    ASSERT_NE(dash, nullptr);
    ports.push_back(dash->bound_port());
  }
  std::sort(ports.begin(), ports.end());
  EXPECT_EQ(ports, (std::vector<std::uint16_t>{19170, 19171}));
}

}  // namespace
}  // namespace prime::sim
