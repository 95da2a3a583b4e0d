/// \file test_multiapp.cpp
/// \brief Tests for concurrent multi-application execution (future work).
#include <gtest/gtest.h>

#include <string>

#include "common/config.hpp"
#include "sim/block_prefetch.hpp"
#include "sim/experiment.hpp"
#include "sim/multiapp.hpp"
#include "sim/telemetry.hpp"
#include "wl/trace.hpp"
#include "run_digest.hpp"

namespace prime::sim {
namespace {

wl::Application make_app(const char* workload, double fps, std::size_t frames,
                         std::uint64_t seed, const hw::Platform& platform,
                         double utilisation = 0.20) {
  ExperimentSpec spec;
  spec.workload = workload;
  spec.fps = fps;
  spec.frames = frames;
  spec.seed = seed;
  spec.threads = 2;  // each app gets a 2-core partition
  spec.target_utilisation = utilisation;
  return make_application(spec, platform);
}

/// One traced application stream of a multi-app run.
struct TracedApp {
  RunResult result;
  std::vector<EpochRecord> records;
};

/// Two rtm-governed apps (mpeg4 on \p cores_a, fft on \p cores_b) for
/// \p frames frames on \p platform, each app's epochs traced. \p apps
/// receives the two applications, so a test can ask them for their own
/// frames.
std::vector<TracedApp> run_pinned_pair(hw::Platform& platform,
                                       std::vector<std::size_t> cores_a,
                                       std::vector<std::size_t> cores_b,
                                       std::vector<wl::Application>& apps,
                                       std::size_t frames = 200) {
  apps = {make_app("mpeg4", 25.0, frames, 1, platform),
          make_app("fft", 25.0, frames, 2, platform)};
  std::vector<std::unique_ptr<gov::Governor>> governors;
  governors.push_back(make_governor("rtm", 11));
  governors.push_back(make_governor("rtm", 22));
  const std::vector<AppPlacement> placements = {{&apps[0], std::move(cores_a)},
                                                {&apps[1], std::move(cores_b)}};
  TraceSink trace_a;
  TraceSink trace_b;
  MultiAppOptions options;
  options.app_sinks = {{&trace_a}, {&trace_b}};
  const MultiAppResult r =
      run_multi_simulation(platform, placements, governors, options);
  return {{r.per_app[0], trace_a.records()}, {r.per_app[1], trace_b.records()}};
}

/// run_pinned_pair(), reduced to each app's result-and-records digest.
std::vector<std::uint64_t> pinned_run_digests(
    hw::Platform& platform, std::vector<std::size_t> cores_a,
    std::vector<std::size_t> cores_b, std::size_t frames = 200) {
  std::vector<wl::Application> apps;
  std::vector<std::uint64_t> digests;
  for (const TracedApp& t : run_pinned_pair(platform, std::move(cores_a),
                                            std::move(cores_b), apps,
                                            frames)) {
    digests.push_back(testing_util::run_digest(t.result, t.records));
  }
  return digests;
}

/// A board of the pinned runs, with the core set of each of its two apps.
struct PinnedBoard {
  std::unique_ptr<hw::Platform> platform;
  std::vector<std::size_t> cores_a;
  std::vector<std::size_t> cores_b;
};

/// The one-domain 1x4 board and the two-domain 2x2 board.
std::vector<PinnedBoard> pinned_boards() {
  common::Config cfg;
  cfg.set_int("hw.clusters", 2);
  cfg.set_int("hw.cores", 2);
  std::vector<PinnedBoard> boards;
  boards.push_back({hw::Platform::odroid_xu3_a15(), {0, 1}, {2, 3}});
  boards.push_back({hw::Platform::from_config(cfg), {0, 2}, {1, 3}});
  return boards;
}

// Pins every per-app result and record bit of one run per board shape, so a
// change to the multi-app epoch loop cannot move them unnoticed.
TEST(MultiApp, PinnedResultsOnOneAndTwoDomainBoards) {
  std::vector<PinnedBoard> boards = pinned_boards();
  EXPECT_EQ(pinned_run_digests(*boards[0].platform, boards[0].cores_a,
                               boards[0].cores_b),
            (std::vector<std::uint64_t>{0x2baac7aa21b3319cULL,
                                        0x0f37034de1f127ecULL}));
  ASSERT_EQ(boards[1].platform->domain_count(), 2u);
  EXPECT_EQ(pinned_run_digests(*boards[1].platform, boards[1].cores_a,
                               boards[1].cores_b),
            (std::vector<std::uint64_t>{0x60e6062bead2c2c3ULL,
                                        0xbdab107920cb11adULL}));
}

// The same pair for 1200 frames: past kMinPrefetchFrames, where a
// single-app run would start the prefetch helper. Multi-app runs fill every
// block on the engine thread.
TEST(MultiAppLong, PinnedResultsOnOneAndTwoDomainBoards) {
  constexpr std::size_t kLongFrames = 1200;
  static_assert(kLongFrames >= kMinPrefetchFrames);
  std::vector<PinnedBoard> boards = pinned_boards();
  const std::size_t before = BlockPrefetcher::threaded_runs();
  EXPECT_EQ(pinned_run_digests(*boards[0].platform, boards[0].cores_a,
                               boards[0].cores_b, kLongFrames),
            (std::vector<std::uint64_t>{0xc7313c6dab015522ULL,
                                        0x8848a190c55661fdULL}));
  EXPECT_EQ(pinned_run_digests(*boards[1].platform, boards[1].cores_a,
                               boards[1].cores_b, kLongFrames),
            (std::vector<std::uint64_t>{0xd9ebbd7a47820564ULL,
                                        0x34057be21017c7ceULL}));
  EXPECT_EQ(BlockPrefetcher::threaded_runs() - before, 0u);
}

// EpochRecord::demand is the application's demand, excluding overhead, as
// the single-app engine records it: the sum of the app's own work row. The
// executed cycles differ from it by memory scaling and, for the first app,
// by every governor's T_OVH.
TEST(MultiApp, DemandIsTheSumOfTheAppsWorkRow) {
  for (PinnedBoard& board : pinned_boards()) {
    SCOPED_TRACE(std::to_string(board.platform->domain_count()) +
                 "-domain board");
    std::vector<wl::Application> apps;
    const std::vector<TracedApp> runs = run_pinned_pair(
        *board.platform, board.cores_a, board.cores_b, apps);
    for (std::size_t a = 0; a < runs.size(); ++a) {
      ASSERT_EQ(runs[a].records.size(), 200u);
      for (const EpochRecord& rec : runs[a].records) {
        const std::vector<common::Cycles> row = apps[a].core_work(rec.epoch, 2);
        ASSERT_EQ(rec.demand, row[0] + row[1])
            << "app " << a << ", epoch " << rec.epoch;
      }
    }
  }
}

/// Requests \p over OPPs past the top of the table every epoch.
class OverTopGovernor : public gov::Governor {
 public:
  explicit OverTopGovernor(std::size_t over) : over_(over) {}
  std::string name() const override { return "over-top"; }
  std::size_t decide(const gov::DecisionContext& ctx,
                     const std::optional<gov::EpochObservation>&) override {
    return ctx.opps->size() + over_;
  }
  void reset() override {}

 private:
  std::size_t over_;
};

// Requests beyond the table clamp to the top OPP. Two apps that both ask
// for more than the top both run at the top, so neither was dragged faster
// than it asked: overrides count against the OPP actually applied.
TEST(MultiApp, RequestsAboveTheTableAreNotOverridden) {
  common::Config two_domains;
  two_domains.set_int("hw.clusters", 2);
  two_domains.set_int("hw.cores", 2);
  std::vector<std::unique_ptr<hw::Platform>> boards;
  boards.push_back(hw::Platform::odroid_xu3_a15());
  boards.push_back(hw::Platform::from_config(two_domains));
  for (const auto& board : boards) {
    SCOPED_TRACE(std::to_string(board->domain_count()) + " domain(s)");
    const std::size_t top = board->opp_table().size() - 1;
    const wl::Application a = make_app("mpeg4", 25.0, 30, 1, *board);
    const wl::Application b = make_app("fft", 25.0, 30, 2, *board);
    std::vector<std::unique_ptr<gov::Governor>> governors;
    governors.push_back(std::make_unique<OverTopGovernor>(1));
    governors.push_back(std::make_unique<OverTopGovernor>(3));
    // Both apps span every domain, so each domain arbitrates between them.
    const std::vector<AppPlacement> placements = {{&a, {0, 2}},
                                                  {&b, {1, 3}}};
    TraceSink trace_a;
    TraceSink trace_b;
    MultiAppOptions options;
    options.app_sinks = {{&trace_a}, {&trace_b}};
    const MultiAppResult r =
        run_multi_simulation(*board, placements, governors, options);
    EXPECT_EQ(r.overridden_epochs, (std::vector<std::size_t>{0, 0}));
    for (const TraceSink* trace : {&trace_a, &trace_b}) {
      ASSERT_EQ(trace->records().size(), 30u);
      for (const EpochRecord& rec : trace->records()) {
        EXPECT_EQ(rec.opp_index, top) << "epoch " << rec.epoch;
      }
    }
  }
}

/// Expect run_multi_simulation to reject \p placements with a
/// std::invalid_argument whose message contains \p want.
void expect_rejected(hw::Platform& platform,
                     const std::vector<AppPlacement>& placements,
                     const std::vector<std::unique_ptr<gov::Governor>>& governors,
                     const std::string& want) {
  try {
    (void)run_multi_simulation(platform, placements, governors);
    ADD_FAILURE() << "accepted; expected an error containing: " << want;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
        << e.what();
  }
}

TEST(MultiApp, ValidatesInputs) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application a = make_app("mpeg4", 25.0, 50, 1, *platform);
  const wl::Application b = make_app("fft", 25.0, 50, 2, *platform);

  std::vector<std::unique_ptr<gov::Governor>> governors;
  governors.push_back(make_governor("rtm"));

  // No placements.
  expect_rejected(*platform, {}, governors, "no applications");
  // Governor count mismatch.
  expect_rejected(*platform, {{&a, {0, 1}}, {&b, {2, 3}}}, governors,
                  "one governor per application");
  governors.push_back(make_governor("rtm"));
  // Empty placements: no application, or no core.
  expect_rejected(*platform, {{&a, {0, 1}}, {nullptr, {2, 3}}}, governors,
                  "placement 1 has no application");
  expect_rejected(*platform, {{&a, {0, 1}}, {&b, {}}}, governors,
                  "application 'fft' (placement 1) is placed on no core");
  // Overlapping cores.
  expect_rejected(*platform, {{&a, {0, 1}}, {&b, {1, 2}}}, governors,
                  "core 1 of 4 is assigned twice, to application 'mpeg4' "
                  "(placement 0) and to application 'fft' (placement 1)");
  // Core out of range.
  expect_rejected(*platform, {{&a, {0, 1}}, {&b, {2, 9}}}, governors,
                  "application 'fft' (placement 1) is placed on core 9, out "
                  "of range on a board of 4 cores");
  // One Application in two placements: both would drive one replay cursor.
  expect_rejected(*platform, {{&a, {0, 1}}, {&a, {2, 3}}}, governors,
                  "application 'mpeg4' (placement 1) is the same object as "
                  "application 'mpeg4' (placement 0)");
}

TEST(MultiApp, MismatchedRatesRejected) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application a = make_app("mpeg4", 25.0, 50, 1, *platform);
  const wl::Application b = make_app("fft", 30.0, 50, 2, *platform);
  std::vector<std::unique_ptr<gov::Governor>> governors;
  governors.push_back(make_governor("rtm"));
  governors.push_back(make_governor("rtm"));
  std::vector<AppPlacement> placements = {{&a, {0, 1}}, {&b, {2, 3}}};
  EXPECT_THROW(run_multi_simulation(*platform, placements, governors),
               std::invalid_argument);
}

// Regression: the equal-rate check used to sample only frame 0, so an
// add_requirement_change forking the rates mid-run slipped past validation
// and silently mis-cadenced every epoch after the divergent breakpoint.
TEST(MultiApp, MidRunRateForkRejected) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application a = make_app("mpeg4", 25.0, 50, 1, *platform);
  wl::Application b = make_app("fft", 25.0, 50, 2, *platform);
  b.add_requirement_change(20, 30.0);  // same rate at frame 0, forks at 20
  std::vector<std::unique_ptr<gov::Governor>> governors;
  governors.push_back(make_governor("rtm"));
  governors.push_back(make_governor("rtm"));
  std::vector<AppPlacement> placements = {{&a, {0, 1}}, {&b, {2, 3}}};
  EXPECT_THROW(run_multi_simulation(*platform, placements, governors),
               std::invalid_argument);
}

// Schedules that differ in representation but agree at every frame are fine:
// both apps switch 25 -> 30 at frame 20, one of them through a redundant
// extra breakpoint.
TEST(MultiApp, EquivalentSchedulesAccepted) {
  auto platform = hw::Platform::odroid_xu3_a15();
  wl::Application a = make_app("mpeg4", 25.0, 50, 1, *platform);
  wl::Application b = make_app("fft", 25.0, 50, 2, *platform);
  a.add_requirement_change(20, 30.0);
  b.add_requirement_change(10, 25.0);  // redundant: rate unchanged
  b.add_requirement_change(20, 30.0);
  std::vector<std::unique_ptr<gov::Governor>> governors;
  governors.push_back(make_governor("rtm", 11));
  governors.push_back(make_governor("rtm", 22));
  std::vector<AppPlacement> placements = {{&a, {0, 1}}, {&b, {2, 3}}};
  const MultiAppResult r =
      run_multi_simulation(*platform, placements, governors);
  EXPECT_EQ(r.per_app[0].epoch_count, 50u);
}

TEST(MultiApp, TwoAppsRunToCompletion) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application a = make_app("mpeg4", 25.0, 300, 1, *platform);
  const wl::Application b = make_app("fft", 25.0, 300, 2, *platform);
  std::vector<std::unique_ptr<gov::Governor>> governors;
  governors.push_back(make_governor("rtm", 11));
  governors.push_back(make_governor("rtm", 22));
  std::vector<AppPlacement> placements = {{&a, {0, 1}}, {&b, {2, 3}}};

  const MultiAppResult r =
      run_multi_simulation(*platform, placements, governors);
  ASSERT_EQ(r.per_app.size(), 2u);
  EXPECT_EQ(r.per_app[0].epoch_count, 300u);
  EXPECT_EQ(r.per_app[1].epoch_count, 300u);
  EXPECT_GT(r.total_energy, 0.0);
  // Per-app energy attribution sums to the cluster total.
  EXPECT_NEAR(r.per_app[0].total_energy + r.per_app[1].total_energy,
              r.total_energy, r.total_energy * 1e-6);
}

TEST(MultiApp, BothAppsHoldTheirRequirements) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application a = make_app("mpeg4", 25.0, 500, 1, *platform);
  const wl::Application b = make_app("fft", 25.0, 500, 2, *platform);
  std::vector<std::unique_ptr<gov::Governor>> governors;
  governors.push_back(make_governor("rtm", 11));
  governors.push_back(make_governor("rtm", 22));
  std::vector<AppPlacement> placements = {{&a, {0, 1}}, {&b, {2, 3}}};

  const MultiAppResult r =
      run_multi_simulation(*platform, placements, governors);
  for (const auto& app_run : r.per_app) {
    EXPECT_LT(app_run.miss_rate(), 0.35) << app_run.application;
  }
}

TEST(MultiApp, SharedRailDragsLightApp) {
  // A heavy and a light app: the light one's requests get overridden by the
  // max arbitration some of the time, and it over-performs as a result.
  auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application heavy =
      make_app("h264", 25.0, 400, 1, *platform, 0.30);
  const wl::Application light = make_app("fft", 25.0, 400, 2, *platform, 0.05);
  std::vector<std::unique_ptr<gov::Governor>> governors;
  governors.push_back(make_governor("rtm", 11));
  governors.push_back(make_governor("rtm", 22));
  std::vector<AppPlacement> placements = {{&heavy, {0, 1}}, {&light, {2, 3}}};

  const MultiAppResult r =
      run_multi_simulation(*platform, placements, governors);
  EXPECT_GT(r.overridden_epochs[1], r.overridden_epochs[0]);
  // The light app finishes far ahead of its deadline (dragged fast).
  EXPECT_LT(r.per_app[1].mean_normalized_performance(),
            r.per_app[0].mean_normalized_performance());
}

TEST(MultiApp, Deterministic) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application a = make_app("mpeg4", 25.0, 200, 1, *platform);
  const wl::Application b = make_app("fft", 25.0, 200, 2, *platform);
  std::vector<AppPlacement> placements = {{&a, {0, 1}}, {&b, {2, 3}}};

  auto run_once = [&] {
    std::vector<std::unique_ptr<gov::Governor>> governors;
    governors.push_back(make_governor("rtm", 11));
    governors.push_back(make_governor("rtm", 22));
    return run_multi_simulation(*platform, placements, governors);
  };
  const MultiAppResult r1 = run_once();
  const MultiAppResult r2 = run_once();
  EXPECT_DOUBLE_EQ(r1.total_energy, r2.total_energy);
  EXPECT_EQ(r1.per_app[0].deadline_misses, r2.per_app[0].deadline_misses);
}

TEST(MultiApp, MaxFramesHonoured) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application a = make_app("mpeg4", 25.0, 200, 1, *platform);
  const wl::Application b = make_app("fft", 25.0, 200, 2, *platform);
  std::vector<std::unique_ptr<gov::Governor>> governors;
  governors.push_back(make_governor("rtm", 11));
  governors.push_back(make_governor("rtm", 22));
  std::vector<AppPlacement> placements = {{&a, {0, 1}}, {&b, {2, 3}}};
  const MultiAppResult r =
      run_multi_simulation(*platform, placements, governors, 50);
  EXPECT_EQ(r.per_app[0].epoch_count, 50u);
}

TEST(MultiApp, PerAppTelemetryStreamsMatchAggregates) {
  // Each application's epoch stream goes through the same emission path as
  // the single-app engine: a TraceSink per app must reproduce exactly the
  // aggregates the per-app RunResult reports.
  auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application a = make_app("mpeg4", 25.0, 120, 1, *platform);
  const wl::Application b = make_app("fft", 25.0, 120, 2, *platform);
  std::vector<std::unique_ptr<gov::Governor>> governors;
  governors.push_back(make_governor("rtm", 11));
  governors.push_back(make_governor("rtm", 22));
  std::vector<AppPlacement> placements = {{&a, {0, 1}}, {&b, {2, 3}}};

  TraceSink trace_a;
  AggregateSink agg_b;
  MultiAppOptions options;
  options.app_sinks = {{&trace_a}, {&agg_b}};
  const MultiAppResult r =
      run_multi_simulation(*platform, placements, governors, options);

  ASSERT_EQ(trace_a.records().size(), 120u);
  RunResult recomputed;
  for (const auto& rec : trace_a.records()) recomputed.accumulate(rec);
  EXPECT_DOUBLE_EQ(recomputed.total_energy, r.per_app[0].total_energy);
  EXPECT_EQ(recomputed.deadline_misses, r.per_app[0].deadline_misses);
  EXPECT_DOUBLE_EQ(recomputed.mean_normalized_performance(),
                   r.per_app[0].mean_normalized_performance());

  // The standalone AggregateSink mirrors the engine's own bookkeeping.
  EXPECT_EQ(agg_b.result().epoch_count, r.per_app[1].epoch_count);
  EXPECT_DOUBLE_EQ(agg_b.result().total_energy, r.per_app[1].total_energy);
  EXPECT_DOUBLE_EQ(agg_b.result().measured_energy,
                   r.per_app[1].measured_energy);
  EXPECT_EQ(agg_b.result().application, "fft");
}

TEST(MultiApp, StreamingAppsNeedMaxFramesAndMatchTraceReplay) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application a = make_app("mpeg4", 25.0, 50, 1, *platform);
  const wl::Application b = make_app("fft", 25.0, 50, 2, *platform);

  auto streaming_spec = [](const char* workload, std::uint64_t seed) {
    ExperimentSpec spec;
    spec.workload = workload;
    spec.fps = 25.0;
    spec.frames = 50;
    spec.seed = seed;
    spec.threads = 2;
    spec.target_utilisation = 0.20;
    spec.stream = true;
    return spec;
  };
  const wl::Application sa =
      make_application(streaming_spec("mpeg4", 1), *platform);
  const wl::Application sb =
      make_application(streaming_spec("fft", 2), *platform);
  ASSERT_TRUE(sa.streaming());

  std::vector<std::unique_ptr<gov::Governor>> governors;
  governors.push_back(make_governor("ondemand"));
  governors.push_back(make_governor("ondemand"));
  std::vector<AppPlacement> streamed = {{&sa, {0, 1}}, {&sb, {2, 3}}};

  // All placements unbounded: max_frames is mandatory.
  EXPECT_THROW(run_multi_simulation(*platform, streamed, governors),
               std::invalid_argument);

  // With max_frames set, the streamed run reproduces the trace-replay run.
  const MultiAppResult streamed_run =
      run_multi_simulation(*platform, streamed, governors, 50);
  std::vector<AppPlacement> replayed = {{&a, {0, 1}}, {&b, {2, 3}}};
  const MultiAppResult replayed_run =
      run_multi_simulation(*platform, replayed, governors, 50);
  ASSERT_EQ(streamed_run.per_app.size(), 2u);
  EXPECT_EQ(streamed_run.per_app[0].epoch_count, 50u);
  EXPECT_DOUBLE_EQ(streamed_run.total_energy, replayed_run.total_energy);

  // A bounded co-runner supplies the run length: no max_frames needed.
  std::vector<AppPlacement> mixed = {{&a, {0, 1}}, {&sb, {2, 3}}};
  const MultiAppResult mixed_run =
      run_multi_simulation(*platform, mixed, governors);
  EXPECT_EQ(mixed_run.per_app[0].epoch_count, 50u);
}

// The run is as long as the shortest bounded trace wherever it is placed:
// an application with an empty trace leaves no frame to run, first or last.
TEST(MultiApp, ShortestTraceBoundsTheRunInAnyOrder) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application full = make_app("mpeg4", 25.0, 50, 1, *platform);
  const wl::Application empty("empty", wl::WorkloadTrace{}, 25.0, 2);
  for (const bool empty_first : {true, false}) {
    std::vector<std::unique_ptr<gov::Governor>> governors;
    governors.push_back(make_governor("rtm"));
    governors.push_back(make_governor("rtm"));
    const std::vector<AppPlacement> placements =
        empty_first
            ? std::vector<AppPlacement>{{&empty, {0, 1}}, {&full, {2, 3}}}
            : std::vector<AppPlacement>{{&full, {0, 1}}, {&empty, {2, 3}}};
    const MultiAppResult r =
        run_multi_simulation(*platform, placements, governors);
    EXPECT_EQ(r.per_app[0].epoch_count, 0u) << "empty first: " << empty_first;
  }
}

}  // namespace
}  // namespace prime::sim
