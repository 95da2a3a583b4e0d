/// \file test_multiapp.cpp
/// \brief Tests for concurrent multi-application execution (future work).
#include <gtest/gtest.h>

#include "common/config.hpp"
#include "common/hash.hpp"
#include "sim/experiment.hpp"
#include "sim/multiapp.hpp"
#include "sim/telemetry.hpp"

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

/// Fold every field of \p r and of each record in \p records, doubles by bit
/// pattern, into one digest.
std::uint64_t digest(const RunResult& r,
                     const std::vector<EpochRecord>& records) {
  common::Fnv1a64 h;
  h.token(r.governor);
  h.token(r.application);
  h.u64(r.epoch_count);
  h.f64(r.total_energy);
  h.f64(r.measured_energy);
  h.f64(r.total_time);
  h.u64(r.deadline_misses);
  h.f64(r.performance_sum);
  h.f64(r.power_sum);
  for (const EpochRecord& rec : records) {
    h.u64(rec.epoch);
    h.f64(rec.period);
    h.u64(rec.opp_index);
    h.f64(rec.frequency);
    h.u64(rec.demand);
    h.u64(rec.executed);
    h.f64(rec.frame_time);
    h.f64(rec.window);
    h.f64(rec.energy);
    h.f64(rec.sensor_power);
    h.f64(rec.temperature);
    h.f64(rec.slack);
    h.u64(rec.deadline_met ? 1 : 0);
  }
  return h.value();
}

/// Two rtm-governed apps (mpeg4 on \p cores_a, fft on \p cores_b) for 200
/// frames on \p platform; returns each app's result-and-records digest.
std::vector<std::uint64_t> pinned_run_digests(
    hw::Platform& platform, std::vector<std::size_t> cores_a,
    std::vector<std::size_t> cores_b) {
  const wl::Application a = make_app("mpeg4", 25.0, 200, 1, platform);
  const wl::Application b = make_app("fft", 25.0, 200, 2, platform);
  std::vector<std::unique_ptr<gov::Governor>> governors;
  governors.push_back(make_governor("rtm", 11));
  governors.push_back(make_governor("rtm", 22));
  const std::vector<AppPlacement> placements = {{&a, std::move(cores_a)},
                                                {&b, std::move(cores_b)}};
  TraceSink trace_a;
  TraceSink trace_b;
  MultiAppOptions options;
  options.app_sinks = {{&trace_a}, {&trace_b}};
  const MultiAppResult r =
      run_multi_simulation(platform, placements, governors, options);
  return {digest(r.per_app[0], trace_a.records()),
          digest(r.per_app[1], trace_b.records())};
}

// Pins every per-app result and record bit of one run per board shape, so a
// change to the multi-app epoch loop cannot move them unnoticed.
TEST(MultiApp, PinnedResultsOnOneAndTwoDomainBoards) {
  auto one = hw::Platform::odroid_xu3_a15();
  EXPECT_EQ(pinned_run_digests(*one, {0, 1}, {2, 3}),
            (std::vector<std::uint64_t>{0x39c567e3ed515095ULL,
                                        0x2ea4d253eae93fffULL}));

  common::Config cfg;
  cfg.set_int("hw.clusters", 2);
  cfg.set_int("hw.cores", 2);
  auto two = hw::Platform::from_config(cfg);
  ASSERT_EQ(two->domain_count(), 2u);
  EXPECT_EQ(pinned_run_digests(*two, {0, 2}, {1, 3}),
            (std::vector<std::uint64_t>{0x80aa56727553f50aULL,
                                        0xe57c1f6cdc773dbaULL}));
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

TEST(MultiApp, ValidatesInputs) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application a = make_app("mpeg4", 25.0, 50, 1, *platform);
  const wl::Application b = make_app("fft", 25.0, 50, 2, *platform);

  std::vector<std::unique_ptr<gov::Governor>> governors;
  governors.push_back(make_governor("rtm"));

  // No placements.
  EXPECT_THROW(run_multi_simulation(*platform, {}, governors),
               std::invalid_argument);
  // Governor count mismatch.
  std::vector<AppPlacement> two = {{&a, {0, 1}}, {&b, {2, 3}}};
  EXPECT_THROW(run_multi_simulation(*platform, two, governors),
               std::invalid_argument);
  governors.push_back(make_governor("rtm"));
  // Overlapping cores.
  std::vector<AppPlacement> overlap = {{&a, {0, 1}}, {&b, {1, 2}}};
  EXPECT_THROW(run_multi_simulation(*platform, overlap, governors),
               std::invalid_argument);
  // Core out of range.
  std::vector<AppPlacement> oob = {{&a, {0, 1}}, {&b, {2, 9}}};
  EXPECT_THROW(run_multi_simulation(*platform, oob, governors),
               std::invalid_argument);
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

}  // namespace
}  // namespace prime::sim
