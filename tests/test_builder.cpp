/// \file test_builder.cpp
/// \brief Unit tests for ExperimentBuilder and the multi-threaded sweep runner.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "common/config.hpp"
#include "hw/platform.hpp"
#include "qlib/library.hpp"
#include "sim/builder.hpp"
#include "sim/report.hpp"

namespace prime::sim {
namespace {

ExperimentBuilder small_builder() {
  ExperimentBuilder b;
  b.workload("fft").fps(25.0).frames(80).governors({"performance", "powersave"});
  return b;
}

TEST(ExperimentBuilder, ScenariosFormTheFullMatrix) {
  ExperimentBuilder b;
  b.workloads({"fft", "h264"})
      .fps_set({25.0, 30.0})
      .governors({"performance", "ondemand"})
      .frames(50);
  const std::vector<Scenario> matrix = b.scenarios();
  ASSERT_EQ(matrix.size(), 8u);  // 2 workloads x 2 fps x 2 governors
  // Workload-major, then fps, then governor; cells number the (wl, fps) pairs.
  EXPECT_EQ(matrix[0].workload, "fft");
  EXPECT_EQ(matrix[0].fps, 25.0);
  EXPECT_EQ(matrix[0].governor, "performance");
  EXPECT_EQ(matrix[0].cell, 0u);
  EXPECT_EQ(matrix[1].governor, "ondemand");
  EXPECT_EQ(matrix[1].cell, 0u);
  EXPECT_EQ(matrix[2].fps, 30.0);
  EXPECT_EQ(matrix[2].cell, 1u);
  EXPECT_EQ(matrix[7].workload, "h264");
  EXPECT_EQ(matrix[7].fps, 30.0);
  EXPECT_EQ(matrix[7].governor, "ondemand");
  EXPECT_EQ(matrix[7].cell, 3u);
  // The resolved app spec carries the cell's workload and fps.
  EXPECT_EQ(matrix[7].app.workload, "h264");
  EXPECT_EQ(matrix[7].app.fps, 30.0);
  EXPECT_EQ(matrix[7].app.frames, 50u);
}

TEST(ExperimentBuilder, EmptyMatrixThrows) {
  EXPECT_THROW((void)ExperimentBuilder().workload("fft").run(),
               std::invalid_argument);
  EXPECT_THROW((void)ExperimentBuilder().governor("oracle").run(),
               std::invalid_argument);
}

TEST(ExperimentBuilder, RunProducesOneResultPerScenario) {
  ExperimentBuilder b;
  b.workloads({"fft", "flat(mean=1.5e8)"})
      .fps(25.0)
      .frames(60)
      .governors({"performance", "powersave"});
  const SweepResult sweep = b.run();
  ASSERT_EQ(sweep.results.size(), 4u);
  ASSERT_EQ(sweep.oracle_runs.size(), 2u);
  EXPECT_EQ(sweep.rows().size(), 4u);
  for (const auto& r : sweep.results) {
    EXPECT_EQ(r.run.epoch_count, 60u);
    EXPECT_GT(r.run.total_energy, 0.0);
    EXPECT_GT(r.row.normalized_energy, 0.0);
    ASSERT_NE(r.governor, nullptr);  // post-run introspection handle
  }
  // Performance burns more energy than powersave on the same cell.
  EXPECT_GT(sweep.results[0].run.total_energy,
            sweep.results[1].run.total_energy);
}

/// Every RunResult field of \p a equals \p b's exactly.
void expect_same_run(const RunResult& a, const RunResult& b,
                     const std::string& where) {
  EXPECT_EQ(a.governor, b.governor) << where;
  EXPECT_EQ(a.application, b.application) << where;
  EXPECT_EQ(a.epoch_count, b.epoch_count) << where;
  EXPECT_EQ(a.total_energy, b.total_energy) << where;
  EXPECT_EQ(a.measured_energy, b.measured_energy) << where;
  EXPECT_EQ(a.total_time, b.total_time) << where;
  EXPECT_EQ(a.deadline_misses, b.deadline_misses) << where;
  EXPECT_EQ(a.performance_sum, b.performance_sum) << where;
  EXPECT_EQ(a.power_sum, b.power_sum) << where;
}

// Every run of a cell reads the cell's application through its own replay
// cursor, stored trace or stream: four concurrent runs give the serial
// sweep's bits (and under TSan, a shared cursor is a data race).
TEST(ExperimentBuilder, SweepIsDeterministicAcrossThreadCounts) {
  const auto sweep = [](bool stream, std::size_t threads) {
    ExperimentBuilder b;
    b.workloads({"fft", "h264"})
        .fps(25.0)
        .frames(80)
        .governors({"performance", "powersave", "ondemand", "rtm"})
        .stream(stream)
        .parallelism(threads);
    return b.run();
  };
  const SweepResult stored = sweep(false, 1);
  for (const bool stream : {false, true}) {
    const SweepResult serial = sweep(stream, 1);
    const SweepResult threaded = sweep(stream, 4);
    ASSERT_EQ(serial.results.size(), 8u);
    ASSERT_EQ(threaded.results.size(), 8u);
    ASSERT_EQ(serial.oracle_runs.size(), 2u);
    ASSERT_EQ(threaded.oracle_runs.size(), 2u);
    for (std::size_t i = 0; i < serial.results.size(); ++i) {
      const std::string where = std::string(stream ? "streamed" : "stored") +
                                " sweep, scenario " + std::to_string(i);
      expect_same_run(serial.results[i].run, threaded.results[i].run,
                      where + ", 1 vs 4 threads");
      // A stream replays the stored trace's calibrated demands.
      expect_same_run(serial.results[i].run, stored.results[i].run,
                      where + " vs stored");
    }
    for (std::size_t c = 0; c < serial.oracle_runs.size(); ++c) {
      const std::string where = std::string(stream ? "streamed" : "stored") +
                                " sweep, oracle " + std::to_string(c);
      expect_same_run(serial.oracle_runs[c], threaded.oracle_runs[c],
                      where + ", 1 vs 4 threads");
      expect_same_run(serial.oracle_runs[c], stored.oracle_runs[c],
                      where + " vs stored");
    }
  }
}

TEST(ExperimentBuilder, CompareMatchesCompareGovernors) {
  const Comparison built = small_builder().compare();

  auto platform = hw::Platform::odroid_xu3_a15();
  ExperimentSpec spec;
  spec.workload = "fft";
  spec.fps = 25.0;
  spec.frames = 80;
  const wl::Application app = make_application(spec, *platform);
  const Comparison direct =
      compare_governors(*platform, app, {"performance", "powersave"});

  ASSERT_EQ(built.runs.size(), direct.runs.size());
  EXPECT_DOUBLE_EQ(built.oracle_run.total_energy,
                   direct.oracle_run.total_energy);
  for (std::size_t i = 0; i < built.runs.size(); ++i) {
    EXPECT_DOUBLE_EQ(built.runs[i].total_energy, direct.runs[i].total_energy);
  }
}

TEST(ExperimentBuilder, CompareRejectsMatrices) {
  ExperimentBuilder b;
  b.workloads({"fft", "h264"}).governor("performance");
  EXPECT_THROW((void)b.compare(), std::invalid_argument);
}

TEST(ExperimentBuilder, FindLocatesScenarios) {
  const SweepResult sweep = small_builder().run();
  const ScenarioResult* hit = sweep.find("powersave", "fft", 25.0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->scenario.governor, "powersave");
  EXPECT_EQ(sweep.find("powersave", "fft", 60.0), nullptr);
  EXPECT_EQ(sweep.find("nope", "fft", 25.0), nullptr);
}

TEST(ExperimentBuilder, CoresControlsThePlatform) {
  ExperimentBuilder b;
  b.cores(8).workload("fft").frames(40).governor("performance");
  const SweepResult sweep = b.run();
  ASSERT_EQ(sweep.results.size(), 1u);
  // 8 cores' worth of calibrated work executed without error.
  EXPECT_EQ(sweep.results[0].run.epoch_count, 40u);
}

TEST(ExperimentBuilder, SweepTableHasOneRowPerScenario) {
  const SweepResult sweep = small_builder().run();
  const TextTable t = make_sweep_table("sweep", sweep);
  EXPECT_EQ(t.rows.size(), sweep.results.size());
  ASSERT_FALSE(t.rows.empty());
  EXPECT_EQ(t.rows[0][0], "performance");
  EXPECT_EQ(t.rows[0][1], "fft");
}

TEST(ExperimentBuilder, OracleBaselineCanBeDisabled) {
  const SweepResult sweep = small_builder().oracle_baseline(false).run();
  ASSERT_EQ(sweep.results.size(), 2u);
  EXPECT_TRUE(sweep.oracle_runs.empty());
  for (const auto& r : sweep.results) {
    EXPECT_EQ(r.run.epoch_count, 80u);
    EXPECT_GT(r.run.total_energy, 0.0);       // absolute metrics intact
    EXPECT_EQ(r.row.normalized_energy, 0.0);  // no baseline to normalise by
  }
}

TEST(ExperimentBuilder, TelemetrySpecsAttachFreshSinksPerScenario) {
  ExperimentBuilder b;
  b.workload("fft").fps(25.0).frames(60).governors({"performance", "powersave"})
      .telemetry({"trace", "tail(n=16)"});
  const SweepResult sweep = b.run();
  ASSERT_EQ(sweep.results.size(), 2u);
  for (const auto& r : sweep.results) {
    ASSERT_EQ(r.telemetry.size(), 2u);
    const auto* records = r.trace();
    ASSERT_NE(records, nullptr);
    EXPECT_EQ(records->size(), 60u);
    // The trace reproduces the run's aggregates exactly.
    RunResult recomputed;
    for (const auto& rec : *records) recomputed.accumulate(rec);
    EXPECT_DOUBLE_EQ(recomputed.total_energy, r.run.total_energy);
    // The tail window holds the last n=16 records.
    auto* tail = r.sink<TailSink>();
    ASSERT_NE(tail, nullptr);
    ASSERT_EQ(tail->buffer().size(), 16u);
    EXPECT_EQ(tail->records().back().epoch, 59u);
    EXPECT_EQ(tail->records().front().epoch, 44u);
  }
  // The Oracle baseline runs carry the same telemetry set.
  ASSERT_EQ(sweep.oracle_telemetry.size(), 1u);
  const auto* oracle_trace = find_sink<TraceSink>(sweep.oracle_telemetry[0]);
  ASSERT_NE(oracle_trace, nullptr);
  EXPECT_EQ(oracle_trace->records().size(), 60u);
}

TEST(ExperimentBuilder, TelemetryTyposGetDidYouMeanErrors) {
  ExperimentBuilder b;
  b.workload("fft").frames(20).governor("performance");
  // Unknown sink name.
  EXPECT_THROW((void)b.telemetry("tracee").run(), common::UnknownNameError);
  // Known sink, typo'd key.
  ExperimentBuilder b2;
  b2.workload("fft").frames(20).governor("performance");
  try {
    (void)b2.telemetry("csv(pth=/tmp/x.csv)").run();
    FAIL() << "expected UnknownKeyError";
  } catch (const common::UnknownKeyError& e) {
    EXPECT_NE(std::string(e.what()).find("path"), std::string::npos);
  }
}

TEST(ExperimentBuilder, CsvTargetsMustBeUniquePerConcurrentRun) {
  // Two scenarios (plus the Oracle baseline) into one file — or stdout —
  // would interleave; the builder rejects the sweep up front.
  ExperimentBuilder shared_file;
  shared_file.workload("fft").frames(20).governors(
      {"performance", "powersave"});
  EXPECT_THROW(
      (void)shared_file.telemetry("csv(path=/tmp/one-file.csv)").run(),
      std::invalid_argument);
  ExperimentBuilder to_stdout;
  to_stdout.workload("fft").frames(20).governors({"performance", "powersave"});
  EXPECT_THROW((void)to_stdout.telemetry("csv").run(), std::invalid_argument);

  // Even a single-run sweep rejects two specs opening the same target.
  ExperimentBuilder twin_specs;
  twin_specs.workload("fft").frames(20).governor("performance")
      .oracle_baseline(false)
      .telemetry({"csv(path=/tmp/twin.csv)", "csv(path=/tmp/twin.csv)"});
  EXPECT_THROW((void)twin_specs.run(), std::invalid_argument);

  // Placeholders that key every run uniquely are accepted.
  ExperimentBuilder unique;
  unique.workload("fft").frames(20).governors({"performance", "powersave"});
  const SweepResult sweep =
      unique
          .telemetry(
              "csv(path=" + testing::TempDir() + "sweep-{governor}.csv)")
          .run();
  ASSERT_EQ(sweep.results.size(), 2u);
  for (const auto& r : sweep.results) {
    auto* csv = r.sink<CsvSink>();
    ASSERT_NE(csv, nullptr);
    EXPECT_EQ(csv->rows_written(), 20u);
  }
}

TEST(ExperimentBuilder, CompareRejectsTelemetry) {
  ExperimentBuilder b = small_builder();
  b.telemetry("trace");
  EXPECT_THROW((void)b.compare(), std::invalid_argument);
}

TEST(ExperimentBuilder, ParameterisedGovernorSpecsRunInSweeps) {
  ExperimentBuilder b;
  b.workload("fft").frames(60).governors(
      {"rtm(policy=upd)", "rtm(policy=epd)"});
  const SweepResult sweep = b.run();
  ASSERT_EQ(sweep.results.size(), 2u);
  // Different exploration policies, same seed: the runs must diverge.
  EXPECT_NE(sweep.results[0].run.total_energy,
            sweep.results[1].run.total_energy);
}

TEST(ExperimentBuilder, StreamingSweepMatchesMaterialisedSweep) {
  // The stream= spec flag swaps the trace vector for a lazy FrameSource;
  // the sweep's numbers must not move at all (frame-for-frame equivalence,
  // engine run length from the builder's frames()).
  ExperimentBuilder materialised;
  materialised.workloads({"fft", "h264"})
      .fps(25.0)
      .frames(120)
      .governors({"performance", "ondemand"});
  ExperimentBuilder streaming;
  streaming.workloads({"fft(stream=true)", "h264(stream=true)"})
      .fps(25.0)
      .frames(120)
      .governors({"performance", "ondemand"});
  const SweepResult a = materialised.run();
  const SweepResult b = streaming.run();
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].run.epoch_count, b.results[i].run.epoch_count);
    EXPECT_DOUBLE_EQ(a.results[i].run.total_energy,
                     b.results[i].run.total_energy);
    EXPECT_DOUBLE_EQ(a.results[i].row.normalized_energy,
                     b.results[i].row.normalized_energy);
  }
  ASSERT_EQ(a.oracle_runs.size(), b.oracle_runs.size());
  for (std::size_t c = 0; c < a.oracle_runs.size(); ++c) {
    EXPECT_DOUBLE_EQ(a.oracle_runs[c].total_energy,
                     b.oracle_runs[c].total_energy);
  }
}

TEST(ExperimentBuilder, PublishThenWarmStartRoundTrips) {
  const std::string dir = testing::TempDir() + "builder-qlib";
  std::filesystem::remove_all(dir);

  // Train: every scenario publishes its final governor state; the Oracle
  // baseline deliberately does not.
  ExperimentBuilder train;
  train.workload("fft").fps(25.0).frames(80).governors({"rtm", "performance"});
  (void)train.publish_policies(dir).run();
  const qlib::PolicyLibrary lib(dir);
  EXPECT_EQ(lib.list().size(), 2u);

  // Warm: the same matrix warm-starts each scenario from its exact key.
  ExperimentBuilder warm;
  warm.workload("fft").fps(25.0).frames(80).governors({"rtm", "performance"});
  const SweepResult sweep = warm.warm_start(dir).run();
  EXPECT_EQ(sweep.results.size(), 2u);

  // A scenario with no published entry fails closed, naming the key.
  ExperimentBuilder missing;
  missing.workload("h264").fps(25.0).frames(80).governor("rtm");
  EXPECT_THROW((void)missing.warm_start(dir).run(), qlib::QlibError);
}

TEST(ExperimentBuilder, StreamSetterAppliesToEveryWorkload) {
  ExperimentBuilder b;
  b.workload("fft").frames(50).governor("performance").stream(true);
  const SweepResult sweep = b.run();
  ASSERT_EQ(sweep.results.size(), 1u);
  EXPECT_EQ(sweep.results[0].run.epoch_count, 50u);
  // compare() takes the same path.
  const Comparison cmp = b.compare();
  EXPECT_EQ(cmp.runs[0].epoch_count, 50u);
}

/// The records of a one-scenario sweep of \p b with a "trace" sink.
std::vector<EpochRecord> traced_run(ExperimentBuilder b) {
  const SweepResult sweep =
      b.oracle_baseline(false).telemetry("trace").run();
  EXPECT_EQ(sweep.results.size(), 1u);
  const std::vector<EpochRecord>* records = sweep.results.at(0).trace();
  EXPECT_NE(records, nullptr);
  return records == nullptr ? std::vector<EpochRecord>{} : *records;
}

/// One field of every record.
template <typename Field>
auto column(const std::vector<EpochRecord>& records, Field field) {
  std::vector<std::decay_t<decltype(records.front().*field)>> out;
  for (const EpochRecord& r : records) out.push_back(r.*field);
  return out;
}

TEST(ExperimentBuilder, PlatformConfigSetsTheDomainCount) {
  common::Config cfg;
  cfg.set_int("hw.clusters", 2);
  cfg.set_int("hw.cores", 2);
  ExperimentBuilder b;
  b.workload("h264").frames(60).governor("ondemand").platform(cfg);
  const SweepResult sweep = b.oracle_baseline(false).run();
  ASSERT_EQ(sweep.results.size(), 1u);

  // The same run on a 2x2 board built from the config directly.
  auto board = hw::Platform::from_config(cfg);
  ASSERT_EQ(board->domain_count(), 2u);
  const wl::Application app =
      make_application(sweep.results[0].scenario.app, *board);
  const auto governor = make_governor("ondemand");
  const RunResult direct = run_simulation(*board, app, *governor);
  EXPECT_EQ(sweep.results[0].run.total_energy, direct.total_energy);
  EXPECT_EQ(sweep.results[0].run.power_sum, direct.power_sum);

  // The default board is the one-domain 1x4, which runs differently.
  ExperimentBuilder plain;
  plain.workload("h264").frames(60).governor("ondemand");
  EXPECT_NE(plain.oracle_baseline(false).run().results.at(0).run.total_energy,
            direct.total_energy);
}

TEST(ExperimentBuilder, TraceSeedSelectsTheTrace) {
  ExperimentBuilder b;
  b.workload("h264").frames(60).governor("performance");
  ExperimentBuilder seeded = b;
  seeded.trace_seed(7);
  EXPECT_EQ(seeded.scenarios().at(0).app.seed, 7u);
  EXPECT_NE(column(traced_run(seeded), &EpochRecord::demand),
            column(traced_run(b), &EpochRecord::demand));
}

TEST(ExperimentBuilder, GovernorSeedSelectsTheExplorationStream) {
  ExperimentBuilder b;
  b.workload("h264").frames(200).governor("rtm");
  ExperimentBuilder one = b;
  one.governor_seed(1);
  ExperimentBuilder two = b;
  two.governor_seed(2);
  const auto opps_one = column(traced_run(one), &EpochRecord::opp_index);
  // Deterministic per seed, so the seed alone explains the difference.
  EXPECT_EQ(column(traced_run(one), &EpochRecord::opp_index), opps_one);
  EXPECT_NE(column(traced_run(two), &EpochRecord::opp_index), opps_one);
}

TEST(ExperimentBuilder, ThreadsPerFrameSetsThePerCoreSplit) {
  ExperimentBuilder b;
  b.workload("h264").frames(60).governor("performance");
  ExperimentBuilder two = b;
  two.threads_per_frame(2);
  const Scenario scenario = two.scenarios().at(0);
  EXPECT_EQ(scenario.app.threads, 2u);
  auto board = hw::Platform::odroid_xu3_a15();
  const std::vector<common::Cycles> row =
      make_application(scenario.app, *board).core_work(0, 4);
  EXPECT_EQ(std::count(row.begin(), row.end(), common::Cycles{0}), 2);
  // The same work on two cores instead of four takes longer per frame.
  EXPECT_NE(column(traced_run(two), &EpochRecord::frame_time),
            column(traced_run(b), &EpochRecord::frame_time));
}

}  // namespace
}  // namespace prime::sim
