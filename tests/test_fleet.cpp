/// \file test_fleet.cpp
/// \brief Tests for the fleet population subsystem: shard planning,
///        population decoding and seed stability, exact merge semantics,
///        the sealed shard-summary format, and the multi-process driver's
///        differential and failure-injection properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/binio.hpp"
#include "common/rng.hpp"
#include "common/sealed.hpp"
#include "fleet/driver.hpp"
#include "fleet/population.hpp"
#include "fleet/runner.hpp"
#include "fleet/summary.hpp"
#include "sealed_fixtures.hpp"
#include "short_write.hpp"

namespace prime::fleet {
namespace {

using testing_util::random_result;
using testing_util::sample_summary;
using testing_util::tiny_population;

/// A per-test scratch directory, wiped first: several tests assert on how
/// many workers were launched, and a summary left behind by a previous test
/// binary run would legitimately (but confusingly) short-circuit them.
std::string temp_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "fleet-tests/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string report_csv(const PopulationReport& report) {
  std::ostringstream out;
  report.write_csv(out);
  return out.str();
}

// --- ShardPlan ---------------------------------------------------------------

TEST(ShardPlan, TilesTheDeviceRangeExactly) {
  for (const auto& [devices, shards] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {0, 1}, {1, 1}, {7, 3}, {10, 4}, {12, 4}, {3, 8}, {1000, 7}}) {
    const ShardPlan plan(devices, shards);
    std::size_t expected_begin = 0;
    for (std::size_t i = 0; i < shards; ++i) {
      const Shard s = plan.shard(i);
      EXPECT_EQ(s.index, i);
      EXPECT_EQ(s.count, shards);
      EXPECT_EQ(s.device_begin, expected_begin)
          << devices << " devices / " << shards << " shards, shard " << i;
      EXPECT_GE(s.device_end, s.device_begin);
      expected_begin = s.device_end;
    }
    EXPECT_EQ(expected_begin, devices);
  }
}

TEST(ShardPlan, BalancesWithinOneDevice) {
  const ShardPlan plan(1003, 17);
  std::size_t lo = 1003, hi = 0;
  for (const Shard& s : plan.shards()) {
    lo = std::min(lo, s.size());
    hi = std::max(hi, s.size());
  }
  EXPECT_LE(hi - lo, 1u);
}

TEST(ShardPlan, RejectsZeroShardsAndOutOfRangeIndex) {
  EXPECT_THROW(ShardPlan(10, 0), std::invalid_argument);
  const ShardPlan plan(10, 3);
  EXPECT_THROW((void)plan.shard(3), std::out_of_range);
}

// --- PopulationSpec ----------------------------------------------------------

TEST(PopulationSpec, DecodesCellsWorkloadMajorThenFpsThenGovernor) {
  PopulationSpec pop;
  pop.governors = {"g0", "g1"};
  pop.workloads = {"w0", "w1", "w2"};
  pop.fps = {30.0, 60.0};
  ASSERT_EQ(pop.cell_count(), 12u);
  // governor varies fastest, then fps, then workload.
  EXPECT_EQ(pop.cell(0).governor, "g0");
  EXPECT_EQ(pop.cell(1).governor, "g1");
  EXPECT_DOUBLE_EQ(pop.cell(0).fps, 30.0);
  EXPECT_DOUBLE_EQ(pop.cell(2).fps, 60.0);
  EXPECT_EQ(pop.cell(0).workload, "w0");
  EXPECT_EQ(pop.cell(4).workload, "w1");
  EXPECT_EQ(pop.cell(11).governor, "g1");
  EXPECT_DOUBLE_EQ(pop.cell(11).fps, 60.0);
  EXPECT_EQ(pop.cell(11).workload, "w2");
}

TEST(PopulationSpec, DeviceSeedsDependOnlyOnThePopulationIndex) {
  const PopulationSpec pop = tiny_population();
  for (std::size_t i = 0; i < pop.device_count(); ++i) {
    const DeviceSpec dev = pop.device(i);
    EXPECT_EQ(dev.index, i);
    EXPECT_EQ(dev.cell, i / pop.devices_per_cell);
    EXPECT_EQ(dev.replica, i % pop.devices_per_cell);
    // The derivation is the pinned derive_seed jump — no shard anywhere.
    EXPECT_EQ(dev.trace_seed, common::derive_seed(pop.base_seed, 3 * i));
    EXPECT_EQ(dev.governor_seed,
              common::derive_seed(pop.base_seed, 3 * i + 1));
    EXPECT_EQ(dev.platform_seed,
              common::derive_seed(pop.base_seed, 3 * i + 2));
  }
}

TEST(PopulationSpec, ArgsRoundTripPreservesTheFingerprint) {
  PopulationSpec pop = tiny_population();
  pop.target_utilisation = 0.3141592653589793;  // exercise %.17g round-trip
  pop.fps = {29.97};
  common::Config cfg;
  for (const auto& arg : pop.to_args()) {
    ASSERT_TRUE(cfg.parse_assignment(arg)) << arg;
  }
  const PopulationSpec reparsed = PopulationSpec::from_config(cfg);
  EXPECT_EQ(reparsed.fingerprint(), pop.fingerprint());
  EXPECT_EQ(reparsed.device_count(), pop.device_count());
}

TEST(PopulationSpec, FingerprintSeparatesDifferentPopulations) {
  const PopulationSpec base = tiny_population();
  PopulationSpec other = base;
  other.base_seed += 1;
  EXPECT_NE(base.fingerprint(), other.fingerprint());
  other = base;
  other.frames += 1;
  EXPECT_NE(base.fingerprint(), other.fingerprint());
  other = base;
  other.governors.push_back("rtm");
  EXPECT_NE(base.fingerprint(), other.fingerprint());
}

TEST(PopulationSpec, ValidateRejectsDegenerateSpecs) {
  PopulationSpec pop = tiny_population();
  pop.governors.clear();
  EXPECT_THROW(pop.validate(), std::invalid_argument);
  pop = tiny_population();
  pop.devices_per_cell = 0;
  EXPECT_THROW(pop.validate(), std::invalid_argument);
  pop = tiny_population();
  pop.frames = 0;
  EXPECT_THROW(pop.validate(), std::invalid_argument);
  pop = tiny_population();
  pop.fps = {-1.0};
  EXPECT_THROW(pop.validate(), std::invalid_argument);
  pop = tiny_population();
  pop.energy_bins = 0;
  EXPECT_THROW(pop.validate(), std::invalid_argument);
}

// --- RunResult / CellStats merge semantics -----------------------------------

/// Dyadic-rational aggregates: f64 addition is exact on these, so the plain
/// RunResult merge can honestly be tested for associativity.
sim::RunResult dyadic_result(std::size_t i) {
  sim::RunResult r;
  r.governor = "g";
  r.application = "a";
  r.epoch_count = 10 + i;
  r.total_energy = 0.25 * static_cast<double>(i + 1);
  r.measured_energy = 0.125 * static_cast<double>(i + 2);
  r.total_time = 0.5 * static_cast<double>(i + 1);
  r.deadline_misses = i % 3;
  r.performance_sum = 1.0 + 0.0625 * static_cast<double>(i);
  r.power_sum = 2.0 + 0.5 * static_cast<double>(i);
  return r;
}

TEST(RunResultMerge, SumsCountsAndFillsEmptyLabels) {
  sim::RunResult acc;
  EXPECT_TRUE(acc.governor.empty());
  acc.merge(dyadic_result(0));
  EXPECT_EQ(acc.governor, "g");
  EXPECT_EQ(acc.application, "a");
  acc.merge(dyadic_result(1));
  EXPECT_EQ(acc.epoch_count, 21u);
  EXPECT_DOUBLE_EQ(acc.total_energy, 0.75);
  EXPECT_DOUBLE_EQ(acc.total_time, 1.5);
  EXPECT_EQ(acc.deadline_misses, 1u);
  // Left-biased labels: a different right-hand name never overwrites.
  sim::RunResult named = dyadic_result(2);
  named.governor = "other";
  acc.merge(named);
  EXPECT_EQ(acc.governor, "g");
}

TEST(RunResultMerge, AssociativeOnDyadicValues) {
  sim::RunResult seq;
  for (std::size_t i = 0; i < 12; ++i) seq.merge(dyadic_result(i));

  sim::RunResult left, mid, right;
  for (std::size_t i = 0; i < 4; ++i) left.merge(dyadic_result(i));
  for (std::size_t i = 4; i < 9; ++i) mid.merge(dyadic_result(i));
  for (std::size_t i = 9; i < 12; ++i) right.merge(dyadic_result(i));
  sim::RunResult grouped = left;
  grouped.merge(mid);
  grouped.merge(right);

  EXPECT_EQ(grouped.epoch_count, seq.epoch_count);
  EXPECT_EQ(grouped.deadline_misses, seq.deadline_misses);
  EXPECT_EQ(grouped.total_energy, seq.total_energy);
  EXPECT_EQ(grouped.measured_energy, seq.measured_energy);
  EXPECT_EQ(grouped.total_time, seq.total_time);
  EXPECT_EQ(grouped.performance_sum, seq.performance_sum);
  EXPECT_EQ(grouped.power_sum, seq.power_sum);
}

void expect_exactly_equal(const CellStats& a, const CellStats& b) {
  EXPECT_EQ(a.devices, b.devices);
  EXPECT_TRUE(a.energy_sum == b.energy_sum);
  EXPECT_TRUE(a.time_sum == b.time_sum);
  EXPECT_TRUE(a.perf_sum == b.perf_sum);
  EXPECT_TRUE(a.power_sum == b.power_sum);
  EXPECT_TRUE(a.miss_sum == b.miss_sum);
  ASSERT_EQ(a.energy_hist.bins(), b.energy_hist.bins());
  for (std::size_t i = 0; i < a.energy_hist.bins(); ++i) {
    EXPECT_EQ(a.energy_hist.bin_count(i), b.energy_hist.bin_count(i));
  }
  EXPECT_EQ(a.miss_hist.count(), b.miss_hist.count());
  EXPECT_EQ(a.perf_hist.count(), b.perf_hist.count());
  EXPECT_EQ(a.mean_energy(), b.mean_energy());  // == , not NEAR: exact merge
  EXPECT_EQ(a.mean_miss_rate(), b.mean_miss_rate());
  EXPECT_EQ(a.mean_performance(), b.mean_performance());
  EXPECT_EQ(a.mean_power(), b.mean_power());
}

TEST(CellStatsMerge, ExactlyOrderAndGroupingInvariant) {
  PopulationSpec pop = tiny_population();
  pop.energy_hi = 32.0;
  common::Rng rng(21);
  std::vector<sim::RunResult> results;
  for (int i = 0; i < 90; ++i) results.push_back(random_result(rng));

  CellStats sequential(pop);
  for (const auto& r : results) sequential.add_device(r);

  // Partition into three shards, merge in two different orders.
  CellStats a(pop), b(pop), c(pop);
  for (std::size_t i = 0; i < results.size(); ++i) {
    (i < 30 ? a : (i < 60 ? b : c)).add_device(results[i]);
  }
  CellStats forward(pop);
  forward.merge(a);
  forward.merge(b);
  forward.merge(c);
  CellStats backward(pop);
  backward.merge(c);
  backward.merge(b);
  backward.merge(a);

  expect_exactly_equal(forward, sequential);
  expect_exactly_equal(backward, sequential);
}

TEST(CellStatsMerge, RejectsForeignHistogramGeometry) {
  const PopulationSpec pop = tiny_population();
  PopulationSpec other = pop;
  other.energy_bins = pop.energy_bins + 1;
  CellStats mine(pop);
  CellStats theirs(other);
  EXPECT_THROW(mine.merge(theirs), std::invalid_argument);
}

// --- ShardSummary file format ------------------------------------------------

TEST(ShardSummaryFile, RoundTripsExactly) {
  const PopulationSpec pop = tiny_population();
  const ShardSummary original = sample_summary(pop);
  const std::string path = temp_dir("fsum-roundtrip") + "/s.fsum";
  original.save_file(path);
  const ShardSummary loaded = ShardSummary::load_file(path);
  EXPECT_EQ(loaded.fingerprint, original.fingerprint);
  EXPECT_EQ(loaded.shard.index, 1u);
  EXPECT_EQ(loaded.shard.count, 2u);
  EXPECT_EQ(loaded.shard.device_begin, 3u);
  EXPECT_EQ(loaded.shard.device_end, 6u);
  EXPECT_EQ(loaded.next_device, 5u);
  EXPECT_EQ(loaded.started_at_device, 3u);
  EXPECT_FALSE(loaded.complete());
  ASSERT_EQ(loaded.cells.size(), 1u);
  expect_exactly_equal(loaded.cells.at(1), original.cells.at(1));
  // The RunResult aggregates ride along bit-exact too.
  EXPECT_EQ(loaded.cells.at(1).run.total_energy,
            original.cells.at(1).run.total_energy);
  EXPECT_EQ(loaded.cells.at(1).run.epoch_count,
            original.cells.at(1).run.epoch_count);
}

TEST(ShardSummaryFile, ShortWriteThrowsAndLeavesNoTempFile) {
  const PopulationSpec pop = tiny_population();
  const ShardSummary summary = sample_summary(pop);
  const std::string path = temp_dir("fsum-short") + "/s.fsum";
  EXPECT_EXIT(testing_util::save_past_file_size_limit<FleetError>(
                  [&] { summary.save_file(path); }),
              testing::ExitedWithCode(0), "shard summary: stream write failed");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(ShardSummaryFile, RejectsDuplicateCell) {
  // Cells are a map when written, so forge the duplicate in the bytes: the
  // cell count (after five u64 payload fields) goes to 2 and the one cell
  // record (up to the trailing zero policy count) appears twice.
  const PopulationSpec pop = tiny_population();
  const std::string path = temp_dir("fsum-dup") + "/s.fsum";
  sample_summary(pop).save_file(path);
  const std::string bytes = testing_util::read_bytes(path);
  const std::size_t count_at = common::kSealedHeaderSize + 5 * 8;
  const std::string record =
      bytes.substr(count_at + 8, bytes.size() - 8 - (count_at + 8));
  std::string forged = bytes.substr(0, count_at + 8) + record + record +
                       bytes.substr(bytes.size() - 8);
  common::store_u64(reinterpret_cast<unsigned char*>(forged.data()) + count_at,
                    2);
  testing_util::write_bytes(path, forged);
  try {
    (void)ShardSummary::load_file(path);
    FAIL() << "accepted a duplicated cell";
  } catch (const FleetError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate cell 1"),
              std::string::npos)
        << e.what();
  }
}

TEST(ShardSummaryFile, RejectsInconsistentProgress) {
  const PopulationSpec pop = tiny_population();
  ShardSummary s = sample_summary(pop);
  s.next_device = 99;  // outside [device_begin, device_end]
  const std::string path = temp_dir("fsum-progress") + "/s.fsum";
  s.save_file(path);
  EXPECT_THROW((void)ShardSummary::load_file(path), FleetError);
}

TEST(ShardSummaryFile, OversizedHistogramBinCountNamesTheFile) {
  // The energy histogram's bin count follows its range (lo = 0, hi); forge
  // it so the file claims far more bins than it holds.
  const PopulationSpec pop = tiny_population();
  const std::string path = temp_dir("fsum-bins") + "/s.fsum";
  sample_summary(pop).save_file(path);
  const std::string bytes = testing_util::read_bytes(path);
  std::string range(24, '\0');
  auto* range_at = reinterpret_cast<unsigned char*>(range.data());
  common::store_f64(range_at + 8, pop.resolved_energy_hi());
  common::store_u64(range_at + 16, pop.energy_bins);
  const std::size_t found = bytes.find(range);
  ASSERT_NE(found, std::string::npos);
  ASSERT_EQ(bytes.find(range, found + 1), std::string::npos);
  for (const std::uint64_t bins :
       {std::uint64_t{1} << 40, std::uint64_t{1} << 61,
        std::numeric_limits<std::uint64_t>::max()}) {
    SCOPED_TRACE(bins);
    std::string forged = bytes;
    common::store_u64(
        reinterpret_cast<unsigned char*>(forged.data()) + found + 16, bins);
    testing_util::write_bytes(path, forged);
    try {
      (void)ShardSummary::load_file(path);
      ADD_FAILURE() << "accepted a forged bin count";
    } catch (const FleetError& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
    }
  }
}

// --- Runner + driver differentials -------------------------------------------

TEST(FleetDifferential, OneShardEqualsManyShardsEqualsManyProcesses) {
  const PopulationSpec pop = tiny_population();

  // Reference: single shard, run sequentially in this process.
  FleetOptions seq;
  seq.shards = 1;
  seq.workers = 0;
  seq.out_dir = temp_dir("fleet-seq");
  FleetDriver seq_driver(seq);
  const std::string reference = report_csv(seq_driver.run(pop));
  EXPECT_NE(reference.find("performance"), std::string::npos);
  EXPECT_NE(reference.find("ondemand"), std::string::npos);

  // Same population, 3 shards run sequentially.
  FleetOptions sharded;
  sharded.shards = 3;
  sharded.workers = 0;
  sharded.out_dir = temp_dir("fleet-sharded");
  FleetDriver sharded_driver(sharded);
  EXPECT_EQ(report_csv(sharded_driver.run(pop)), reference);

  // Same population, 4 shards across 2 forked worker processes.
  FleetOptions forked;
  forked.shards = 4;
  forked.workers = 2;
  forked.out_dir = temp_dir("fleet-forked");
  FleetDriver forked_driver(forked);
  EXPECT_EQ(report_csv(forked_driver.run(pop)), reference);
  EXPECT_EQ(forked_driver.launches(), 2u);  // one process per worker slot
  EXPECT_EQ(forked_driver.retries_used(), 0u);
}

TEST(FleetDifferential, OneWorkerRunsEveryShardInOneProcess) {
  const PopulationSpec pop = tiny_population();
  FleetOptions seq;
  seq.shards = 1;
  seq.workers = 0;
  seq.out_dir = temp_dir("fleet-batch-seq");
  FleetDriver seq_driver(seq);
  const std::string reference = report_csv(seq_driver.run(pop));

  FleetOptions batched;
  batched.shards = 4;
  batched.workers = 1;
  batched.out_dir = temp_dir("fleet-batch");
  FleetDriver batched_driver(batched);
  EXPECT_EQ(report_csv(batched_driver.run(pop)), reference);
  EXPECT_EQ(batched_driver.launches(), 1u);
  EXPECT_EQ(batched_driver.retries_used(), 0u);
}

TEST(FleetReport, PrintsATitledRowPerCell) {
  FleetOptions seq;
  seq.shards = 1;
  seq.workers = 0;
  seq.out_dir = temp_dir("fleet-print");
  FleetDriver driver(seq);
  const PopulationReport report = driver.run(tiny_population());
  std::ostringstream out;
  report.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("Population report (" + std::to_string(report.devices) +
                      " devices)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("miss p95"), std::string::npos) << text;
  ASSERT_FALSE(report.rows.empty());
  for (const ReportRow& row : report.rows) {
    EXPECT_NE(text.find(row.cell.governor), std::string::npos) << text;
    EXPECT_NE(text.find(row.cell.workload), std::string::npos) << text;
  }
  // The title and header, then one line per cell at least.
  EXPECT_GE(static_cast<std::size_t>(
                std::count(text.begin(), text.end(), '\n')),
            report.rows.size() + 2);
}

TEST(FleetDriverBatches, DealtByStride) {
  using Batches = std::vector<std::vector<std::size_t>>;
  // 8 shards on 2 slots: in a 2-cell population shards 0-3 are one cell
  // and 4-7 the other, so each slot gets half of each.
  EXPECT_EQ(deal_batches({0, 1, 2, 3, 4, 5, 6, 7}, 2),
            (Batches{{0, 2, 4, 6}, {1, 3, 5, 7}}));
  // Requeued shards keep their pending order; never more batches than
  // shards, and no empty batch.
  EXPECT_EQ(deal_batches({5, 1, 2}, 2), (Batches{{5, 2}, {1}}));
  EXPECT_EQ(deal_batches({3, 4}, 4), (Batches{{3}, {4}}));
  EXPECT_EQ(deal_batches({}, 2), Batches{});
  EXPECT_EQ(deal_batches({1, 2}, 0), Batches{});
}

TEST(FleetDifferential, CompletedShardsAreNotRelaunched) {
  const PopulationSpec pop = tiny_population();
  FleetOptions options;
  options.shards = 2;
  options.workers = 2;
  options.out_dir = temp_dir("fleet-rerun");
  FleetDriver first(options);
  const std::string reference = report_csv(first.run(pop));
  EXPECT_EQ(first.launches(), 2u);

  // Second run over the same out_dir: every summary is already sealed and
  // fingerprint-matched, so the driver goes straight to the merge.
  FleetDriver second(options);
  EXPECT_EQ(report_csv(second.run(pop)), reference);
  EXPECT_EQ(second.launches(), 0u);
}

TEST(FleetFailureInjection, RetryResumesFromCheckpointBitIdentically) {
  const PopulationSpec pop = tiny_population();

  FleetOptions clean;
  clean.shards = 2;
  clean.workers = 0;
  clean.out_dir = temp_dir("fleet-clean");
  FleetDriver clean_driver(clean);
  const std::string reference = report_csv(clean_driver.run(pop));

  // Every shard's first attempt is killed (std::_Exit, no unwinding) after
  // one device; checkpoints are written per device, so the relaunch resumes
  // mid-shard instead of starting over.
  FleetOptions faulty;
  faulty.shards = 2;
  faulty.workers = 2;
  faulty.out_dir = temp_dir("fleet-faulty");
  faulty.checkpoint_every = 1;
  faulty.fail_first_attempt_after = 1;
  FleetDriver faulty_driver(faulty);
  const std::string report = report_csv(faulty_driver.run(pop));
  EXPECT_EQ(report, reference);
  EXPECT_EQ(faulty_driver.retries_used(), 2u);
  EXPECT_EQ(faulty_driver.launches(), 4u);

  // The sealed summaries prove the retries resumed: their writing session
  // began past the shard start.
  for (std::size_t i = 0; i < 2; ++i) {
    const ShardSummary s =
        ShardSummary::load_file(shard_summary_path(faulty.out_dir, i));
    EXPECT_TRUE(s.complete());
    EXPECT_GT(s.started_at_device, s.shard.device_begin)
        << "shard " << i << " restarted from scratch instead of resuming";
  }
  // A sealed summary supersedes its shard's progress file: none is left.
  for (const auto& entry :
       std::filesystem::directory_iterator(faulty.out_dir)) {
    EXPECT_NE(entry.path().extension(), ".ckpt") << entry.path();
  }
}

TEST(FleetFailureInjection, ShardsAfterTheFailureInABatchSpendNoAttempt) {
  const PopulationSpec pop = tiny_population();
  FleetOptions clean;
  clean.shards = 1;
  clean.workers = 0;
  clean.out_dir = temp_dir("fleet-batch-clean");
  FleetDriver clean_driver(clean);
  const std::string reference = report_csv(clean_driver.run(pop));

  // One worker runs the batch {0, 1, 2}; each shard's first attempt dies
  // after one device. Process 1 fails in shard 0, process 2 finishes 0 and
  // fails in 1, process 3 finishes 1 and fails in 2, process 4 finishes 2.
  // Each shard spends one attempt, so retries = 1 suffices only because the
  // shards queued behind a failure are not charged for it.
  FleetOptions faulty;
  faulty.shards = 3;
  faulty.workers = 1;
  faulty.retries = 1;
  faulty.out_dir = temp_dir("fleet-batch-faulty");
  faulty.checkpoint_every = 1;
  faulty.fail_first_attempt_after = 1;
  FleetDriver faulty_driver(faulty);
  EXPECT_EQ(report_csv(faulty_driver.run(pop)), reference);
  EXPECT_EQ(faulty_driver.retries_used(), 3u);
  EXPECT_EQ(faulty_driver.launches(), 4u);
  for (std::size_t i = 0; i < faulty.shards; ++i) {
    const ShardSummary s =
        ShardSummary::load_file(shard_summary_path(faulty.out_dir, i));
    EXPECT_TRUE(s.complete());
    EXPECT_GT(s.started_at_device, s.shard.device_begin)
        << "shard " << i << " restarted from scratch instead of resuming";
  }
}

TEST(FleetFailureInjection, RetryBudgetExhaustionThrows) {
  const PopulationSpec pop = tiny_population();
  FleetOptions options;
  options.shards = 1;
  options.workers = 1;
  options.retries = 0;  // a single failure is fatal
  options.out_dir = temp_dir("fleet-budget");
  options.fail_first_attempt_after = 1;
  FleetDriver driver(options);
  EXPECT_THROW((void)driver.run(pop), FleetError);
}

TEST(FleetMerge, RejectsSummariesOfADifferentPopulation) {
  const PopulationSpec pop = tiny_population();
  const std::string dir = temp_dir("fleet-foreign");
  FleetOptions options;
  options.shards = 1;
  options.workers = 0;
  options.out_dir = dir;
  FleetDriver driver(options);
  (void)driver.run(pop);

  PopulationSpec other = pop;
  other.base_seed += 1;
  const ShardPlan plan(other.device_count(), 1);
  try {
    (void)FleetDriver::merge_shards(other, plan, dir);
    FAIL() << "expected FleetError";
  } catch (const FleetError& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos);
  }
}

TEST(FleetMerge, RejectsIncompleteCoverage) {
  const PopulationSpec pop = tiny_population();
  const std::string dir = temp_dir("fleet-missing");
  // Only shard 0 of 2 exists.
  const ShardPlan plan(pop.device_count(), 2);
  ShardRunnerOptions opts;
  opts.summary_path = shard_summary_path(dir, 0);
  (void)run_shard(pop, plan.shard(0), opts);
  EXPECT_THROW((void)FleetDriver::merge_shards(pop, plan, dir), FleetError);
}

TEST(WorkerBatch, ArgsRoundTrip) {
  WorkerBatch batch;
  batch.out_dir = "some/dir";
  batch.shard_count = 8;
  batch.shards = {4, 5, 7};
  batch.attempts = {1, 0, 2};
  batch.checkpoint_every = 3;
  batch.fail_after_devices = 2;
  batch.dashboard_port_base = 9100;
  common::Config cfg;
  for (const auto& arg : batch.to_args()) {
    ASSERT_TRUE(cfg.parse_assignment(arg)) << arg;
  }
  EXPECT_EQ(cfg.get_string("shard", ""), "4,5,7");
  EXPECT_EQ(cfg.get_string("attempt", ""), "1,0,2");
  const WorkerBatch parsed = WorkerBatch::from_config(cfg);
  EXPECT_EQ(parsed.out_dir, batch.out_dir);
  EXPECT_EQ(parsed.shard_count, batch.shard_count);
  EXPECT_EQ(parsed.shards, batch.shards);
  EXPECT_EQ(parsed.attempts, batch.attempts);
  EXPECT_EQ(parsed.checkpoint_every, batch.checkpoint_every);
  EXPECT_EQ(parsed.fail_after_devices, batch.fail_after_devices);
  EXPECT_EQ(parsed.dashboard_port_base, batch.dashboard_port_base);
  // Shard 7 of the batch (position 2) serves on base + 7.
  const ShardRunnerOptions opts = parsed.shard_options(2);
  EXPECT_EQ(opts.summary_path, shard_summary_path("some/dir", 7));
  EXPECT_EQ(opts.checkpoint_path, shard_checkpoint_path("some/dir", 7));
  EXPECT_EQ(opts.attempt, 2u);
  EXPECT_EQ(opts.dashboard_port, 9107);
}

TEST(WorkerBatch, RejectsMalformedLists) {
  const auto parse = [](const std::vector<std::string>& args) {
    common::Config cfg;
    for (const auto& arg : args) cfg.parse_assignment(arg);
    return WorkerBatch::from_config(cfg);
  };
  EXPECT_THROW((void)parse({"shards=4"}), std::invalid_argument);
  EXPECT_THROW((void)parse({"shard=1,x"}), std::invalid_argument);
  EXPECT_THROW((void)parse({"shard=1,,2"}), std::invalid_argument);
  EXPECT_THROW((void)parse({"shard=-1"}), std::invalid_argument);
  EXPECT_THROW((void)parse({"shard=0,1", "attempt=0"}), std::invalid_argument);
  EXPECT_THROW((void)parse({"shard=99999999999999999999"}),
               std::invalid_argument);
  EXPECT_THROW((void)parse({"shard=0,3", "dashboard-port-base=65533"}),
               std::invalid_argument);
  // A lone shard with no attempt= is a one-shard batch at attempt 0.
  const WorkerBatch one = parse({"shard=3", "shards=4"});
  EXPECT_EQ(one.shards, std::vector<std::size_t>{3});
  EXPECT_EQ(one.attempts, std::vector<std::size_t>{0});
}

TEST(FleetRunner, CorruptCheckpointFallsBackToAFreshStart) {
  const PopulationSpec pop = tiny_population();
  const std::string dir = temp_dir("fleet-badckpt");
  const ShardPlan plan(pop.device_count(), 2);
  ShardRunnerOptions opts;
  opts.summary_path = shard_summary_path(dir, 0);
  opts.checkpoint_path = shard_checkpoint_path(dir, 0);
  {
    std::ofstream garbage(opts.checkpoint_path, std::ios::binary);
    garbage << "not a shard checkpoint";
  }
  const ShardSummary s = run_shard(pop, plan.shard(0), opts);
  EXPECT_TRUE(s.complete());
  EXPECT_EQ(s.started_at_device, s.shard.device_begin);
  EXPECT_FALSE(std::filesystem::exists(opts.checkpoint_path));
}

}  // namespace
}  // namespace prime::fleet
