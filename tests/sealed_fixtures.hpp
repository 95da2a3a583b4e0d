/// \file sealed_fixtures.hpp
/// \brief Fixed-seed fixtures for the sealed formats (`.ckpt`, `.qpol`,
///        `.fsum`) and the byte-level file helpers their tests share. The
///        golden-bytes pins in test_sealed.cpp hash files saved from exactly
///        these fixtures, so a change here moves those pins.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "fleet/population.hpp"
#include "fleet/summary.hpp"
#include "gov/governor.hpp"
#include "hw/platform.hpp"
#include "qlib/policy.hpp"
#include "sim/checkpoint.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "wl/application.hpp"

namespace prime::testing_util {

inline std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

inline void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --- `.ckpt` ------------------------------------------------------------------

/// A deterministic observation of epoch \p epoch after choosing \p action:
/// sweeps the frame time across the deadline so slack changes sign, misses
/// occur, and reactive/PID/RL governors all see varied state.
inline gov::EpochObservation synthetic_obs(std::size_t epoch,
                                           std::size_t action, double period,
                                           const hw::OppTable& opps) {
  gov::EpochObservation obs;
  obs.epoch = epoch;
  obs.period = period;
  obs.frame_time = period * (0.60 + 0.05 * static_cast<double>(
                                               (epoch * 7 + action) % 12));
  obs.window = obs.frame_time > period ? obs.frame_time : period;
  obs.opp_index = action;
  const double freq = opps.at(action).frequency;
  std::vector<common::Cycles> cycles(4);
  obs.total_cycles = 0;
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    cycles[i] = static_cast<common::Cycles>(
        obs.frame_time * freq * (0.70 + 0.06 * static_cast<double>(i)));
    obs.total_cycles += cycles[i];
  }
  obs.core_cycles = std::move(cycles);
  obs.avg_power = 1.0 + 0.2 * static_cast<double>(action);
  // 70..94 degC: crosses the thermal-cap trip (85) and release (78) points,
  // so the decorator's cap state machine actually exercises.
  obs.temperature = 70.0 + static_cast<double>(epoch % 25);
  obs.deadline_met = obs.frame_time <= period;
  return obs;
}

inline sim::Checkpoint sample_checkpoint() {
  sim::Checkpoint ck;
  ck.governor = "test-governor";
  ck.application = "test-app";
  ck.opp_count = 19;
  ck.core_count = 4;
  ck.frame_position = 173;
  ck.aggregates.epoch_count = 173;
  ck.aggregates.total_energy = 12.5;
  ck.aggregates.total_time = 6.92;
  ck.aggregates.deadline_misses = 3;
  ck.aggregates.performance_sum = 150.25;
  ck.aggregates.power_sum = 310.0;
  ck.has_last = true;
  ck.last = synthetic_obs(172, 5, 1.0 / 30.0,
                          hw::Platform::odroid_xu3_a15()->opp_table());
  ck.governor_state = std::string("\x01\x02\x03\x00\x04", 5);
  ck.platform_state = std::string(300, '\x7f');
  return ck;
}

// --- `.qpol` ------------------------------------------------------------------

inline wl::Application make_app(const std::string& workload,
                                std::uint64_t seed,
                                const hw::Platform& platform,
                                double fps = 25.0, std::size_t frames = 200) {
  sim::ExperimentSpec spec;
  spec.workload = workload;
  spec.fps = fps;
  spec.frames = frames;
  spec.seed = seed;
  return sim::make_application(spec, platform);
}

/// Train one governor on a short run and return its leaf policy entry.
inline qlib::PolicyEntry train_leaf(const hw::Platform& platform,
                                    const std::string& spec,
                                    std::uint64_t gov_seed,
                                    std::uint64_t trace_seed,
                                    const std::string& workload = "mpeg4") {
  const wl::Application app = make_app(workload, trace_seed, platform);
  const auto governor = sim::make_governor(spec, gov_seed);
  const sim::RunResult run = sim::run_simulation(
      const_cast<hw::Platform&>(platform), app, *governor);
  return qlib::make_leaf_entry(platform, *governor, workload, 25.0, spec,
                               run.epoch_count);
}

// --- `.fsum` ------------------------------------------------------------------

/// A tiny population that runs in milliseconds per device: 2 governors x 1
/// workload x 3 replicas = 6 devices of 20 frames each.
inline fleet::PopulationSpec tiny_population() {
  fleet::PopulationSpec pop;
  pop.governors = {"performance", "ondemand"};
  pop.workloads = {"flat(mean=2e8,cv=0.1)"};
  pop.fps = {30.0};
  pop.devices_per_cell = 3;
  pop.frames = 20;
  pop.base_seed = 99;
  pop.energy_bins = 64;
  pop.miss_bins = 32;
  pop.perf_bins = 32;
  return pop;
}

/// Random (non-dyadic) per-device results: ExactSum and integer histograms
/// must make the *cell* merge exact even where plain f64 sums would drift.
inline sim::RunResult random_result(common::Rng& rng) {
  sim::RunResult r;
  r.epoch_count = 20;
  r.total_energy = rng.uniform(0.0, 30.0);
  r.measured_energy = rng.uniform(0.0, 30.0);
  r.total_time = rng.uniform(0.1, 2.0);
  r.deadline_misses = static_cast<std::size_t>(rng.next_u64() % 20);
  r.performance_sum = rng.uniform(10.0, 40.0);
  r.power_sum = rng.uniform(20.0, 90.0);
  return r;
}

inline fleet::ShardSummary sample_summary(const fleet::PopulationSpec& pop) {
  fleet::ShardSummary s;
  s.fingerprint = pop.fingerprint();
  s.shard = fleet::Shard{1, 2, 3, 6};
  s.next_device = 5;
  s.started_at_device = 3;
  common::Rng rng(31);
  fleet::CellStats stats(pop);
  stats.add_device(random_result(rng));
  stats.add_device(random_result(rng));
  s.cells.emplace(1, stats);
  return s;
}

}  // namespace prime::testing_util
