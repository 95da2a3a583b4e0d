/// \file run_digest.hpp
/// \brief One FNV-1a digest over a run's aggregates and every epoch record,
///        doubles by bit pattern — the value the epoch-loop pins commit, so
///        a rework of a loop that moves a single bit fails its pin.
#pragma once

#include <cstdint>
#include <vector>

#include "common/hash.hpp"
#include "sim/engine.hpp"

namespace prime::testing_util {

/// \brief Fold every field of \p r and of each record in \p records into one
///        digest.
inline std::uint64_t run_digest(const sim::RunResult& r,
                                const std::vector<sim::EpochRecord>& records) {
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
  for (const sim::EpochRecord& rec : records) {
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

}  // namespace prime::testing_util
