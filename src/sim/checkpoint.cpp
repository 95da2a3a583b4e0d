#include "sim/checkpoint.hpp"

#include <fstream>
#include <memory>
#include <sstream>
#include <system_error>
#include <utility>

#include "common/atomic_file.hpp"
#include "common/log.hpp"
#include "common/sealed.hpp"
#include "common/serial.hpp"

namespace prime::sim {

namespace {

constexpr common::SealedFormat kFormat{kCheckpointMagic, kCheckpointVersion,
                                      "checkpoint"};

void write_observation(common::StateWriter& w,
                       const gov::EpochObservation& obs) {
  w.size(obs.epoch);
  w.f64(obs.period);
  w.f64(obs.frame_time);
  w.f64(obs.window);
  w.u64(obs.total_cycles);
  // Same byte layout as StateWriter::vec_u64 (count + elements); core_cycles
  // is a CycleSpan view now, so the elements are written directly.
  w.u64(obs.core_cycles.size());
  for (const common::Cycles c : obs.core_cycles) w.u64(c);
  w.size(obs.opp_index);
  w.f64(obs.avg_power);
  w.f64(obs.temperature);
  w.boolean(obs.deadline_met);
}

gov::EpochObservation read_observation(common::StateReader& r) {
  gov::EpochObservation obs;
  obs.epoch = r.size();
  obs.period = r.f64();
  obs.frame_time = r.f64();
  obs.window = r.f64();
  obs.total_cycles = r.u64();
  obs.core_cycles = r.vec_u64();
  obs.opp_index = r.size();
  obs.avg_power = r.f64();
  obs.temperature = r.f64();
  obs.deadline_met = r.boolean();
  return obs;
}

/// A point-in-time image of the bound run. Its aggregates gain one epoch
/// per emitted record across sessions, so their epoch count is the
/// absolute frame position.
Checkpoint snapshot_of(const RunBinding& run) {
  Checkpoint ck;
  ck.governor = run.governor.name();
  ck.application = run.app.name();
  ck.opp_count = run.platform.opp_table().size();
  ck.core_count = run.platform.total_cores();
  ck.platform_fingerprint = run.platform.shape_fingerprint();
  ck.frame_position = run.result.epoch_count;
  ck.aggregates = run.result;
  ck.has_last = run.last.has_value();
  if (run.last) ck.last = *run.last;
  std::ostringstream governor_state;
  run.governor.save_state(governor_state);
  ck.governor_state = governor_state.str();
  std::ostringstream platform_state;
  run.platform.save_state(platform_state);
  ck.platform_state = platform_state.str();
  return ck;
}

}  // namespace

void save_aggregates(common::StateWriter& out, const RunResult& r) {
  out.size(r.epoch_count);
  out.f64(r.total_energy);
  out.f64(r.measured_energy);
  out.f64(r.total_time);
  out.size(r.deadline_misses);
  out.f64(r.performance_sum);
  out.f64(r.power_sum);
}

void load_aggregates(common::StateReader& in, RunResult& r) {
  r.epoch_count = in.size();
  r.total_energy = in.f64();
  r.measured_energy = in.f64();
  r.total_time = in.f64();
  r.deadline_misses = in.size();
  r.performance_sum = in.f64();
  r.power_sum = in.f64();
}

void Checkpoint::write(std::ostream& out) const {
  common::write_sealed<CheckpointError>(
      out, kFormat, {frame_position}, [&](common::StateWriter& w) {
        w.str(governor);
        w.str(application);
        w.u64(opp_count);
        w.u64(core_count);
        w.u64(platform_fingerprint);
        save_aggregates(w, aggregates);
        w.boolean(has_last);
        if (has_last) write_observation(w, last);
        w.str(governor_state);
        w.str(platform_state);
      });
}

Checkpoint Checkpoint::read(std::istream& in, const std::string& label) {
  Checkpoint ck;
  const common::SealedWords words = common::read_sealed<CheckpointError>(
      in, kFormat, label, [&](common::StateReader& r) {
        ck.governor = r.str();
        ck.application = r.str();
        ck.opp_count = r.u64();
        ck.core_count = r.u64();
        ck.platform_fingerprint = r.u64();
        load_aggregates(r, ck.aggregates);
        ck.aggregates.governor = ck.governor;
        ck.aggregates.application = ck.application;
        ck.has_last = r.boolean();
        if (ck.has_last) ck.last = read_observation(r);
        ck.governor_state = r.blob();
        ck.platform_state = r.blob();
      });
  ck.frame_position = words[0];
  return ck;
}

void Checkpoint::save_file(const std::string& path) const {
  common::save_file_atomically<CheckpointError>(
      path, kFormat.name, [this](std::ostream& out) { write(out); });
}

Checkpoint Checkpoint::load_file(const std::string& path) {
  std::ifstream in = common::open_sealed<CheckpointError>(path, kFormat);
  return read(in, path);
}

// --- CheckpointSink ----------------------------------------------------------

CheckpointSink::CheckpointSink(std::string path, std::size_t every)
    : path_(std::move(path)), every_(every) {
  if (path_.empty()) {
    throw std::invalid_argument("CheckpointSink: a path is required");
  }
}

void CheckpointSink::bind(RunBinding* run) {
  // Only a run that already threw leaves a write in flight here. Its own
  // exception is the one propagating, so a failed write is logged instead.
  try {
    await_pending();
  } catch (const std::exception& e) {
    common::log_warn() << e.what() << " (the run had already failed)";
  }
  run_ = nullptr;
  if (run == nullptr) return;
  const std::size_t domains = run->platform.domain_count();
  if (domains > 1) {
    // The format stores one pending observation; multi-domain runs carry
    // one per domain. Fail loudly rather than checkpoint a run that could
    // only resume with domains 1..N re-observing from scratch.
    throw std::invalid_argument(
        "run_simulation: checkpoint sinks are not yet supported on "
        "multi-domain platforms (" +
        std::to_string(domains) + " DVFS domains configured)");
  }
  run_ = run;
}

void CheckpointSink::on_run_begin(const RunContext&) {
  if (run_ == nullptr) {
    throw std::logic_error(
        "CheckpointSink '" + path_ +
        "': not bound to a run — checkpointing is only supported by the "
        "single-app engine (run_simulation), which binds attached checkpoint "
        "sinks at run begin");
  }
  seen_ = 0;
  written_ = 0;
}

void CheckpointSink::on_epoch(const EpochRecord&, gov::Governor&) {
  ++seen_;
  if (every_ > 0 && seen_ % every_ == 0) write_snapshot(true);
}

void CheckpointSink::on_run_end(const RunResult&) {
  // Always leave a final checkpoint: a completed run can then be *extended*
  // (resume with a larger max_frames) without replaying its history.
  write_snapshot(false);
}

void CheckpointSink::write_snapshot(bool background) {
  await_pending();
  const auto ck = std::make_shared<const Checkpoint>(snapshot_of(*run_));
  if (background) {
    try {
      pending_ = std::async(std::launch::async,
                            [ck, path = path_] { ck->save_file(path); });
      ++written_;
      return;
    } catch (const std::system_error&) {
      // No thread to be had (EAGAIN): seal it here instead.
    }
  }
  ck->save_file(path_);
  ++written_;
}

void CheckpointSink::await_pending() {
  if (pending_.valid()) pending_.get();  // get() leaves pending_ empty
}

// --- Registry entry ----------------------------------------------------------

namespace {

const TelemetrySinkRegistrar reg_checkpoint{
    telemetry_registry(), "checkpoint",
    "periodic resumable snapshots: checkpoint(path=out/run.ckpt,every=50000); "
    "every=0 writes only the final run-end checkpoint",
    [](const common::Spec& spec) {
      const std::string path = spec.get_string("path", "");
      const long long every = spec.get_int("every", 0);
      if (path.empty()) {
        const auto unknown = spec.unrequested_keys();
        if (!unknown.empty()) {
          throw common::UnknownKeyError("telemetry sink", "checkpoint",
                                        unknown, spec.requested_keys());
        }
        throw std::invalid_argument(
            "telemetry sink 'checkpoint': a path is required, e.g. "
            "checkpoint(path=out/run.ckpt,every=50000)");
      }
      if (every < 0) {
        throw std::invalid_argument(
            "telemetry sink 'checkpoint': every must be >= 0 (got " +
            std::to_string(every) + ")");
      }
      return std::make_unique<CheckpointSink>(
          path, static_cast<std::size_t>(every));
    }};

}  // namespace

}  // namespace prime::sim
