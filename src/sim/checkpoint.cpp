#include "sim/checkpoint.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <system_error>
#include <utility>

#include "common/atomic_file.hpp"
#include "common/binio.hpp"
#include "common/log.hpp"
#include "common/serial.hpp"

namespace prime::sim {

namespace {

// Header field offsets (see the layout table in checkpoint.hpp).
constexpr std::size_t kOffMagic = 0;
constexpr std::size_t kOffVersion = 8;
constexpr std::size_t kOffHeaderSize = 12;
constexpr std::size_t kOffPayloadSize = 16;
constexpr std::size_t kOffFramePosition = 24;

void write_aggregates(common::StateWriter& w, const RunResult& r) {
  w.size(r.epoch_count);
  w.f64(r.total_energy);
  w.f64(r.measured_energy);
  w.f64(r.total_time);
  w.size(r.deadline_misses);
  w.f64(r.performance_sum);
  w.f64(r.power_sum);
}

void read_aggregates(common::StateReader& r, RunResult& out) {
  out.epoch_count = r.size();
  out.total_energy = r.f64();
  out.measured_energy = r.f64();
  out.total_time = r.f64();
  out.deadline_misses = r.size();
  out.performance_sum = r.f64();
  out.power_sum = r.f64();
}

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

/// Opaque state blobs can exceed StateReader's string bound (a large Q-table
/// payload), so they travel as a bare u64 length + raw bytes with their own
/// generous sanity cap.
constexpr std::uint64_t kMaxBlob = std::uint64_t{1} << 30;

void write_blob(common::StateWriter& w, std::ostream& out,
                const std::string& blob) {
  w.u64(blob.size());
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
}

std::string read_blob(common::StateReader& r, std::istream& in,
                      const std::string& label, const char* what) {
  const std::uint64_t n = r.u64();
  if (n > kMaxBlob) {
    throw CheckpointError("checkpoint '" + label + "': " + what +
                          " state blob claims " + std::to_string(n) +
                          " bytes (corrupt length)");
  }
  std::string blob(static_cast<std::size_t>(n), '\0');
  in.read(blob.data(), static_cast<std::streamsize>(n));
  if (static_cast<std::uint64_t>(in.gcount()) != n) {
    throw CheckpointError("checkpoint '" + label + "': truncated " +
                          std::string(what) + " state blob");
  }
  return blob;
}

}  // namespace

void Checkpoint::write(std::ostream& out) const {
  const std::streampos base = out.tellp();
  std::array<unsigned char, kCheckpointHeaderSize> header{};
  std::copy(kCheckpointMagic.begin(), kCheckpointMagic.end(),
            header.begin() + kOffMagic);
  common::store_u32(header.data() + kOffVersion, kCheckpointVersion);
  common::store_u32(header.data() + kOffHeaderSize,
                    static_cast<std::uint32_t>(kCheckpointHeaderSize));
  common::store_u64(header.data() + kOffPayloadSize, kCheckpointUnsealed);
  common::store_u64(header.data() + kOffFramePosition, frame_position);
  out.write(reinterpret_cast<const char*>(header.data()), header.size());

  common::StateWriter w(out);
  w.str(governor);
  w.str(application);
  w.u64(opp_count);
  w.u64(core_count);
  w.u64(platform_fingerprint);
  write_aggregates(w, aggregates);
  w.boolean(has_last);
  if (has_last) write_observation(w, last);
  write_blob(w, out, governor_state);
  write_blob(w, out, platform_state);

  // Seal: patch the payload size in place only now that every byte is down.
  const std::streampos end = out.tellp();
  const auto payload = static_cast<std::uint64_t>(
      end - base - static_cast<std::streamoff>(kCheckpointHeaderSize));
  unsigned char sealed[8];
  common::store_u64(sealed, payload);
  out.seekp(base + static_cast<std::streamoff>(kOffPayloadSize));
  out.write(reinterpret_cast<const char*>(sealed), sizeof(sealed));
  out.seekp(end);
  out.flush();
  if (!out.good()) {
    throw CheckpointError(
        "checkpoint: stream write failed while sealing (disk full?)");
  }
}

Checkpoint Checkpoint::read(std::istream& in, const std::string& label) {
  std::array<unsigned char, kCheckpointHeaderSize> header{};
  in.read(reinterpret_cast<char*>(header.data()), header.size());
  if (static_cast<std::size_t>(in.gcount()) != header.size()) {
    throw CheckpointError("checkpoint '" + label + "': truncated header");
  }
  if (!std::equal(kCheckpointMagic.begin(), kCheckpointMagic.end(),
                  header.begin() + kOffMagic)) {
    throw CheckpointError("checkpoint '" + label +
                          "': bad magic — not a PRIME-RTM checkpoint");
  }
  const std::uint32_t version = common::load_u32(header.data() + kOffVersion);
  if (version != kCheckpointVersion) {
    throw CheckpointError("checkpoint '" + label + "': unsupported version " +
                          std::to_string(version) + " (this build supports " +
                          std::to_string(kCheckpointVersion) + ")");
  }
  const std::uint32_t header_size =
      common::load_u32(header.data() + kOffHeaderSize);
  if (header_size != kCheckpointHeaderSize) {
    throw CheckpointError("checkpoint '" + label + "': header size mismatch (" +
                          std::to_string(header_size) + ", expected " +
                          std::to_string(kCheckpointHeaderSize) + ")");
  }
  const std::uint64_t payload =
      common::load_u64(header.data() + kOffPayloadSize);
  if (payload == kCheckpointUnsealed) {
    throw CheckpointError("checkpoint '" + label +
                          "': unsealed — the writer never finished (torn "
                          "write or crashed producer)");
  }

  Checkpoint ck;
  ck.frame_position = common::load_u64(header.data() + kOffFramePosition);
  const std::streampos payload_start = in.tellg();
  try {
    common::StateReader r(in);
    ck.governor = r.str();
    ck.application = r.str();
    ck.opp_count = r.u64();
    ck.core_count = r.u64();
    ck.platform_fingerprint = r.u64();
    read_aggregates(r, ck.aggregates);
    ck.aggregates.governor = ck.governor;
    ck.aggregates.application = ck.application;
    ck.has_last = r.boolean();
    if (ck.has_last) ck.last = read_observation(r);
    ck.governor_state = read_blob(r, in, label, "governor");
    ck.platform_state = read_blob(r, in, label, "platform");
  } catch (const common::SerialError& e) {
    throw CheckpointError("checkpoint '" + label + "': " + e.what());
  }
  const auto consumed =
      static_cast<std::uint64_t>(in.tellg() - payload_start);
  if (consumed != payload) {
    throw CheckpointError(
        "checkpoint '" + label + "': payload size mismatch (header promises " +
        std::to_string(payload) + " bytes, parsed " +
        std::to_string(consumed) + ") — truncated or trailing bytes");
  }
  // Anything after the sealed payload is not ours: reject rather than ignore.
  in.peek();
  if (!in.eof()) {
    throw CheckpointError("checkpoint '" + label +
                          "': trailing bytes after the sealed payload");
  }
  return ck;
}

void Checkpoint::save_file(const std::string& path) const {
  common::save_file_atomically<CheckpointError>(
      path, "checkpoint", [this](std::ostream& out) { write(out); });
}

Checkpoint Checkpoint::load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw CheckpointError("checkpoint '" + path + "': cannot open for "
                          "reading");
  }
  return read(in, path);
}

// --- CheckpointSink ----------------------------------------------------------

CheckpointSink::CheckpointSink(std::string path, std::size_t every)
    : path_(std::move(path)), every_(every) {
  if (path_.empty()) {
    throw std::invalid_argument("CheckpointSink: a path is required");
  }
}

void CheckpointSink::bind(CheckpointSnapshotFn snapshot) {
  // Only a run that already threw leaves a write in flight here. Its own
  // exception is the one propagating, so a failed write is logged instead.
  try {
    await_pending();
  } catch (const std::exception& e) {
    common::log_warn() << e.what() << " (the run had already failed)";
  }
  snapshot_ = std::move(snapshot);
}

void CheckpointSink::on_run_begin(const RunContext&) {
  if (!snapshot_) {
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
  snapshot_ = nullptr;  // the engine's captures die with the run
}

void CheckpointSink::write_snapshot(bool background) {
  await_pending();
  const auto ck = std::make_shared<const Checkpoint>(snapshot_());
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
