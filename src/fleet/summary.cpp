#include "fleet/summary.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

#include "common/atomic_file.hpp"
#include "common/binio.hpp"
#include "common/serial.hpp"

namespace prime::fleet {

namespace {

// Header field offsets (see the layout table in summary.hpp).
constexpr std::size_t kOffMagic = 0;
constexpr std::size_t kOffVersion = 8;
constexpr std::size_t kOffHeaderSize = 12;
constexpr std::size_t kOffPayloadSize = 16;
constexpr std::size_t kOffShardIndex = 24;
constexpr std::size_t kOffShardCount = 32;

void write_aggregates(common::StateWriter& w, const sim::RunResult& r) {
  w.str(r.governor);
  w.str(r.application);
  w.size(r.epoch_count);
  w.f64(r.total_energy);
  w.f64(r.measured_energy);
  w.f64(r.total_time);
  w.size(r.deadline_misses);
  w.f64(r.performance_sum);
  w.f64(r.power_sum);
}

void read_aggregates(common::StateReader& r, sim::RunResult& out) {
  out.governor = r.str();
  out.application = r.str();
  out.epoch_count = r.size();
  out.total_energy = r.f64();
  out.measured_energy = r.f64();
  out.total_time = r.f64();
  out.deadline_misses = r.size();
  out.performance_sum = r.f64();
  out.power_sum = r.f64();
}

/// Merge accumulators can exceed StateReader's string bound (a large Q-table
/// payload), so they travel as a bare u64 length + raw bytes with their own
/// generous sanity cap — the checkpoint blob convention.
constexpr std::uint64_t kMaxBlob = std::uint64_t{1} << 30;

void write_blob(common::StateWriter& w, std::ostream& out,
                const std::string& blob) {
  w.u64(blob.size());
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
}

std::string read_blob(common::StateReader& r, std::istream& in,
                      const std::string& label) {
  const std::uint64_t n = r.u64();
  if (n > kMaxBlob) {
    throw FleetError("shard summary '" + label +
                     "': policy accumulator claims " + std::to_string(n) +
                     " bytes (corrupt length)");
  }
  std::string blob(static_cast<std::size_t>(n), '\0');
  in.read(blob.data(), static_cast<std::streamsize>(n));
  if (static_cast<std::uint64_t>(in.gcount()) != n) {
    throw FleetError("shard summary '" + label +
                     "': truncated policy accumulator");
  }
  return blob;
}

}  // namespace

CellStats::CellStats()
    : energy_hist(0.0, 1.0, 1), miss_hist(0.0, 1.0, 1), perf_hist(0.0, 1.0, 1) {}

CellStats::CellStats(const PopulationSpec& pop)
    : energy_hist(0.0, pop.resolved_energy_hi(), pop.energy_bins),
      miss_hist(0.0, 1.0, pop.miss_bins),
      perf_hist(0.0, pop.perf_hi, pop.perf_bins) {}

void CellStats::add_device(const sim::RunResult& result) {
  ++devices;
  run.merge(result);
  const double performance = result.mean_normalized_performance();
  const double miss_rate = result.miss_rate();
  const double power = result.mean_power();
  energy_sum.add(result.total_energy);
  time_sum.add(result.total_time);
  perf_sum.add(performance);
  power_sum.add(power);
  miss_sum.add(miss_rate);
  energy_hist.add(result.total_energy);
  miss_hist.add(miss_rate);
  perf_hist.add(performance);
}

void CellStats::merge(const CellStats& other) {
  // Histogram::merge throws on geometry mismatch before any state changes,
  // so check all three up front to keep *this untouched on failure.
  if (!energy_hist.bin_compatible(other.energy_hist) ||
      !miss_hist.bin_compatible(other.miss_hist) ||
      !perf_hist.bin_compatible(other.perf_hist)) {
    throw std::invalid_argument(
        "CellStats::merge: histogram geometry mismatch — the shards were not "
        "produced by the same population");
  }
  devices += other.devices;
  run.merge(other.run);
  energy_sum += other.energy_sum;
  time_sum += other.time_sum;
  perf_sum += other.perf_sum;
  power_sum += other.power_sum;
  miss_sum += other.miss_sum;
  energy_hist.merge(other.energy_hist);
  miss_hist.merge(other.miss_hist);
  perf_hist.merge(other.perf_hist);
}

double CellStats::mean_energy() const noexcept {
  return devices == 0 ? 0.0 : energy_sum.value() / static_cast<double>(devices);
}

double CellStats::mean_miss_rate() const noexcept {
  return devices == 0 ? 0.0 : miss_sum.value() / static_cast<double>(devices);
}

double CellStats::mean_performance() const noexcept {
  return devices == 0 ? 0.0 : perf_sum.value() / static_cast<double>(devices);
}

double CellStats::mean_power() const noexcept {
  return devices == 0 ? 0.0 : power_sum.value() / static_cast<double>(devices);
}

void CellStats::save_state(common::StateWriter& out) const {
  out.u64(devices);
  write_aggregates(out, run);
  energy_sum.save_state(out);
  time_sum.save_state(out);
  perf_sum.save_state(out);
  power_sum.save_state(out);
  miss_sum.save_state(out);
  energy_hist.save_state(out);
  miss_hist.save_state(out);
  perf_hist.save_state(out);
}

void CellStats::load_state(common::StateReader& in) {
  devices = in.u64();
  read_aggregates(in, run);
  energy_sum.load_state(in);
  time_sum.load_state(in);
  perf_sum.load_state(in);
  power_sum.load_state(in);
  miss_sum.load_state(in);
  energy_hist.load_state(in);
  miss_hist.load_state(in);
  perf_hist.load_state(in);
}

void ShardSummary::write(std::ostream& out) const {
  const std::streampos base = out.tellp();
  std::array<unsigned char, kShardSummaryHeaderSize> header{};
  std::copy(kShardSummaryMagic.begin(), kShardSummaryMagic.end(),
            header.begin() + kOffMagic);
  common::store_u32(header.data() + kOffVersion, kShardSummaryVersion);
  common::store_u32(header.data() + kOffHeaderSize,
                    static_cast<std::uint32_t>(kShardSummaryHeaderSize));
  common::store_u64(header.data() + kOffPayloadSize, kShardSummaryUnsealed);
  common::store_u64(header.data() + kOffShardIndex, shard.index);
  common::store_u64(header.data() + kOffShardCount, shard.count);
  out.write(reinterpret_cast<const char*>(header.data()), header.size());

  common::StateWriter w(out);
  w.u64(fingerprint);
  w.size(shard.device_begin);
  w.size(shard.device_end);
  w.u64(next_device);
  w.u64(started_at_device);
  w.size(cells.size());
  for (const auto& [cell_index, stats] : cells) {
    w.u64(cell_index);
    stats.save_state(w);
  }
  w.size(policies.size());
  for (const auto& [cell_index, policy] : policies) {
    w.u64(cell_index);
    w.boolean(policy.mergeable);
    w.str(policy.governor_name);
    w.u64(policy.opp_count);
    w.u64(policy.core_count);
    w.u64(policy.platform_fingerprint);
    w.u64(policy.epochs);
    w.u64(policy.source_fingerprint);
    write_blob(w, out, policy.accumulator);
  }

  // Seal: patch the payload size in place only now that every byte is down.
  const std::streampos end = out.tellp();
  const auto payload = static_cast<std::uint64_t>(
      end - base - static_cast<std::streamoff>(kShardSummaryHeaderSize));
  unsigned char sealed[8];
  common::store_u64(sealed, payload);
  out.seekp(base + static_cast<std::streamoff>(kOffPayloadSize));
  out.write(reinterpret_cast<const char*>(sealed), sizeof(sealed));
  out.seekp(end);
  out.flush();
  if (!out.good()) {
    throw FleetError(
        "shard summary: stream write failed while sealing (disk full?)");
  }
}

ShardSummary ShardSummary::read(std::istream& in, const std::string& label) {
  std::array<unsigned char, kShardSummaryHeaderSize> header{};
  in.read(reinterpret_cast<char*>(header.data()), header.size());
  if (static_cast<std::size_t>(in.gcount()) != header.size()) {
    throw FleetError("shard summary '" + label + "': truncated header");
  }
  if (!std::equal(kShardSummaryMagic.begin(), kShardSummaryMagic.end(),
                  header.begin() + kOffMagic)) {
    throw FleetError("shard summary '" + label +
                     "': bad magic — not a PRIME-RTM shard summary");
  }
  const std::uint32_t version = common::load_u32(header.data() + kOffVersion);
  if (version != kShardSummaryVersion) {
    throw FleetError("shard summary '" + label + "': unsupported version " +
                     std::to_string(version) + " (this build supports " +
                     std::to_string(kShardSummaryVersion) + ")");
  }
  const std::uint32_t header_size =
      common::load_u32(header.data() + kOffHeaderSize);
  if (header_size != kShardSummaryHeaderSize) {
    throw FleetError("shard summary '" + label + "': header size mismatch (" +
                     std::to_string(header_size) + ", expected " +
                     std::to_string(kShardSummaryHeaderSize) + ")");
  }
  const std::uint64_t payload =
      common::load_u64(header.data() + kOffPayloadSize);
  if (payload == kShardSummaryUnsealed) {
    throw FleetError("shard summary '" + label +
                     "': unsealed — the writer never finished (torn write or "
                     "crashed worker)");
  }

  ShardSummary s;
  s.shard.index =
      static_cast<std::size_t>(common::load_u64(header.data() + kOffShardIndex));
  s.shard.count =
      static_cast<std::size_t>(common::load_u64(header.data() + kOffShardCount));
  const std::streampos payload_start = in.tellg();
  try {
    common::StateReader r(in);
    s.fingerprint = r.u64();
    s.shard.device_begin = r.size();
    s.shard.device_end = r.size();
    s.next_device = r.u64();
    s.started_at_device = r.u64();
    const std::size_t cell_count = r.size();
    for (std::size_t i = 0; i < cell_count; ++i) {
      const std::uint64_t cell_index = r.u64();
      if (s.cells.count(cell_index) != 0) {
        throw FleetError("shard summary '" + label + "': duplicate cell " +
                         std::to_string(cell_index));
      }
      s.cells[cell_index].load_state(r);
    }
    const std::size_t policy_count = r.size();
    for (std::size_t i = 0; i < policy_count; ++i) {
      const std::uint64_t cell_index = r.u64();
      if (s.policies.count(cell_index) != 0) {
        throw FleetError("shard summary '" + label +
                         "': duplicate policy record for cell " +
                         std::to_string(cell_index));
      }
      CellPolicy& policy = s.policies[cell_index];
      policy.mergeable = r.boolean();
      policy.governor_name = r.str();
      policy.opp_count = r.u64();
      policy.core_count = r.u64();
      policy.platform_fingerprint = r.u64();
      policy.epochs = r.u64();
      policy.source_fingerprint = r.u64();
      policy.accumulator = read_blob(r, in, label);
    }
  } catch (const common::SerialError& e) {
    throw FleetError("shard summary '" + label + "': " + e.what());
  }
  const auto consumed = static_cast<std::uint64_t>(in.tellg() - payload_start);
  if (consumed != payload) {
    throw FleetError("shard summary '" + label +
                     "': payload size mismatch (header promises " +
                     std::to_string(payload) + " bytes, parsed " +
                     std::to_string(consumed) + ") — truncated or trailing "
                     "bytes");
  }
  // Anything after the sealed payload is not ours: reject rather than ignore.
  in.peek();
  if (!in.eof()) {
    throw FleetError("shard summary '" + label +
                     "': trailing bytes after the sealed payload");
  }
  if (s.shard.device_end < s.shard.device_begin ||
      s.next_device < s.shard.device_begin ||
      s.next_device > s.shard.device_end ||
      s.started_at_device < s.shard.device_begin ||
      s.started_at_device > s.next_device) {
    throw FleetError("shard summary '" + label +
                     "': inconsistent device range [" +
                     std::to_string(s.shard.device_begin) + ", " +
                     std::to_string(s.shard.device_end) + ") with progress " +
                     std::to_string(s.next_device));
  }
  return s;
}

void ShardSummary::save_file(const std::string& path) const {
  common::save_file_atomically<FleetError>(
      path, "shard summary", [this](std::ostream& out) { write(out); });
}

ShardSummary ShardSummary::load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw FleetError("shard summary '" + path + "': cannot open for reading");
  }
  return read(in, path);
}

std::string shard_summary_path(const std::string& out_dir,
                               std::size_t shard_index) {
  return out_dir + "/shard-" + std::to_string(shard_index) + ".fsum";
}

std::string shard_checkpoint_path(const std::string& out_dir,
                                  std::size_t shard_index) {
  return out_dir + "/shard-" + std::to_string(shard_index) + ".ckpt";
}

}  // namespace prime::fleet
