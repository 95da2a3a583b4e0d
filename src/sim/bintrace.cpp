#include "sim/bintrace.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/binio.hpp"
#include "common/csv.hpp"
#include "common/spec.hpp"

namespace prime::sim {

namespace {

using common::load_f64;
using common::load_u32;
using common::load_u64;
using common::store_f64;
using common::store_u32;
using common::store_u64;

// Header field offsets (see the layout table in bintrace.hpp).
constexpr std::size_t kOffMagic = 0;
constexpr std::size_t kOffVersion = 8;
constexpr std::size_t kOffHeaderSize = 12;
constexpr std::size_t kOffRecordSize = 16;
constexpr std::size_t kOffCount = 24;
constexpr std::size_t kOffGovernor = 32;
constexpr std::size_t kOffApplication = 72;

void store_name(unsigned char* field, const std::string& name) {
  const std::size_t n = std::min(name.size(), kBinTraceNameSize);
  std::memcpy(field, name.data(), n);
  // The remaining bytes were zeroed with the header buffer: NUL padding.
}

std::string load_name(const unsigned char* field) {
  std::size_t n = 0;
  while (n < kBinTraceNameSize && field[n] != 0) ++n;
  return std::string(reinterpret_cast<const char*>(field), n);
}

}  // namespace

void encode_record(const EpochRecord& record, unsigned char* out) noexcept {
  store_u64(out + 0, static_cast<std::uint64_t>(record.epoch));
  store_f64(out + 8, record.period);
  store_u32(out + 16, static_cast<std::uint32_t>(record.opp_index));
  store_u32(out + 20, record.deadline_met ? 1u : 0u);
  store_f64(out + 24, record.frequency);
  store_u64(out + 32, record.demand);
  store_u64(out + 40, record.executed);
  store_f64(out + 48, record.frame_time);
  store_f64(out + 56, record.window);
  store_f64(out + 64, record.energy);
  store_f64(out + 72, record.sensor_power);
  store_f64(out + 80, record.temperature);
  store_f64(out + 88, record.slack);
}

EpochRecord decode_record(const unsigned char* in) noexcept {
  EpochRecord r;
  r.epoch = static_cast<std::size_t>(load_u64(in + 0));
  r.period = load_f64(in + 8);
  r.opp_index = static_cast<std::size_t>(load_u32(in + 16));
  r.deadline_met = (load_u32(in + 20) & 1u) != 0;
  r.frequency = load_f64(in + 24);
  r.demand = load_u64(in + 32);
  r.executed = load_u64(in + 40);
  r.frame_time = load_f64(in + 48);
  r.window = load_f64(in + 56);
  r.energy = load_f64(in + 64);
  r.sensor_power = load_f64(in + 72);
  r.temperature = load_f64(in + 80);
  r.slack = load_f64(in + 88);
  return r;
}

// --- BinTraceWriter ----------------------------------------------------------

BinTraceWriter::BinTraceWriter(std::ostream& out) : out_(&out) {}

void BinTraceWriter::begin(const std::string& governor,
                           const std::string& application) {
  if (begun_) {
    throw std::logic_error("BinTraceWriter: begin() called twice");
  }
  std::array<unsigned char, kBinTraceHeaderSize> header{};
  std::copy(kBinTraceMagic.begin(), kBinTraceMagic.end(),
            header.begin() + kOffMagic);
  store_u32(header.data() + kOffVersion, kBinTraceVersion);
  store_u32(header.data() + kOffHeaderSize,
            static_cast<std::uint32_t>(kBinTraceHeaderSize));
  store_u32(header.data() + kOffRecordSize,
            static_cast<std::uint32_t>(kBinTraceRecordSize));
  store_u64(header.data() + kOffCount, kBinTraceUnsealed);
  store_name(header.data() + kOffGovernor, governor);
  store_name(header.data() + kOffApplication, application);
  out_->write(reinterpret_cast<const char*>(header.data()), header.size());
  begun_ = true;
}

void BinTraceWriter::append(const EpochRecord& record) {
  if (!begun_ || sealed_) {
    throw std::logic_error(
        "BinTraceWriter: append() outside a begin()..seal() run");
  }
  std::array<unsigned char, kBinTraceRecordSize> buf{};
  encode_record(record, buf.data());
  out_->write(reinterpret_cast<const char*>(buf.data()), buf.size());
  ++count_;
}

void BinTraceWriter::seal() {
  if (!begun_ || sealed_) {
    throw std::logic_error("BinTraceWriter: seal() without a begun, "
                           "unsealed run");
  }
  std::array<unsigned char, 8> count{};
  store_u64(count.data(), count_);
  out_->seekp(static_cast<std::streamoff>(kOffCount));
  out_->write(reinterpret_cast<const char*>(count.data()), count.size());
  out_->seekp(0, std::ios::end);
  out_->flush();
  // badbit is sticky, so this catches any write that failed since begin()
  // (disk full, I/O error) — the run must fail loudly now, not hand the
  // caller a "successful" run whose trace an eventual reader rejects.
  if (!out_->good()) {
    throw std::runtime_error(
        "BinTraceWriter: stream write failed while sealing after " +
        std::to_string(count_) + " records (disk full?)");
  }
  sealed_ = true;
}

// --- BinTraceReader ----------------------------------------------------------

BinTraceReader::BinTraceReader(const std::string& path)
    : BinTraceReader(path, false) {}

BinTraceReader BinTraceReader::follow(const std::string& path) {
  return BinTraceReader(path, true);
}

BinTraceReader::BinTraceReader(const std::string& path, bool follow)
    : path_(path), follow_(follow) {
  in_.open(path, std::ios::binary);
  if (!in_) {
    throw BinTraceError("bintrace '" + path_ + "': cannot open for reading");
  }
  in_.seekg(0, std::ios::end);
  size_ = static_cast<std::uint64_t>(in_.tellg());
  in_.seekg(0);

  std::array<unsigned char, kBinTraceHeaderSize> header{};
  in_.read(reinterpret_cast<char*>(header.data()), header.size());
  if (static_cast<std::size_t>(in_.gcount()) != header.size()) {
    throw BinTraceError("bintrace '" + path_ + "': truncated header (" +
                        std::to_string(size_) + " of " +
                        std::to_string(kBinTraceHeaderSize) +
                        " header bytes)");
  }
  if (!std::equal(kBinTraceMagic.begin(), kBinTraceMagic.end(),
                  header.begin() + kOffMagic)) {
    throw BinTraceError("bintrace '" + path_ +
                        "': bad magic — not a PRIME-RTM binary trace");
  }
  version_ = load_u32(header.data() + kOffVersion);
  if (version_ != kBinTraceVersion) {
    throw BinTraceError("bintrace '" + path_ + "': unsupported version " +
                        std::to_string(version_) + " (this reader supports " +
                        std::to_string(kBinTraceVersion) + ")");
  }
  const std::uint32_t header_size = load_u32(header.data() + kOffHeaderSize);
  if (header_size != kBinTraceHeaderSize) {
    throw BinTraceError("bintrace '" + path_ + "': header size mismatch (" +
                        std::to_string(header_size) + ", expected " +
                        std::to_string(kBinTraceHeaderSize) + ")");
  }
  const std::uint32_t record_size = load_u32(header.data() + kOffRecordSize);
  if (record_size != kBinTraceRecordSize) {
    throw BinTraceError(
        "bintrace '" + path_ + "': record size mismatch (file says " +
        std::to_string(record_size) + " B, this reader expects " +
        std::to_string(kBinTraceRecordSize) +
        " B) — written by an incompatible build");
  }
  count_ = load_u64(header.data() + kOffCount);
  if (count_ == kBinTraceUnsealed) {
    if (!follow_) {
      throw BinTraceError("bintrace '" + path_ +
                          "': unsealed — the producing run never finished "
                          "(crashed or still writing?)");
    }
    // Live trace: the visible count is what the file physically holds in
    // *complete* records. The floor division drops a half-written tail
    // record, so a torn read is impossible by construction.
    sealed_ = false;
    count_ = (size_ - kBinTraceHeaderSize) / kBinTraceRecordSize;
    governor_ = load_name(header.data() + kOffGovernor);
    application_ = load_name(header.data() + kOffApplication);
    stream_pos_ = kBinTraceHeaderSize;  // the header read left us here
    return;
  }
  if (follow_) {
    // The size was statted before the header was read; a producer sealing
    // in between (records flushed, then the count patched) leaves that stat
    // stale. The count is final now, so re-stat before validating against it.
    in_.clear();
    in_.seekg(0, std::ios::end);
    size_ = static_cast<std::uint64_t>(in_.tellg());
    in_.seekg(static_cast<std::streamoff>(kBinTraceHeaderSize));
  }
  // Bound the count by what the file can physically hold *before* computing
  // count * record_size: a corrupt count field must not wrap the expected
  // size modulo 2^64 back onto the real file size and slip through.
  const std::uint64_t max_records =
      (size_ - kBinTraceHeaderSize) / kBinTraceRecordSize;
  if (count_ > max_records) {
    throw BinTraceError(
        "bintrace '" + path_ + "': truncated — header promises " +
        std::to_string(count_) + " records but the file holds " +
        std::to_string(size_) + " bytes (room for " +
        std::to_string(max_records) + "); the final record is incomplete");
  }
  const std::uint64_t expected =
      kBinTraceHeaderSize + count_ * kBinTraceRecordSize;
  if (size_ > expected) {
    throw BinTraceError("bintrace '" + path_ + "': " +
                        std::to_string(size_ - expected) +
                        " trailing bytes after the last record");
  }
  governor_ = load_name(header.data() + kOffGovernor);
  application_ = load_name(header.data() + kOffApplication);
  stream_pos_ = kBinTraceHeaderSize;  // the header read left us here
}

std::size_t BinTraceReader::refresh() {
  if (!follow_) {
    throw std::logic_error("bintrace '" + path_ +
                           "': refresh() is only valid in follow mode");
  }
  if (sealed_) return record_count();  // the count is final; nothing moves
  // Read the count field *before* re-statting the size: the producer
  // flushes all records before patching the count (seal() seeks, which
  // drains the write buffer first), so a sealed count observed here
  // guarantees the stat below sees the complete file.
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(kOffCount));
  std::array<unsigned char, 8> buf{};
  in_.read(reinterpret_cast<char*>(buf.data()), buf.size());
  stream_pos_ = kBinTraceUnsealed;  // position unknown after the seeks
  if (static_cast<std::size_t>(in_.gcount()) != buf.size()) {
    throw BinTraceError("bintrace '" + path_ +
                        "': shrank below the header while following");
  }
  const std::uint64_t header_count = load_u64(buf.data());
  in_.clear();
  in_.seekg(0, std::ios::end);
  const std::uint64_t new_size = static_cast<std::uint64_t>(in_.tellg());
  if (new_size < size_) {
    throw BinTraceError("bintrace '" + path_ + "': shrank from " +
                        std::to_string(size_) + " to " +
                        std::to_string(new_size) +
                        " bytes while following — truncated underneath "
                        "the reader");
  }
  size_ = new_size;
  const std::uint64_t max_records =
      (size_ - kBinTraceHeaderSize) / kBinTraceRecordSize;
  if (header_count == kBinTraceUnsealed) {
    count_ = max_records;
  } else if (header_count > max_records) {
    throw BinTraceError(
        "bintrace '" + path_ + "': sealed count " +
        std::to_string(header_count) + " exceeds the " +
        std::to_string(max_records) +
        " records the file holds — truncated after sealing");
  } else {
    count_ = header_count;
    sealed_ = true;
  }
  return record_count();
}

EpochRecord BinTraceReader::read_record_at(std::uint64_t index) {
  // Seek only when the stream is not already at the record: sequential
  // iteration (next(), to_csv) then runs on plain buffered reads instead of
  // one seek + buffer refill per 96-byte record.
  const std::uint64_t offset =
      kBinTraceHeaderSize + index * kBinTraceRecordSize;
  if (stream_pos_ != offset) {
    in_.clear();
    in_.seekg(static_cast<std::streamoff>(offset));
  }
  std::array<unsigned char, kBinTraceRecordSize> buf{};
  in_.read(reinterpret_cast<char*>(buf.data()), buf.size());
  if (static_cast<std::size_t>(in_.gcount()) != buf.size()) {
    // Unreachable after the constructor's size validation unless the file
    // shrank underneath us; fail closed regardless.
    stream_pos_ = kBinTraceUnsealed;  // position unknown: force a re-seek
    throw BinTraceError("bintrace '" + path_ + "': short read at record " +
                        std::to_string(index));
  }
  stream_pos_ = offset + kBinTraceRecordSize;
  return decode_record(buf.data());
}

EpochRecord BinTraceReader::at(std::size_t index) {
  if (index >= count_) {
    throw std::out_of_range("bintrace '" + path_ + "': record " +
                            std::to_string(index) + " out of range (count " +
                            std::to_string(count_) + ")");
  }
  return read_record_at(index);
}

std::optional<EpochRecord> BinTraceReader::next() {
  if (cursor_ >= count_) return std::nullopt;
  return read_record_at(cursor_++);
}

void BinTraceReader::to_csv(std::ostream& out) {
  common::CsvWriter writer(out);
  write_series_header(writer);
  for (std::uint64_t i = 0; i < count_; ++i) {
    const EpochRecord record = read_record_at(i);
    write_series_row(writer, record);
  }
  rewind();
}

std::uint64_t concat_traces(const std::vector<std::string>& inputs,
                            const std::string& out_path) {
  if (inputs.empty()) {
    throw BinTraceError("concat_traces: no input traces given");
  }
  // Open and validate every input before writing a byte: BinTraceReader
  // already rejects unsealed files, version skew and record-size skew, so
  // what remains is cross-file header agreement.
  std::vector<std::unique_ptr<BinTraceReader>> readers;
  readers.reserve(inputs.size());
  for (const auto& path : inputs) {
    readers.push_back(std::make_unique<BinTraceReader>(path));
    const BinTraceReader& r = *readers.back();
    const BinTraceReader& first = *readers.front();
    if (r.governor() != first.governor() ||
        r.application() != first.application()) {
      throw BinTraceError(
          "concat_traces: '" + path + "' records governor '" + r.governor() +
          "' on application '" + r.application() + "', but '" +
          first.path() + "' records '" + first.governor() + "' on '" +
          first.application() + "' — refusing to mix runs in one trace");
    }
  }

  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw BinTraceError("concat_traces: cannot open '" + out_path +
                        "' for writing");
  }
  BinTraceWriter writer(out);
  writer.begin(readers.front()->governor(), readers.front()->application());
  for (const auto& reader : readers) {
    while (const auto record = reader->next()) writer.append(*record);
  }
  writer.seal();
  out.close();
  if (!out) {
    throw BinTraceError("concat_traces: closing '" + out_path +
                        "' failed — the trace may be incomplete");
  }
  return writer.records_written();
}

// --- BinTraceSink ------------------------------------------------------------

BinTraceSink::BinTraceSink(std::string path) : path_(std::move(path)) {}

BinTraceSink::~BinTraceSink() = default;

void BinTraceSink::bind(RunBinding* run) {
  if (run != nullptr && run->trace_path.empty()) run->trace_path = path_;
}

void BinTraceSink::on_run_begin(const RunContext& ctx) {
  // (Re)opened truncating per run: a .bt holds exactly one run's homogeneous
  // record block (see the class comment). Lazy like CsvSink — a constructed,
  // never-run sink touches nothing.
  auto file = std::make_unique<std::ofstream>(
      path_, std::ios::binary | std::ios::trunc);
  if (!*file) {
    throw std::runtime_error("BinTraceSink: cannot open '" + path_ +
                             "' for writing (does the parent directory "
                             "exist?)");
  }
  writer_ = std::make_unique<BinTraceWriter>(*file);
  file_ = std::move(file);
  writer_->begin(ctx.governor, ctx.application);
}

void BinTraceSink::on_epoch(const EpochRecord& record, gov::Governor&) {
  if (writer_ == nullptr) {
    throw std::logic_error("BinTraceSink: on_epoch before on_run_begin");
  }
  writer_->append(record);
}

void BinTraceSink::on_run_end(const RunResult&) {
  if (writer_ == nullptr) {
    throw std::logic_error("BinTraceSink: on_run_end before on_run_begin");
  }
  writer_->seal();  // throws if any write since run begin failed
  file_->close();   // the file on disk is complete and valid from here
  if (!*file_) {
    throw std::runtime_error("BinTraceSink: closing '" + path_ +
                             "' failed — the trace may be incomplete");
  }
}

std::uint64_t BinTraceSink::records_written() const noexcept {
  return writer_ == nullptr ? 0 : writer_->records_written();
}

// --- Registry entry ----------------------------------------------------------

namespace {

const TelemetrySinkRegistrar reg_bintrace{
    telemetry_registry(), "bintrace",
    "compact fixed-record binary epoch trace: bintrace(path=out/run.bt)",
    [](const common::Spec& spec) {
      const std::string path = spec.get_string("path", "");
      if (path.empty()) {
        // A typo'd key ("pth=...") is the likeliest way to lose the path;
        // surface the registry's did-you-mean diagnostic for it instead of
        // the blunt "path required".
        const auto unknown = spec.unrequested_keys();
        if (!unknown.empty()) {
          throw common::UnknownKeyError("telemetry sink", "bintrace", unknown,
                                        spec.requested_keys());
        }
        throw std::invalid_argument(
            "telemetry sink 'bintrace': a path is required, e.g. "
            "bintrace(path=out/run.bt)");
      }
      return std::make_unique<BinTraceSink>(path);
    }};

}  // namespace

}  // namespace prime::sim
