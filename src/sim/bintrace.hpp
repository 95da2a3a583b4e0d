/// \file bintrace.hpp
/// \brief The `.bt` binary epoch-trace format: writer, reader, telemetry sink.
///
/// CSV series are the human-readable archive; at millions of frames they are
/// slow to parse, lossy (%.9g formatting) and carry only the six plotted
/// columns. `.bt` is the compact archival companion: a fixed 128-byte header
/// followed by one packed little-endian 96-byte record per epoch, preserving
/// every EpochRecord field bit-exact. Because the records are fixed-size and
/// start at a fixed offset, record i lives at byte 128 + 96*i — readers can
/// seek (or mmap) to any epoch in O(1) with no variable-length framing
/// anywhere, and a `.bt` converts to a CSV byte-identical to what the
/// csv(path=) sink would have written for the same run (the converter shares
/// the sink's row encoder — see write_series_row in sim/telemetry.hpp).
///
/// On-disk layout (version 1; every field little-endian):
///
///     offset size header field
///          0    8 magic "PRIMEBT\0"
///          8    4 u32 format version (1)
///         12    4 u32 header size (128)
///         16    4 u32 record size (96)
///         20    4 reserved (0)
///         24    8 u64 record count — kBinTraceUnsealed until the run ends
///         32   40 governor name, NUL-padded (truncated when longer)
///         72   40 application name, NUL-padded
///        112   16 reserved (0)
///
///     offset size record field            offset size record field
///          0    8 u64 epoch                   48    8 f64 frame_time (s)
///          8    8 f64 period (s)              56    8 f64 window (s)
///         16    4 u32 opp_index               64    8 f64 energy (J)
///         20    4 u32 flags (bit0 =           72    8 f64 sensor_power (W)
///                  deadline_met)              80    8 f64 temperature (°C)
///         24    8 f64 frequency (Hz)          88    8 f64 slack
///         32    8 u64 demand (cycles)
///         40    8 u64 executed (cycles)
///
/// The writer stamps the count field with kBinTraceUnsealed at run begin and
/// patches the real count in place at run end ("sealing"). A file whose
/// producer died mid-run is therefore *detectable* — the reader refuses it
/// with a clear error instead of silently yielding records up to an
/// arbitrary truncation point.
#pragma once

#include <array>
#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "sim/telemetry.hpp"

namespace prime::sim {

/// \brief File identification bytes at offset 0.
inline constexpr std::array<unsigned char, 8> kBinTraceMagic = {
    'P', 'R', 'I', 'M', 'E', 'B', 'T', '\0'};
/// \brief The format version this build reads and writes.
inline constexpr std::uint32_t kBinTraceVersion = 1;
/// \brief Fixed header size; records start here.
inline constexpr std::size_t kBinTraceHeaderSize = 128;
/// \brief Packed size of one epoch record.
inline constexpr std::size_t kBinTraceRecordSize = 96;
/// \brief Capacity of the NUL-padded governor/application name fields.
inline constexpr std::size_t kBinTraceNameSize = 40;
/// \brief record-count sentinel meaning "run still in progress / never
///        sealed". Distinct from a legitimate zero-record file.
inline constexpr std::uint64_t kBinTraceUnsealed = ~std::uint64_t{0};

/// \brief Error thrown by BinTraceReader on malformed, incompatible or
///        truncated input. Messages name the offending file and the exact
///        header expectation that failed.
class BinTraceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// \brief Pack \p record into \p out (kBinTraceRecordSize bytes).
void encode_record(const EpochRecord& record, unsigned char* out) noexcept;

/// \brief Unpack one record from \p in (kBinTraceRecordSize bytes).
[[nodiscard]] EpochRecord decode_record(const unsigned char* in) noexcept;

/// \brief Streams one run's records into a `.bt` layout.
///
/// Bound to a borrowed binary, seekable ostream (sealing patches the header's
/// record count in place). Call order is begin() once, append() per epoch,
/// seal() once; misuse throws std::logic_error rather than writing a file
/// other tools would misparse.
class BinTraceWriter {
 public:
  /// \brief Bind to \p out; the stream must outlive the writer.
  explicit BinTraceWriter(std::ostream& out);

  /// \brief Write the header with the run context and the unsealed sentinel.
  void begin(const std::string& governor, const std::string& application);
  /// \brief Append one epoch record.
  void append(const EpochRecord& record);
  /// \brief Patch the real record count into the header. The file is not a
  ///        valid trace until sealed. Throws std::runtime_error when any
  ///        write since begin() failed (badbit is sticky — disk full, I/O
  ///        error), so a run cannot finish "successfully" with a trace its
  ///        eventual reader will reject.
  void seal();

  [[nodiscard]] std::uint64_t records_written() const noexcept {
    return count_;
  }
  [[nodiscard]] bool sealed() const noexcept { return sealed_; }

 private:
  std::ostream* out_;
  std::uint64_t count_ = 0;
  bool begun_ = false;
  bool sealed_ = false;
};

/// \brief Validating reader over a sealed `.bt` file: streaming iteration
///        plus O(1) random access by epoch index.
///
/// Construction reads and validates the header (magic, version, header/record
/// sizes, sealed count) and checks the file size against
/// header + count * record, so a truncated final record or trailing garbage
/// fails loudly up front — never silently yields partial records.
///
/// **Follow mode** (BinTraceReader::follow) relaxes exactly one rule for the
/// live dashboard: an *unsealed* header is accepted, and the visible record
/// count is derived from the file size instead — ⌊(size − header) / 96⌋, so
/// a record the producer has only half-written is simply not visible yet and
/// a torn read is impossible by construction. refresh() re-stats the file
/// and re-reads the header's count field, so a follower sees the trace grow
/// and notices the moment the producer seals it (sealed() flips true and the
/// count snaps to the authoritative header value). All other header
/// validation still applies in follow mode.
class BinTraceReader {
 public:
  /// \brief Open and validate \p path. Throws BinTraceError on any mismatch,
  ///        including an unsealed (still-growing or crashed-producer) file —
  ///        use follow() to observe a live trace.
  explicit BinTraceReader(const std::string& path);

  /// \brief Open \p path tolerating an unsealed header (live producer).
  ///        Throws BinTraceError when the file is too short to hold a header
  ///        yet (the producer may not have flushed it — callers retry) or on
  ///        any magic/version/size mismatch.
  [[nodiscard]] static BinTraceReader follow(const std::string& path);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::uint32_t version() const noexcept { return version_; }
  [[nodiscard]] const std::string& governor() const noexcept {
    return governor_;
  }
  [[nodiscard]] const std::string& application() const noexcept {
    return application_;
  }
  /// \brief Number of records in the file. In follow mode before sealing:
  ///        the number of *complete* records the file held at open/refresh
  ///        time (a half-written tail record is excluded).
  [[nodiscard]] std::size_t record_count() const noexcept {
    return static_cast<std::size_t>(count_);
  }
  /// \brief Total file size in bytes (header + records) as of open/refresh.
  [[nodiscard]] std::uint64_t file_size() const noexcept { return size_; }
  /// \brief Whether the header carries a final record count. Always true for
  ///        readers from the sealed-only constructor; in follow mode it
  ///        flips true at the refresh() that observes the seal.
  [[nodiscard]] bool sealed() const noexcept { return sealed_; }
  /// \brief Whether this reader was opened with follow().
  [[nodiscard]] bool following() const noexcept { return follow_; }

  /// \brief Follow mode: re-stat the file and re-read the header's count
  ///        field, growing record_count() to the last complete record (or
  ///        snapping it to the sealed count once the producer seals).
  ///        Returns the new record_count(). The streaming cursor keeps its
  ///        position, so next() resumes where it left off across refreshes.
  ///        Throws std::logic_error outside follow mode and BinTraceError
  ///        when the file shrank or a sealed count exceeds what the file
  ///        holds (a corrupt or truncated producer).
  std::size_t refresh();

  /// \brief Random access: record \p index via one O(1) seek.
  ///        Throws std::out_of_range past record_count().
  [[nodiscard]] EpochRecord at(std::size_t index);

  /// \brief Streaming cursor: the next record, or nullopt at end.
  [[nodiscard]] std::optional<EpochRecord> next();
  /// \brief Reset the streaming cursor to the first record.
  void rewind() { cursor_ = 0; }

  /// \brief Convert the whole trace to the per-frame series CSV,
  ///        byte-identical to what the csv(path=) sink writes for the same
  ///        run. The streaming cursor is left rewound.
  void to_csv(std::ostream& out);

 private:
  BinTraceReader(const std::string& path, bool follow);

  [[nodiscard]] EpochRecord read_record_at(std::uint64_t index);

  std::ifstream in_;
  std::string path_;
  std::string governor_;
  std::string application_;
  std::uint32_t version_ = 0;
  std::uint64_t count_ = 0;
  std::uint64_t size_ = 0;
  std::uint64_t cursor_ = 0;
  bool follow_ = false;
  bool sealed_ = true;
  /// Current file offset of in_, so sequential reads skip the per-record
  /// seek (seekg would discard the filebuf's read-ahead every 96 bytes).
  std::uint64_t stream_pos_ = 0;
};

/// \brief Concatenate sealed `.bt` traces into one re-sealed trace at
///        \p out_path, preserving every record verbatim in input order —
///        how per-shard traces of one logical run are stitched back into a
///        single archive. Every input must load through BinTraceReader
///        (sealed, version/record-size validated) and all inputs must agree
///        on the governor and application header fields; a mismatch throws
///        BinTraceError naming the offending file before anything is
///        written. The output is written directly (not atomically) and
///        sealed at the end like any sink-produced trace.
/// \return Total records written to \p out_path.
std::uint64_t concat_traces(const std::vector<std::string>& inputs,
                            const std::string& out_path);

/// \brief Telemetry sink writing the run as a `.bt` file. Spec:
///        `bintrace(path=out/run.bt)`.
///
/// The file is opened (truncating) lazily at run begin — never at
/// construction, so a spec rejected for a typo'd key or a trial-constructed,
/// discarded sink cannot touch existing data (same contract as CsvSink).
/// Unlike the appending CSV sink, each run begin rewrites the file: O(1)
/// random access needs one homogeneous record block per file, so a `.bt`
/// holds exactly the most recent run. Constant memory at any run length —
/// records stream straight to the file; sealing at run end patches the
/// header count in place. Bound to a run, the first bintrace sink names its
/// path as the run's RunBinding::trace_path (the dashboard's /window).
class BinTraceSink : public TelemetrySink {
 public:
  explicit BinTraceSink(std::string path);
  ~BinTraceSink() override;

  void bind(RunBinding* run) override;

  void on_run_begin(const RunContext& ctx) override;
  void on_epoch(const EpochRecord& record, gov::Governor& governor) override;
  void on_run_end(const RunResult& result) override;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  /// \brief Records written in the current (or last finished) run.
  [[nodiscard]] std::uint64_t records_written() const noexcept;

 private:
  std::string path_;
  std::unique_ptr<std::ofstream> file_;
  std::unique_ptr<BinTraceWriter> writer_;
};

}  // namespace prime::sim
