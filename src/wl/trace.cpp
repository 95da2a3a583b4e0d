#include "wl/trace.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "common/csv.hpp"
#include "common/rounding.hpp"
#include "common/strings.hpp"
#include "wl/frame_source.hpp"

namespace prime::wl {

WorkloadTrace::WorkloadTrace(std::string name, std::vector<FrameDemand> frames)
    : name_(std::move(name)), frames_(std::move(frames)) {}

common::RunningStats WorkloadTrace::stats() const noexcept {
  common::RunningStats stats;
  for (const auto& f : frames_) stats.add(static_cast<double>(f.cycles));
  return stats;
}

common::Cycles WorkloadTrace::peak_cycles() const noexcept {
  common::Cycles peak = 0;
  for (const auto& f : frames_) peak = std::max(peak, f.cycles);
  return peak;
}

WorkloadTrace WorkloadTrace::scaled_to_mean(double target_mean) const& {
  return WorkloadTrace(*this).scaled_to_mean(target_mean);
}

WorkloadTrace WorkloadTrace::scaled_to_mean(double target_mean) && {
  // The in-order Welford mean: every calibrated demand depends on its bits.
  const double mean = mean_cycles();
  if (frames_.empty() || mean <= 0.0) return std::move(*this);
  const double scale = target_mean / mean;
  for (auto& f : frames_) {
    // Round to nearest: truncation would make the achieved mean undershoot
    // target_mean by ~0.5 cycles/frame systematically.
    f.cycles = common::round_cycles(static_cast<double>(f.cycles) * scale);
  }
  return std::move(*this);
}

std::string WorkloadTrace::to_csv() const {
  std::ostringstream out;
  common::CsvWriter writer(out);
  writer.header({"frame", "cycles", "kind"});
  for (std::size_t i = 0; i < frames_.size(); ++i) {
    writer.row_strings({std::to_string(i), std::to_string(frames_[i].cycles),
                        frame_kind_tag(frames_[i].kind)});
  }
  return out.str();
}

namespace {

/// Parse one cycles cell strictly: unsigned decimal (surrounding whitespace
/// tolerated, as strtoull always accepted), whole cell, in range. strtoull
/// with a null endptr would silently turn "abc" into 0 — a corrupt archive
/// must throw, as from_csv documents.
common::Cycles parse_cycles_cell(const std::string& raw, std::size_t row) {
  const std::string cell = common::trim(raw);
  if (cell.empty() ||
      cell.find_first_not_of("0123456789") != std::string::npos) {
    throw std::runtime_error("WorkloadTrace::from_csv: malformed cycles value '" +
                             cell + "' in data row " + std::to_string(row));
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(cell.c_str(), &end, 10);
  if (end != cell.c_str() + cell.size() || errno == ERANGE) {
    throw std::runtime_error("WorkloadTrace::from_csv: cycles value '" + cell +
                             "' in data row " + std::to_string(row) +
                             " is out of range");
  }
  return static_cast<common::Cycles>(value);
}

}  // namespace

WorkloadTrace WorkloadTrace::from_csv(const std::string& name,
                                      const std::string& csv_text) {
  const common::CsvTable table = common::parse_csv(csv_text);
  const int cycles_col = table.column_index("cycles");
  const int kind_col = table.column_index("kind");
  if (cycles_col < 0) {
    throw std::runtime_error("WorkloadTrace::from_csv: missing 'cycles' column");
  }
  std::vector<FrameDemand> frames;
  frames.reserve(table.rows.size());
  for (const auto& row : table.rows) {
    FrameDemand d;
    d.cycles = parse_cycles_cell(row.at(static_cast<std::size_t>(cycles_col)),
                                 frames.size());
    if (kind_col >= 0 &&
        static_cast<std::size_t>(kind_col) < row.size()) {
      const std::string& tag = row[static_cast<std::size_t>(kind_col)];
      if (tag == "I") d.kind = FrameKind::kIntra;
      else if (tag == "P") d.kind = FrameKind::kPredicted;
      else if (tag == "B") d.kind = FrameKind::kBidirectional;
    }
    frames.push_back(d);
  }
  return WorkloadTrace(name, std::move(frames));
}

WorkloadTrace TraceGenerator::generate(std::size_t n, std::uint64_t seed) const {
  const std::unique_ptr<FrameSource> source = stream(seed);
  std::vector<FrameDemand> frames;
  frames.reserve(n);
  while (frames.size() < n) {
    std::optional<FrameDemand> frame = source->next();
    if (!frame) break;  // defensive: generator streams are unbounded
    frames.push_back(*frame);
  }
  return WorkloadTrace(name(), std::move(frames));
}

}  // namespace prime::wl
