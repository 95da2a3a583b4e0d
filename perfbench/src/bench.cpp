#include "bench.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <string>

#include <sys/resource.h>

namespace perfbench {

namespace {

/// Failure reasons kept for the report; the count is always exact.
constexpr std::size_t kMaxReasons = 8;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

void Gate::fail(const std::string& reason, std::size_t n) {
  failed_ += n;
  if (reasons_.size() < kMaxReasons) reasons_.push_back(reason);
}

bool Gate::check_run(const prime::sim::RunResult& run,
                     std::size_t expected_frames, const std::string& what) {
  if (run.epoch_count != expected_frames) {
    fail(what + " executed " + std::to_string(run.epoch_count) + " of " +
         std::to_string(expected_frames) + " frames");
    return false;
  }
  const bool energy_ok = std::isfinite(run.total_energy) &&
                         run.total_energy >= 0.0 &&
                         std::isfinite(run.measured_energy) &&
                         run.measured_energy >= 0.0;
  if (!energy_ok) {
    fail(what + " produced energy " + std::to_string(run.total_energy) +
         " J (measured " + std::to_string(run.measured_energy) + " J)");
    return false;
  }
  const double miss = run.miss_rate();
  if (!(miss >= 0.0 && miss <= 1.0)) {
    fail(what + " produced miss rate " + std::to_string(miss));
    return false;
  }
  return true;
}

bool Gate::check_same(const prime::sim::RunResult& run,
                      const prime::sim::RunResult& reference,
                      const std::string& what) {
  const bool same =
      run.epoch_count == reference.epoch_count &&
      run.deadline_misses == reference.deadline_misses &&
      same_bits(run.total_energy, reference.total_energy) &&
      same_bits(run.measured_energy, reference.measured_energy) &&
      same_bits(run.total_time, reference.total_time) &&
      same_bits(run.performance_sum, reference.performance_sum) &&
      same_bits(run.power_sum, reference.power_sum);
  if (!same) fail(what + " differs from its reference run");
  return same;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double peak_rss_mb(bool with_children) {
  // VmHWM, not getrusage: ru_maxrss survives exec, so it would report the
  // launching interpreter's peak whenever that was larger.
  double kb = 0.0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) kb = std::stod(line.substr(6));
  }
  if (with_children) {
    // ru_maxrss is in kilobytes on Linux: the largest reaped child.
    rusage children{};
    getrusage(RUSAGE_CHILDREN, &children);
    kb += static_cast<double>(children.ru_maxrss);
  }
  return kb / 1024.0;
}

}  // namespace perfbench
