/// \file bench.hpp
/// \brief Shared types of the layered benchmark: options, metrics, the
///        correctness gate and small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/engine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// \brief Seconds between two steady-clock points.
[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// \brief One invocation: `perfbench --workload W --seed N --seconds S
///        --trace 0|1 [--size tiny] [--inject short-run] [--work-dir D]`.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test size: every workload shrinks to a few thousand frames.
  bool tiny = false;
  /// Self-test hook: the first run executes one frame fewer than the gate
  /// expects, which must surface as a failed operation.
  bool inject_short_run = false;
  /// Scratch directory for `.bt`, `.ckpt`, `.fsum` and `.qpol` artifacts.
  std::string work_dir = ".bench_build/work";
};

/// \brief A named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// \brief Counts operations (runs, resumes, fleet shards) and the ones that
///        failed a correctness check, keeping the first few reasons.
class Gate {
 public:
  /// \brief Count \p n attempted operations.
  void attempt(std::size_t n = 1) { attempted_ += n; }
  /// \brief Record \p n failed operations with a reason.
  void fail(const std::string& reason, std::size_t n = 1);

  /// \brief Check one finished run: frame count, finite non-negative energy,
  ///        miss rate within [0, 1]. Returns false (and records a failure)
  ///        when any check fails. Does not count the attempt.
  bool check_run(const prime::sim::RunResult& run, std::size_t expected_frames,
                 const std::string& what);
  /// \brief Check that \p run is bit-identical to \p reference in every
  ///        aggregate (a same-seed repeat or a resume).
  bool check_same(const prime::sim::RunResult& run,
                  const prime::sim::RunResult& reference,
                  const std::string& what);

  [[nodiscard]] std::size_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::size_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& reasons() const noexcept {
    return reasons_;
  }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> reasons_;
};

/// \brief What one workload invocation measured.
struct Outcome {
  std::vector<Metric> end_to_end;  ///< Reported with --trace 0.
  std::vector<Metric> per_layer;   ///< Reported with --trace 1.
  /// Workload-specific numbers printed by name but absent from the final
  /// JSON object, whose metric set is the same for every workload.
  std::vector<Metric> detail;
  Gate gate;
};

/// \brief Linear-interpolated quantile \p q in [0, 1] (0 for no samples).
[[nodiscard]] double quantile(std::vector<double> values, double q);
/// \brief quantile(values, 0.5).
[[nodiscard]] double median(std::vector<double> values);

/// \brief Peak resident set size in MB of this process, plus the largest
///        reaped child when \p with_children is set.
[[nodiscard]] double peak_rss_mb(bool with_children);

/// \brief Run workload opts.workload (throws std::invalid_argument when the
///        name is unknown).
[[nodiscard]] Outcome run_workload(const Options& opts);

}  // namespace perfbench
