/// \file probes.hpp
/// \brief Measurement from outside the simulator: decorators the engine
///        calls through its public virtual interfaces, and a replay of the
///        single-domain epoch chain through the layers' public functions.
///
/// Nothing here changes what is simulated. A TimedGovernor forwards every
/// virtual of the governor it wraps, and a TimingSink forwards every event
/// of the sink it wraps, so a decorated run is bit-identical to a bare one
/// (the workloads check that). Sinks the engine binds by dynamic_cast
/// (checkpoint, qlib, dashboard) are never wrapped: a wrapper would hide
/// them from the engine. Their cost is timed through their public calls.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "gov/governor.hpp"
#include "hw/platform.hpp"
#include "sim/experiment.hpp"
#include "sim/telemetry.hpp"
#include "wl/application.hpp"

namespace perfbench {

/// \brief Median cost of one steady_clock read pair in ns, measured once per
///        process and subtracted from every sampled span.
[[nodiscard]] double timer_overhead_ns();

/// \brief Calls into one layer boundary and the time spent in the sampled
///        ones. Timing every call would cost more than a simple governor's
///        decide, so decorators time every 2^k-th call and count all.
struct SpanStats {
  std::uint64_t calls = 0;
  std::uint64_t sampled = 0;
  double sampled_ns = 0.0;

  /// \brief Mean ns per sampled call, less the timer's own cost (0 when
  ///        nothing was sampled).
  [[nodiscard]] double mean_ns() const;
  /// \brief Record one sampled span of \p ns (timer cost included).
  void add(double ns) noexcept {
    ++sampled;
    sampled_ns += ns;
  }
  void merge(const SpanStats& other) noexcept {
    calls += other.calls;
    sampled += other.sampled;
    sampled_ns += other.sampled_ns;
  }
};

/// \brief Governor decorator timing decide() (every 16th call) and
///        save_state() (every call). Registered as the governor spec
///        `timed(inner=<spec>)`, so builder sweeps and fleet devices can use
///        it; name() is the inner governor's, so checkpoints and policy keys
///        are unchanged.
class TimedGovernor final : public prime::gov::Governor {
 public:
  explicit TimedGovernor(std::unique_ptr<prime::gov::Governor> inner);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t decide(
      const prime::gov::DecisionContext& ctx,
      const std::optional<prime::gov::EpochObservation>& last) override;
  [[nodiscard]] prime::common::Seconds epoch_overhead() const override;
  void reset() override;
  void save_state(std::ostream& out) const override;
  void load_state(std::istream& in) override;
  [[nodiscard]] const prime::gov::Governor* inner_governor()
      const noexcept override;
  [[nodiscard]] std::unique_ptr<prime::gov::StateMerger> make_state_merger()
      const override;

  [[nodiscard]] const SpanStats& decide_stats() const noexcept {
    return decide_;
  }
  [[nodiscard]] const SpanStats& save_stats() const noexcept { return save_; }

 private:
  std::unique_ptr<prime::gov::Governor> inner_;
  SpanStats decide_;
  mutable SpanStats save_;
};

/// \brief True for the paper's Q-learning governor family (display names
///        starting with "rtm").
[[nodiscard]] bool is_rtm_family(const prime::gov::Governor& governor);

/// \brief Sink decorator timing on_epoch(): every call when \p sample_shift
///        is 0, otherwise every 2^sample_shift-th call.
class TimingSink final : public prime::sim::TelemetrySink {
 public:
  TimingSink(std::unique_ptr<prime::sim::TelemetrySink> inner,
             unsigned sample_shift);

  void on_run_begin(const prime::sim::RunContext& ctx) override;
  void on_epoch(const prime::sim::EpochRecord& record,
                prime::gov::Governor& governor) override;
  void on_run_end(const prime::sim::RunResult& result) override;

  [[nodiscard]] const SpanStats& stats() const noexcept { return stats_; }

 private:
  std::unique_ptr<prime::sim::TelemetrySink> inner_;
  std::uint64_t mask_;
  SpanStats stats_;
};

/// \brief Benchmark-owned sink stamping run begin, the first epoch and run
///        end with steady_clock and, when \p segment_shift is nonzero, the
///        host time of every 2^segment_shift consecutive epochs. Registered
///        as `perfbench-clock`, so a builder sweep attaches one per run.
class ClockSink final : public prime::sim::TelemetrySink {
 public:
  explicit ClockSink(unsigned segment_shift = 0)
      : mask_(segment_shift == 0 ? 0 : (std::size_t{1} << segment_shift) - 1) {}

  void on_run_begin(const prime::sim::RunContext& ctx) override;
  void on_epoch(const prime::sim::EpochRecord& record,
                prime::gov::Governor& governor) override;
  void on_run_end(const prime::sim::RunResult& result) override;

  /// \brief Epochs per segment (0 when segments are off).
  [[nodiscard]] std::size_t segment_epochs() const noexcept {
    return mask_ == 0 ? 0 : mask_ + 1;
  }

  Clock::time_point begin{};
  Clock::time_point first_epoch{};
  Clock::time_point end{};
  std::size_t epochs = 0;
  std::vector<double> segment_s;  ///< Seconds per whole segment, in order.

 private:
  std::size_t mask_;
  Clock::time_point mark_{};
};

/// \brief Keeps the first \p limit records of a run for the replay check.
class RecordingSink final : public prime::sim::TelemetrySink {
 public:
  explicit RecordingSink(std::size_t limit) : limit_(limit) {}
  void on_run_begin(const prime::sim::RunContext& ctx) override;
  void on_epoch(const prime::sim::EpochRecord& record,
                prime::gov::Governor& governor) override;

  [[nodiscard]] const std::vector<prime::sim::EpochRecord>& records()
      const noexcept {
    return records_;
  }

 private:
  std::size_t limit_;
  std::vector<prime::sim::EpochRecord> records_;
};

/// \brief One representative single-domain run of a workload: how to build
///        its board, application and governor.
struct ProbeSpec {
  std::function<std::unique_ptr<prime::hw::Platform>()> make_platform;
  prime::sim::ExperimentSpec app;
  std::string governor;
  std::uint64_t governor_seed = 0;
  /// Run length (RunOptions::max_frames; 0 = the whole materialised trace).
  std::size_t frames = 0;
};

/// \brief The per-layer split of one probe run.
struct ProbeResult {
  double run_ns_per_frame = 0.0;        ///< Bare run, best of the repeats.
  double decide_ns = 0.0;               ///< decide(), replayed per call.
  double decide_calls_per_frame = 0.0;  ///< decide() calls per epoch.
  double fill_ns_per_frame = 0.0;       ///< Application::fill_block.
  double epoch_ns = 0.0;                ///< set_opp + Cluster::run_epoch_into.
  double integrate_ns = 0.0;            ///< PowerSensor::integrate.
  std::size_t replayed = 0;             ///< Frames replayed per repeat.
  prime::sim::RunResult run;            ///< Aggregates of the bare run.

  /// \brief Run time minus its child spans, per frame.
  [[nodiscard]] double engine_self_ns() const noexcept {
    return run_ns_per_frame - fill_ns_per_frame -
           decide_ns * decide_calls_per_frame - epoch_ns - integrate_ns;
  }
};

/// \brief Run \p spec bare \p repeats times (timing each run), once more
///        recording its decision inputs and epoch records, then replay the
///        recorded prefix \p repeats times: the decisions into a fresh
///        governor, and the epochs through fill_block -> set_opp ->
///        run_epoch_into -> integrate. Every run and the replay must
///        reproduce the first bare run bit for bit; mismatches are recorded
///        in \p gate as failed operations.
[[nodiscard]] ProbeResult probe(const ProbeSpec& spec, std::size_t repeats,
                                std::size_t replay_frames, Gate& gate);

}  // namespace perfbench
