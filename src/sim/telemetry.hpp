/// \file telemetry.hpp
/// \brief Streaming run observation: telemetry sinks and their registry.
///
/// The observation mirror of the construction API: scenarios flow *in*
/// through registry specs ("rtm(policy=upd)"), per-epoch telemetry flows
/// *out* through registry-backed sinks ("csv(path=run.csv)", "tail(n=256)").
/// The engine emits every EpochRecord — bracketed by run-begin/run-end
/// events carrying the run's context — to an ordered list of attached
/// TelemetrySink observers instead of materialising a per-run epoch vector.
/// RunResult therefore carries only O(1) aggregates by default; anything
/// per-epoch (full traces, bounded tails, CSV series, convergence tracking)
/// is an opt-in sink, so a 1M-frame run with no per-epoch sink attached
/// uses memory independent of frame count.
///
/// Sinks self-register in a process-wide Registry<TelemetrySink> next to
/// their definitions, so spec strings construct them anywhere the builder
/// accepts them, with the same did-you-mean diagnostics as governors and
/// workloads.
#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/registry.hpp"
#include "common/ring_buffer.hpp"
#include "sim/convergence.hpp"
#include "sim/engine.hpp"

namespace prime::common {
class CsvWriter;
}  // namespace prime::common

namespace prime::sim {

/// \brief Context delivered at run begin: what is about to execute.
struct RunContext {
  std::string governor;      ///< Governor display name.
  std::string application;   ///< Application name.
  /// Epoch count planned for *this* session. A resumed run
  /// (RunOptions::resume_from) plans only its tail, so per-epoch sinks
  /// record the resumed epochs only; records keep their absolute epoch
  /// indices.
  std::size_t frames = 0;
  std::size_t app_index = 0; ///< Stream index in a multi-app run.
  std::size_t app_count = 1; ///< Number of concurrent application streams.
};

/// \brief The live run run_simulation lends its sinks for one session:
///        what a sink needs beyond the epoch stream to snapshot, publish or
///        probe the run. Valid from bind(&binding) until bind(nullptr).
struct RunBinding {
  hw::Platform& platform;
  gov::Governor& governor;
  const wl::Application& app;
  const RunResult& result;  ///< The aggregates, updated as epochs emit.
  /// The observation the governor's next decision will see.
  const std::optional<gov::EpochObservation>& last;
  /// The `.bt` behind the dashboard's /window: filled during binding by the
  /// first bintrace sink, read by dashboards at run begin.
  std::string trace_path;
};

/// \brief Streaming observer of one run's epoch stream.
///
/// Sinks receive on_run_begin once, on_epoch for every executed epoch in
/// order, and on_run_end with the finished aggregate result. A sink attached
/// to several consecutive runs is restarted by each on_run_begin. Sinks are
/// invoked synchronously from the simulation thread in attachment order.
class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;
  /// \brief run_simulation lends \p run to every attached sink before run
  ///        begin and unbinds with nullptr on every exit, including a throw
  ///        from another sink's bind. A sink needing run state overrides
  ///        this; binding may throw to reject the run, unbinding must not
  ///        throw. Other engines never bind.
  virtual void bind(RunBinding* run) { (void)run; }
  /// \brief A run is starting; reset per-run state.
  virtual void on_run_begin(const RunContext& ctx) { (void)ctx; }
  /// \brief One epoch executed. \p governor allows introspection probes
  ///        (learning state, predictor internals) alongside the record.
  virtual void on_epoch(const EpochRecord& record, gov::Governor& governor) = 0;
  /// \brief The run finished; \p result holds the final aggregates.
  virtual void on_run_end(const RunResult& result) { (void)result; }
};

/// \brief Registry of telemetry sink factories: Spec -> TelemetrySink.
using TelemetryRegistry = common::Registry<TelemetrySink>;

/// \brief The process-wide telemetry sink registry.
[[nodiscard]] TelemetryRegistry& telemetry_registry();

/// \brief Static self-registration helper for sink translation units.
using TelemetrySinkRegistrar = common::Registrar<TelemetryRegistry>;

/// \brief Sink factory shim over telemetry_registry(): accepts any registered
///        spec — "trace", "tail(n=256)", "csv(path=out/run.csv)", ... Throws
///        common::UnknownNameError / UnknownKeyError (did-you-mean style) on
///        unknown names or typo'd keys.
[[nodiscard]] std::unique_ptr<TelemetrySink> make_sink(const std::string& spec);

/// \brief All registered sink names, sorted.
[[nodiscard]] std::vector<std::string> sink_names();

/// \brief First sink of dynamic type T in an owned sink list (nullptr when
///        absent) — post-run introspection for builder-attached telemetry.
template <class T>
[[nodiscard]] T* find_sink(
    const std::vector<std::unique_ptr<TelemetrySink>>& sinks) {
  for (const auto& sink : sinks) {
    if (auto* hit = dynamic_cast<T*>(sink.get())) return hit;
  }
  return nullptr;
}

// --- The sink library --------------------------------------------------------

/// \brief Incremental O(1) aggregates — the standalone form of the
///        accumulation every engine performs into its own RunResult. Spec:
///        `aggregate`.
class AggregateSink : public TelemetrySink {
 public:
  void on_run_begin(const RunContext& ctx) override;
  void on_epoch(const EpochRecord& record, gov::Governor& governor) override;
  void on_run_end(const RunResult& result) override;

  /// \brief Aggregates of the current (or last finished) run.
  [[nodiscard]] const RunResult& result() const noexcept { return result_; }

 private:
  RunResult result_;
};

/// \brief Opt-in full epoch trace — reproduces the eager epoch vector runs
///        used to carry, for tests and per-frame series. Keeps the most
///        recent run's records (cleared at run begin). Spec: `trace`.
class TraceSink : public TelemetrySink {
 public:
  void on_run_begin(const RunContext& ctx) override;
  void on_epoch(const EpochRecord& record, gov::Governor& governor) override;

  /// \brief Every epoch of the traced run, in execution order.
  [[nodiscard]] const std::vector<EpochRecord>& records() const noexcept {
    return records_;
  }

 private:
  std::vector<EpochRecord> records_;
};

/// \brief The last n epochs on a fixed-capacity ring — bounded-memory
///        visibility into arbitrarily long runs. Spec: `tail(n=64)`.
class TailSink : public TelemetrySink {
 public:
  explicit TailSink(std::size_t n);
  void on_run_begin(const RunContext& ctx) override;
  void on_epoch(const EpochRecord& record, gov::Governor& governor) override;

  /// \brief The retained window, oldest first.
  [[nodiscard]] const common::RingBuffer<EpochRecord>& buffer() const noexcept {
    return buffer_;
  }
  /// \brief The retained window copied oldest-first into a vector.
  [[nodiscard]] std::vector<EpochRecord> records() const {
    return buffer_.to_vector();
  }

 private:
  common::RingBuffer<EpochRecord> buffer_;
};

/// \brief Streaming per-frame CSV ("frame,demand,freq_mhz,slack,power_w,
///        energy_mj"), written as epochs execute — constant memory at any
///        run length. Spec: `csv(path=out/run.csv)`; without path= the rows
///        stream to stdout. The header is written once per sink, so several
///        consecutive runs append into one table.
class CsvSink : public TelemetrySink {
 public:
  /// \brief Stream rows to \p out (borrowed; must outlive the sink).
  explicit CsvSink(std::ostream& out);
  /// \brief Stream rows to a file. The file is opened (and truncated) lazily
  ///        at the first run begin — never at construction, so building and
  ///        discarding a sink (spec validation, trial construction) cannot
  ///        touch existing data. Throws std::runtime_error from on_run_begin
  ///        when the file cannot be opened.
  explicit CsvSink(std::string path);
  ~CsvSink() override;

  void on_run_begin(const RunContext& ctx) override;
  void on_epoch(const EpochRecord& record, gov::Governor& governor) override;

  /// \brief Data rows written so far.
  [[nodiscard]] std::size_t rows_written() const noexcept;

 private:
  std::string path_;                     ///< Non-empty in file mode.
  std::unique_ptr<std::ostream> owned_;  ///< The opened file, file mode only.
  std::unique_ptr<common::CsvWriter> writer_;
  bool header_written_ = false;
};

/// \brief Write the per-frame series CSV header ("frame,demand,freq_mhz,
///        slack,power_w,energy_mj") — the one header CsvSink emits.
void write_series_header(common::CsvWriter& writer);

/// \brief Write one EpochRecord as a per-frame series CSV row. The single
///        row encoder shared by CsvSink and the binary-trace CSV converter
///        (sim/bintrace.hpp), so a converted `.bt` is byte-identical to the
///        csv(path=) sink's output by construction.
void write_series_row(common::CsvWriter& writer, const EpochRecord& record);

/// \brief Learning-convergence tracking (Tables II/III): feeds the greedy
///        policy and exploration count of any gov::Learner governor to a
///        PolicyConvergence detector each epoch. Epochs under non-learning
///        governors are ignored. Spec: `convergence(stable=25)`.
class ConvergenceSink : public TelemetrySink {
 public:
  explicit ConvergenceSink(std::size_t stable_epochs = 25);
  void on_run_begin(const RunContext& ctx) override;
  void on_epoch(const EpochRecord& record, gov::Governor& governor) override;

  /// \brief The underlying detector.
  [[nodiscard]] const PolicyConvergence& tracker() const noexcept {
    return tracker_;
  }
  [[nodiscard]] bool converged() const noexcept { return tracker_.converged(); }
  [[nodiscard]] std::size_t convergence_epoch() const noexcept {
    return tracker_.convergence_epoch();
  }
  [[nodiscard]] std::size_t explorations_at_convergence() const noexcept {
    return tracker_.explorations_at_convergence();
  }

 private:
  PolicyConvergence tracker_;
  const gov::Learner* learner_ = nullptr;  ///< Resolved on the first epoch.
  bool resolved_ = false;
};

/// \brief Decimating pass-through: forwards the first epoch and every n-th
///        epoch after it to an inner sink, so unbounded streaming runs
///        produce bounded per-epoch output (a 1M-frame run with
///        `sample(every=1000,inner=csv(path=run.csv))` writes 1000 rows).
///        Binding, run-begin and run-end pass through unchanged, so a
///        wrapped checkpoint, qlib or dashboard sink is bound like a bare
///        one and the sample cadence gates its epochs; the forwarded-epoch
///        counter restarts at each run begin. The inner sink is owned and
///        built from a nested spec: `sample(every=1000,inner=csv(path=...))`.
class SampleSink : public TelemetrySink {
 public:
  /// \brief Forward every \p every-th epoch (>= 1) to \p inner.
  SampleSink(std::size_t every, std::unique_ptr<TelemetrySink> inner);

  void bind(RunBinding* run) override;
  void on_run_begin(const RunContext& ctx) override;
  void on_epoch(const EpochRecord& record, gov::Governor& governor) override;
  void on_run_end(const RunResult& result) override;

  /// \brief Decimation period.
  [[nodiscard]] std::size_t every() const noexcept { return every_; }
  /// \brief The wrapped sink, for post-run introspection.
  [[nodiscard]] TelemetrySink& inner() const noexcept { return *inner_; }
  /// \brief Epochs observed in the current (or last finished) run.
  [[nodiscard]] std::size_t seen() const noexcept { return seen_; }
  /// \brief Epochs forwarded to the inner sink in that run.
  [[nodiscard]] std::size_t forwarded() const noexcept { return forwarded_; }

 private:
  std::size_t every_;
  std::unique_ptr<TelemetrySink> inner_;
  std::size_t seen_ = 0;
  std::size_t forwarded_ = 0;
};

/// \brief Adapter running an arbitrary callback per epoch — the migration
///        path for ad-hoc probes that used RunOptions::on_epoch.
class CallbackSink : public TelemetrySink {
 public:
  explicit CallbackSink(EpochCallback callback);
  void on_epoch(const EpochRecord& record, gov::Governor& governor) override;

 private:
  EpochCallback callback_;
};

// --- The shared emission path ------------------------------------------------

/// \brief The one emission path both engines drive: accumulates each record
///        into the bound RunResult's O(1) aggregates and fans it out to the
///        attached sinks in order. Announces run-begin on construction;
///        finish() seals the result and announces run-end.
class RunEmitter {
 public:
  RunEmitter(RunResult& result, std::vector<TelemetrySink*> sinks,
             const RunContext& ctx);
  RunEmitter(RunEmitter&&) = default;
  RunEmitter& operator=(RunEmitter&&) = delete;

  /// \brief Emit one executed epoch.
  void emit(const EpochRecord& record, gov::Governor& governor);
  /// \brief Seal the run: record sensor-integrated energy, deliver run-end.
  void finish(common::Joule measured_energy);

 private:
  RunResult* result_;
  std::vector<TelemetrySink*> sinks_;
};

}  // namespace prime::sim
