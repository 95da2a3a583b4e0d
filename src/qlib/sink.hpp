/// \file sink.hpp
/// \brief QlibSink: publish a run's trained governor state into a policy
///        library at run end. Spec: `qlib(dir=out/qlib)`.
///
/// The checkpoint split, applied to policy publication: the sink decides
/// *when* (once, at run end — a policy entry is a finished artefact, not a
/// crash-recovery snapshot); *what* is the leaf entry built from the
/// platform, governor and application of the sim::RunBinding that
/// run_simulation lends it through bind(). Engines that never bind (the
/// multi-app engine) leave the sink unbound, and it fails loudly at run
/// begin instead of silently recording nothing (the CheckpointSink
/// discipline).
///
/// The published key derives from the run (platform shape, application name,
/// first-frame fps, governor display name); the optional spec keys `gov=`,
/// `wl=` and `fps=` override the governor-spec / workload-class / fps-band
/// components — the builder and fleet paths use them to key entries by the
/// *construction spec* ("rtm(policy=upd)") rather than the display name, so
/// library lookups match across processes.
#pragma once

#include <cstddef>
#include <string>

#include "sim/telemetry.hpp"

namespace prime::qlib {

/// \brief Telemetry sink publishing the final governor state as a `.qpol`
///        policy-library entry. Spec: `qlib(dir=out/qlib,gov=...,wl=...,
///        fps=...)` (gov/wl/fps optional key overrides).
class QlibSink : public sim::TelemetrySink {
 public:
  /// \brief Publish into the library directory \p dir.
  explicit QlibSink(std::string dir);

  /// \brief Override the key's governor-spec component (canonical spec).
  void set_governor_spec(std::string spec) { governor_spec_ = std::move(spec); }
  /// \brief Override the key's workload-class component.
  void set_workload(std::string workload) { workload_ = std::move(workload); }
  /// \brief Override the key's fps component (0 = derive from the run).
  void set_fps(double fps) { fps_ = fps; }

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  [[nodiscard]] const std::string& governor_spec() const noexcept {
    return governor_spec_;
  }
  [[nodiscard]] const std::string& workload() const noexcept {
    return workload_;
  }
  [[nodiscard]] double fps() const noexcept { return fps_; }

  /// \brief Bind the run whose state on_run_end publishes (nullptr unbinds).
  void bind(sim::RunBinding* run) override;
  void on_run_begin(const sim::RunContext& ctx) override;
  void on_epoch(const sim::EpochRecord& record,
                gov::Governor& governor) override;
  void on_run_end(const sim::RunResult& result) override;

  /// \brief Entries published across the sink's lifetime.
  [[nodiscard]] std::size_t published() const noexcept { return published_; }
  /// \brief Path of the most recently published entry ("" when none yet).
  [[nodiscard]] const std::string& last_path() const noexcept {
    return last_path_;
  }

 private:
  std::string dir_;
  std::string governor_spec_;
  std::string workload_;
  double fps_ = 0.0;
  const sim::RunBinding* run_ = nullptr;
  std::size_t published_ = 0;
  std::string last_path_;
};

}  // namespace prime::qlib
