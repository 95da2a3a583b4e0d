/// \file multiapp.hpp
/// \brief Multiple concurrently executing applications (the paper's stated
///        future work, Section IV).
///
/// Several periodic applications run simultaneously on disjoint core subsets
/// of the board. Each application keeps its own governor (its own Q-table,
/// predictor and slack monitor); the per-application OPP requests are
/// arbitrated per V-F domain by taking the fastest — the only choice that
/// can satisfy every deadline. The epoch loop is run_simulation's
/// (sim/frame_loop.hpp), one decision unit per application; this module
/// owns validation, those units and the per-app attribution.
///
/// Restrictions of this first formulation: all applications share the
/// decision-epoch cadence (equal fps), and energy is attributed to
/// applications in proportion to their executed cycles.
#pragma once

#include <memory>
#include <vector>

#include "gov/governor.hpp"
#include "hw/platform.hpp"
#include "sim/engine.hpp"
#include "wl/application.hpp"

namespace prime::sim {

/// \brief One application pinned to a set of cores.
struct AppPlacement {
  const wl::Application* app = nullptr;  ///< The application (not owned).
  std::vector<std::size_t> cores;        ///< Global core indices it may use.
};

/// \brief Outcome of a concurrent multi-application run.
struct MultiAppResult {
  /// Per-application aggregate results (frame times measured on the app's
  /// own cores; energy attributed by executed-cycle share). Per-epoch
  /// records flow through the per-app telemetry sinks instead.
  std::vector<RunResult> per_app;
  common::Joule total_energy = 0.0;  ///< Exact board energy.
  common::Seconds total_time = 0.0;  ///< Wall-clock simulated.
  /// Epochs in which the applied OPP exceeded an app's own request (it was
  /// dragged faster by a co-runner) — the sharing cost this mode quantifies.
  std::vector<std::size_t> overridden_epochs;
};

/// \brief Options controlling a concurrent multi-application run.
struct MultiAppOptions {
  /// 0 = run the shortest bounded trace to its end. Streaming applications
  /// impose no length; when every placement streams, max_frames must be > 0
  /// (std::invalid_argument otherwise) — it is the sole run-length authority.
  std::size_t max_frames = 0;
  /// Telemetry sinks per application stream, indexed like the placements
  /// (shorter vectors leave the remaining applications unobserved; sinks are
  /// not owned and must outlive the run). Each application's epoch stream is
  /// emitted through the same path the single-app engine uses, with
  /// RunContext::app_index identifying the stream.
  std::vector<std::vector<TelemetrySink*>> app_sinks;
};

/// \brief Run several applications concurrently, one governor per app.
///
/// Requirements (checked, std::invalid_argument on violation): at least one
/// placement; per placement one governor and its own Application object;
/// core sets non-empty, disjoint and within the platform; all applications
/// demand the same frame rate over their *entire* requirement schedules — a
/// mid-run add_requirement_change that forks the rates is rejected up front,
/// not discovered at the divergent frame.
///
/// Placements address cores by global index; per-app OPP requests
/// arbitrate per V-F domain (max among the apps occupying it, clamped to the
/// OPP table), and domains hosting no application keep their current OPP.
/// An epoch counts as overridden for an app when a domain it occupies ran
/// faster than the app's own request.
[[nodiscard]] MultiAppResult run_multi_simulation(
    hw::Platform& platform, const std::vector<AppPlacement>& placements,
    const std::vector<std::unique_ptr<gov::Governor>>& governors,
    const MultiAppOptions& options = {});

/// \brief Convenience overload: frame cap only, no telemetry.
[[nodiscard]] MultiAppResult run_multi_simulation(
    hw::Platform& platform, const std::vector<AppPlacement>& placements,
    const std::vector<std::unique_ptr<gov::Governor>>& governors,
    std::size_t max_frames);

}  // namespace prime::sim
