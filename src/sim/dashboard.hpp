/// \file dashboard.hpp
/// \brief Live run observation: the `dashboard(port=,every=)` telemetry sink.
///
/// Week-long runs and fleet shards were fire-and-forget: telemetry only
/// became inspectable once the run sealed its artifacts. DashboardSink makes
/// a run watchable *in flight* — it keeps the same O(1) aggregates the
/// engine maintains (folded through the one shared RunResult::accumulate
/// path, so a served snapshot is bit-identical to what the `aggregate` sink
/// reports for the same epoch prefix), plus per-domain OPP residency counts
/// and a bounded tail of recent epochs, and serves them as JSON over a
/// minimal loopback HTTP server (common/http.hpp):
///
///     GET /snapshot                 one JSON snapshot (schema below)
///     GET /events                   SSE feed: one `data: <snapshot>` event
///                                   per publication (every `every` epochs
///                                   and at run end)
///     GET /window?from=N&count=M    scroll-back: records [N, N+M) as JSON,
///                                   read live from the run's growing `.bt`
///                                   via BinTraceReader follow mode (404
///                                   when no bintrace sink rides along)
///
/// Snapshot schema (all doubles %.17g — round-trip exact):
///
///     {"governor": "...", "application": "...",
///      "state": "idle" | "running" | "finished",
///      "runs_completed": N, "planned_frames": N,
///      "aggregates": {"epoch_count": N, "total_energy": X,
///                     "measured_energy": X, "total_time": X,
///                     "deadline_misses": N, "performance_sum": X,
///                     "power_sum": X, "mean_normalized_performance": X,
///                     "miss_rate": X, "mean_power": X},
///      "opp_residency": [[epochs at domain-0 OPP 0, OPP 1, ...], ...],
///      "tail": [{epoch record fields}, ...]}
///
/// The server binds lazily at the first run begin (the CsvSink contract: a
/// constructed, never-run sink touches nothing — and never squats a port).
/// Everything served is O(aggregates + tail + domains) — per-epoch cost is
/// an accumulate and a ring push under one mutex, with JSON rendered only
/// when a client asks, so the sink rides inside the 24 MB long-run bound.
#pragma once

#include <cstdint>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/http.hpp"
#include "common/ring_buffer.hpp"
#include "sim/telemetry.hpp"

namespace prime::sim {

/// \brief The `aggregates` sub-object of a dashboard snapshot for \p result,
///        exactly as the sink serves it (same field order, same %.17g
///        encoding). The differential tests and the long-run smoke's final
///        self-check byte-compare a served snapshot against this, pinning
///        the dashboard to the `aggregate` sink's values.
[[nodiscard]] std::string snapshot_aggregates_json(const RunResult& result);

/// \brief One EpochRecord as a JSON object (dashboard tail / window rows).
[[nodiscard]] std::string epoch_record_json(const EpochRecord& record);

/// \brief Telemetry sink serving live snapshots over HTTP.
///        Spec: `dashboard(port=8080,every=1000,tail=256,bt=out/run.bt)`.
///
/// `port` is required (0 binds an ephemeral port — read it back with
/// bound_port()); `every` is the SSE publication cadence in epochs; `tail`
/// is the retained recent-epoch window (0 disables); `bt` points /window at
/// a `.bt` being written by a bintrace sink — when omitted, /window serves
/// the run's RunBinding::trace_path, the first bintrace sink attached to
/// the same run.
///
/// Bound to a run (bind()), the sink reads every domain's live OPP through
/// the bound platform for the residency histogram (EpochRecord carries only
/// the bottleneck domain's OPP); unbound — standalone use, or the multi-app
/// engine — it counts each record's opp_index, exact on single-domain
/// platforms. The trace path is copied at run begin, so the sealed trace
/// stays scrollable after the run, until the next run begin replaces it (or
/// clears it, when that run carries no bintrace sink or is never bound).
///
/// The sink persists across consecutive runs (a fleet shard reuses one
/// dashboard for every device run): aggregates and tail reset per run,
/// runs_completed counts up, and the port stays bound.
class DashboardSink : public TelemetrySink {
 public:
  DashboardSink(std::uint16_t port, std::size_t every,
                std::size_t tail_n = 256, std::string bt_path = "");
  ~DashboardSink() override;

  void bind(RunBinding* run) override;
  void on_run_begin(const RunContext& ctx) override;
  void on_epoch(const EpochRecord& record, gov::Governor& governor) override;
  void on_run_end(const RunResult& result) override;

  /// \brief The port actually bound (resolves port=0), or 0 before the
  ///        server has started (no run begun yet).
  [[nodiscard]] std::uint16_t bound_port() const;
  /// \brief HTTP requests served to completion so far (0 before start).
  [[nodiscard]] std::uint64_t requests_served() const;
  /// \brief The current snapshot JSON, exactly as /snapshot serves it.
  [[nodiscard]] std::string snapshot_json() const;

 private:
  [[nodiscard]] common::HttpResponse handle(const common::HttpRequest& req);
  [[nodiscard]] common::HttpResponse handle_window(
      const common::HttpRequest& req);
  [[nodiscard]] std::string render_snapshot_locked() const;

  std::uint16_t port_;
  std::size_t every_;
  std::size_t tail_n_;
  std::string spec_bt_path_;  ///< From the bt= key; wins over the bound path.

  mutable std::mutex mu_;
  std::condition_variable cv_;       ///< Signalled per publication for SSE.
  std::uint64_t version_ = 0;        ///< Publication counter.
  std::string state_ = "idle";
  RunContext ctx_;
  RunResult live_;
  std::uint64_t runs_completed_ = 0;
  std::vector<std::vector<std::uint64_t>> residency_;  ///< [domain][opp]
  std::optional<common::RingBuffer<EpochRecord>> tail_;
  const RunBinding* run_ = nullptr;  ///< Engine thread only.
  std::string bound_bt_path_;        ///< The bound run's trace_path.

  std::unique_ptr<common::HttpServer> server_;  ///< Started lazily.
};

}  // namespace prime::sim
