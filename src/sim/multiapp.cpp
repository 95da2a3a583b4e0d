#include "sim/multiapp.hpp"

#include <algorithm>
#include <numeric>
#include <set>
#include <stdexcept>

#include "sim/telemetry.hpp"

namespace prime::sim {
namespace {

void validate(const hw::Platform& platform,
              const std::vector<AppPlacement>& placements,
              const std::vector<std::unique_ptr<gov::Governor>>& governors) {
  if (placements.empty()) {
    throw std::invalid_argument("run_multi_simulation: no applications");
  }
  if (governors.size() != placements.size()) {
    throw std::invalid_argument(
        "run_multi_simulation: one governor per application required");
  }
  std::set<std::size_t> used;
  const std::size_t cores = platform.total_cores();
  for (const auto& p : placements) {
    if (p.app == nullptr || p.cores.empty()) {
      throw std::invalid_argument("run_multi_simulation: empty placement");
    }
    for (const std::size_t c : p.cores) {
      if (c >= cores) {
        throw std::invalid_argument("run_multi_simulation: core out of range");
      }
      if (!used.insert(c).second) {
        throw std::invalid_argument(
            "run_multi_simulation: core assigned twice");
      }
    }
  }
  // The shared decision cadence requires equal rates over the *whole* run,
  // not just frame 0: add_requirement_change can fork the rates mid-run,
  // which this formulation cannot express. Checking the full schedules up
  // front fails loudly instead of silently mis-cadencing after the first
  // divergent breakpoint. Schedules may differ in representation (redundant
  // breakpoints), so compare the rate in force at every breakpoint any
  // application declares rather than the breakpoint lists.
  std::set<std::size_t> breakpoints;
  for (const auto& p : placements) {
    for (const auto& [frame, fps] : p.app->requirement_schedule()) {
      (void)fps;
      breakpoints.insert(frame);
    }
  }
  const wl::Application& first = *placements.front().app;
  for (const auto& p : placements) {
    for (const std::size_t frame : breakpoints) {
      const double want = first.requirement_at(frame).fps;
      const double got = p.app->requirement_at(frame).fps;
      if (got != want) {
        throw std::invalid_argument(
            "run_multi_simulation: applications must share the epoch rate "
            "over the whole run — '" + p.app->name() + "' demands " +
            std::to_string(got) + " fps from frame " + std::to_string(frame) +
            " while '" + first.name() + "' demands " + std::to_string(want));
      }
    }
  }
}

}  // namespace

MultiAppResult run_multi_simulation(
    hw::Platform& platform, const std::vector<AppPlacement>& placements,
    const std::vector<std::unique_ptr<gov::Governor>>& governors,
    std::size_t max_frames) {
  MultiAppOptions options;
  options.max_frames = max_frames;
  return run_multi_simulation(platform, placements, governors, options);
}

MultiAppResult run_multi_simulation(
    hw::Platform& platform, const std::vector<AppPlacement>& placements,
    const std::vector<std::unique_ptr<gov::Governor>>& governors,
    const MultiAppOptions& options) {
  validate(platform, placements, governors);
  platform.reset();
  for (const auto& g : governors) g->reset();

  const hw::OppTable& opps = platform.opp_table();
  const std::size_t n_apps = placements.size();

  // Run to the shortest bounded trace (or max_frames if tighter). Streaming
  // applications are unbounded and impose no length of their own; when every
  // application streams, max_frames is the sole run-length authority.
  std::size_t frames = options.max_frames;
  bool any_bounded = false;
  for (const auto& p : placements) {
    if (p.app->streaming()) continue;
    any_bounded = true;
    frames = frames == 0 ? p.app->frame_count()
                         : std::min(frames, p.app->frame_count());
  }
  if (!any_bounded && options.max_frames == 0) {
    throw std::invalid_argument(
        "run_multi_simulation: every application streams an unbounded frame "
        "source; set MultiAppOptions::max_frames to the intended run length");
  }

  MultiAppResult result;
  result.per_app.resize(n_apps);
  result.overridden_epochs.assign(n_apps, 0);

  // One emitter per application stream: the identical emission path the
  // single-app engine drives, so per-app aggregates and attached telemetry
  // can never diverge from the engine's bookkeeping.
  std::vector<RunEmitter> emitters;
  emitters.reserve(n_apps);
  for (std::size_t a = 0; a < n_apps; ++a) {
    RunContext ctx;
    ctx.governor = governors[a]->name();
    ctx.application = placements[a].app->name();
    ctx.frames = frames;
    ctx.app_index = a;
    ctx.app_count = n_apps;
    emitters.emplace_back(result.per_app[a],
                          a < options.app_sinks.size() ? options.app_sinks[a]
                                                       : std::vector<TelemetrySink*>{},
                          ctx);
  }

  std::vector<std::optional<gov::EpochObservation>> last(n_apps);

  const std::size_t domains = platform.domain_count();
  // The placements' global core indices become one slot map (app order,
  // then core order): app a's work sits at slots [offset[a], offset[a] +
  // cores), which app_slots lists for its decisions, and its home domain
  // hosts its first core. Requests arbitrate per V-F domain: the max among
  // the apps occupying it (app_in_domain); domains hosting no app keep their
  // OPP.
  std::vector<std::size_t> offset(n_apps);
  std::vector<std::size_t> slot_domain;
  std::vector<std::size_t> slot_local;
  std::vector<std::vector<char>> app_in_domain(n_apps);
  std::vector<std::vector<std::size_t>> app_slots(n_apps);
  for (std::size_t a = 0; a < n_apps; ++a) {
    offset[a] = slot_domain.size();
    app_in_domain[a].assign(domains, 0);
    for (const std::size_t c : placements[a].cores) {
      app_slots[a].push_back(slot_domain.size());
      slot_domain.push_back(platform.domain_of_core(c));
      slot_local.push_back(platform.local_of_core(c));
      app_in_domain[a][slot_domain.back()] = 1;
    }
  }
  // The board's work row and executed cycles, one entry per slot; each app's
  // observation views its own stretch of slot_cycles.
  std::vector<common::Cycles> row(slot_domain.size(), 0);
  std::vector<common::Cycles> slot_cycles(slot_domain.size(), 0);
  std::vector<common::Cycles> demand(n_apps, 0);
  hw::BoardEpoch board =
      platform.make_epoch(std::move(slot_domain), std::move(slot_local));
  std::vector<std::size_t> requests(n_apps, 0);
  std::vector<std::size_t> applied(domains, 0);

  for (std::size_t i = 0; i < frames; ++i) {
    // --- Every app's work row at its offset; the frame's memory fraction is
    // the apps' demand-weighted mean. Nothing here depends on a decision, so
    // the decisions below see the frame they are for.
    double mem_weighted = 0.0;
    double demand_total = 0.0;
    for (std::size_t a = 0; a < n_apps; ++a) {
      const std::size_t n = placements[a].cores.size();
      common::Cycles* app_row = row.data() + offset[a];
      placements[a].app->core_work_into(i, n, app_row);
      demand[a] = std::accumulate(app_row, app_row + n, common::Cycles{0});
      const double d = static_cast<double>(demand[a]);
      mem_weighted += placements[a].app->mem_fraction() * d;
      demand_total += d;
    }
    const double mem_fraction =
        demand_total > 0.0 ? mem_weighted / demand_total : 0.0;

    // --- Per-app decisions, arbitrated per domain.
    common::Seconds ovh_total = 0.0;
    for (std::size_t a = 0; a < n_apps; ++a) {
      gov::DecisionContext ctx;
      ctx.epoch = i;
      ctx.period = placements[a].app->deadline_at(i);
      ctx.cores = placements[a].cores.size();
      ctx.opps = &opps;
      ctx.domain = board.slot_domain[offset[a]];
      ctx.domains = domains;
      ctx.work = row.data();
      ctx.slots = app_slots[a];
      ctx.mem_fraction = mem_fraction;
      requests[a] = governors[a]->decide(ctx, last[a]);
      ovh_total += governors[a]->epoch_overhead();
    }
    for (std::size_t d = 0; d < domains; ++d) {
      bool any = false;
      std::size_t req = 0;
      for (std::size_t a = 0; a < n_apps; ++a) {
        if (!app_in_domain[a][d]) continue;
        req = any ? std::max(req, requests[a]) : requests[a];
        any = true;
      }
      if (any) platform.domain(d).set_opp(req);
      applied[d] = platform.domain(d).current_opp_index();
    }

    // --- The board-epoch kernel; every governor's processing runs on the
    // first app's first core.
    const common::Seconds period = placements.front().app->deadline_at(i);
    platform.run_epoch_into(board, row.data(), ovh_total, period,
                            mem_fraction);
    const common::Watt reading =
        platform.power_sensor().integrate(board.avg_power, board.window);
    result.total_energy += board.energy;
    result.total_time += board.window;

    // --- Per-app accounting and observations.
    for (std::size_t a = 0; a < n_apps; ++a) {
      const auto& p = placements[a];
      common::Seconds app_frame_time = 0.0;
      common::Cycles app_cycles = 0;
      for (std::size_t s = offset[a]; s < offset[a] + p.cores.size(); ++s) {
        const hw::EpochScratch& sc = board.domains[board.slot_domain[s]];
        const std::size_t l = board.slot_local[s];
        // Each core's completion includes its own domain's DVFS stall.
        app_frame_time =
            std::max(app_frame_time, sc.core_busy[l] + sc.dvfs_stall);
        app_cycles += sc.core_cycles[l];
        slot_cycles[s] = sc.core_cycles[l];
      }
      const common::Seconds app_period = p.app->deadline_at(i);
      const bool met = app_frame_time <= app_period;
      const double share =
          board.executed == 0 ? 0.0
                              : static_cast<double>(app_cycles) /
                                    static_cast<double>(board.executed);
      const std::size_t home = board.slot_domain[offset[a]];

      EpochRecord rec;
      rec.epoch = i;
      rec.period = app_period;
      rec.opp_index = applied[home];
      rec.frequency = platform.domain(home).current_opp().frequency;
      rec.demand = demand[a];
      rec.executed = app_cycles;
      rec.frame_time = app_frame_time;
      rec.window = board.window;
      rec.energy = board.energy * share;
      rec.sensor_power = reading * share;
      rec.temperature = board.temperature;
      rec.slack = app_period > 0.0
                      ? (app_period - app_frame_time) / app_period
                      : 0.0;
      rec.deadline_met = met;

      // Overridden when any domain the app occupies ran faster than its
      // own request (it was dragged faster by a co-runner there).
      for (std::size_t d = 0; d < domains; ++d) {
        if (app_in_domain[a][d] && requests[a] < applied[d]) {
          ++result.overridden_epochs[a];
          break;
        }
      }

      if (!last[a]) last[a].emplace();
      gov::EpochObservation& obs = *last[a];
      obs.epoch = i;
      obs.period = app_period;
      obs.frame_time = app_frame_time;
      obs.window = board.window;
      obs.total_cycles = app_cycles;
      obs.core_cycles.bind(slot_cycles.data() + offset[a], p.cores.size());
      obs.opp_index = rec.opp_index;
      obs.avg_power = rec.sensor_power;
      obs.temperature = board.temperature;
      obs.deadline_met = met;

      emitters[a].emit(rec, *governors[a]);
    }
  }
  for (std::size_t a = 0; a < n_apps; ++a) {
    // Per-app share of sensor energy.
    emitters[a].finish(result.per_app[a].total_energy);
  }
  return result;
}

}  // namespace prime::sim
