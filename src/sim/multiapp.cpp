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
  // which this formulation cannot express (DESIGN.md). Checking the full
  // schedules up front fails loudly instead of silently mis-cadencing after
  // the first divergent breakpoint. Schedules may differ in representation
  // (redundant breakpoints), so compare the rate in force at every
  // breakpoint any application declares rather than the breakpoint lists.
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
  // Placements address the board through global core indices; each app's
  // request is arbitrated per V-F domain (max among the apps occupying it —
  // domains hosting no app keep their OPP), each domain runs its own epoch,
  // and per-app accounting reads the (domain, local) cores the app owns. A
  // single-domain board is the one-domain case of the same loop.
  std::vector<std::size_t> requests(n_apps, 0);
  std::vector<std::size_t> applied(domains, 0);
  std::vector<std::size_t> dcores(domains);
  std::vector<std::vector<common::Cycles>> dwork(domains);
  std::vector<hw::EpochScratch> dscratch(domains);
  for (std::size_t d = 0; d < domains; ++d) {
    dcores[d] = platform.domain(d).core_count();
    dwork[d].resize(dcores[d]);
  }
  std::vector<std::vector<common::Cycles>> app_work(n_apps);
  std::vector<std::vector<common::Cycles>> app_cycles_buf(n_apps);
  // Which domains each app occupies (its requests arbitrate only there).
  std::vector<std::vector<char>> app_in_domain(n_apps);
  for (std::size_t a = 0; a < n_apps; ++a) {
    app_work[a].resize(placements[a].cores.size(), 0);
    app_cycles_buf[a].resize(placements[a].cores.size(), 0);
    app_in_domain[a].assign(domains, 0);
    for (const std::size_t c : placements[a].cores) {
      app_in_domain[a][platform.domain_of_core(c)] = 1;
    }
  }

  for (std::size_t i = 0; i < frames; ++i) {
    // --- Per-app decisions, arbitrated per domain.
    common::Seconds ovh_total = 0.0;
    for (std::size_t a = 0; a < n_apps; ++a) {
      gov::DecisionContext ctx;
      ctx.epoch = i;
      ctx.period = placements[a].app->deadline_at(i);
      ctx.cores = placements[a].cores.size();
      ctx.opps = &opps;
      ctx.domain = platform.domain_of_core(placements[a].cores.front());
      ctx.domains = domains;
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

    // --- Assemble per-domain work vectors.
    for (std::size_t d = 0; d < domains; ++d) {
      std::fill(dwork[d].begin(), dwork[d].end(), common::Cycles{0});
    }
    double mem_weighted = 0.0;
    double demand_total = 0.0;
    for (std::size_t a = 0; a < n_apps; ++a) {
      placements[a].app->core_work_into(i, placements[a].cores.size(),
                                        app_work[a].data());
      for (std::size_t j = 0; j < placements[a].cores.size(); ++j) {
        const std::size_t c = placements[a].cores[j];
        dwork[platform.domain_of_core(c)][platform.local_of_core(c)] =
            app_work[a][j];
      }
      const double d = static_cast<double>(
          std::accumulate(app_work[a].begin(), app_work[a].end(),
                          common::Cycles{0}));
      mem_weighted += placements[a].app->mem_fraction() * d;
      demand_total += d;
    }
    const double mem_fraction =
        demand_total > 0.0 ? mem_weighted / demand_total : 0.0;

    // All governors' processing runs on the first app's first core, at
    // that core's domain frequency.
    if (!placements.front().cores.empty() && ovh_total > 0.0) {
      const std::size_t c0 = placements.front().cores.front();
      const std::size_t hd = platform.domain_of_core(c0);
      dwork[hd][platform.local_of_core(c0)] += common::cycles_at(
          platform.domain(hd).current_opp().frequency, ovh_total);
    }

    // --- Execute every domain's epoch; board-level quantities combine as
    // in the single-app engine (windows/temperatures max, energy sums, one
    // sensor reading over the combined epoch).
    const common::Seconds period = placements.front().app->deadline_at(i);
    common::Seconds window = 0.0;
    common::Joule energy = 0.0;
    common::Celsius temperature = 0.0;
    common::Cycles executed_total = 0;
    for (std::size_t d = 0; d < domains; ++d) {
      platform.domain(d).run_epoch_into(dwork[d].data(), dcores[d], period,
                                        mem_fraction, 1.0e9, dscratch[d]);
      window = std::max(window, dscratch[d].window);
      temperature = std::max(temperature, dscratch[d].temperature);
      energy += dscratch[d].energy;
      executed_total +=
          std::accumulate(dscratch[d].core_cycles.begin(),
                          dscratch[d].core_cycles.end(), common::Cycles{0});
    }
    const common::Watt avg_power = window > 0.0 ? energy / window : 0.0;
    const common::Watt reading =
        platform.power_sensor().integrate(avg_power, window);

    result.total_energy += energy;
    result.total_time += window;

    // --- Per-app accounting and observations.
    for (std::size_t a = 0; a < n_apps; ++a) {
      const auto& p = placements[a];
      common::Seconds app_frame_time = 0.0;
      common::Cycles app_cycles = 0;
      for (std::size_t j = 0; j < p.cores.size(); ++j) {
        const std::size_t c = p.cores[j];
        const std::size_t d = platform.domain_of_core(c);
        const std::size_t l = platform.local_of_core(c);
        // Each core's completion includes its own domain's DVFS stall.
        app_frame_time = std::max(
            app_frame_time, dscratch[d].core_busy[l] + dscratch[d].dvfs_stall);
        app_cycles += dscratch[d].core_cycles[l];
        app_cycles_buf[a][j] = dscratch[d].core_cycles[l];
      }
      const common::Seconds app_period = p.app->deadline_at(i);
      const bool met = app_frame_time <= app_period;
      const double share =
          executed_total == 0 ? 0.0
                              : static_cast<double>(app_cycles) /
                                    static_cast<double>(executed_total);
      const std::size_t home = platform.domain_of_core(p.cores.front());

      EpochRecord rec;
      rec.epoch = i;
      rec.period = app_period;
      rec.opp_index = applied[home];
      rec.frequency = platform.domain(home).current_opp().frequency;
      rec.demand = app_cycles;
      rec.executed = app_cycles;
      rec.frame_time = app_frame_time;
      rec.window = window;
      rec.energy = energy * share;
      rec.sensor_power = reading * share;
      rec.temperature = temperature;
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
      obs.window = window;
      obs.total_cycles = app_cycles;
      obs.core_cycles.bind(app_cycles_buf[a].data(),
                           app_cycles_buf[a].size());
      obs.opp_index = rec.opp_index;
      obs.avg_power = rec.sensor_power;
      obs.temperature = temperature;
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
