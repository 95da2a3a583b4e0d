#include "sim/multiapp.hpp"

#include <algorithm>
#include <numeric>
#include <ranges>
#include <stdexcept>
#include <string>

#include "sim/block_prefetch.hpp"
#include "sim/frame_loop.hpp"
#include "sim/telemetry.hpp"

namespace prime::sim {
namespace {

[[noreturn]] void reject(const std::string& what) {
  throw std::invalid_argument("run_multi_simulation: " + what);
}

void validate(const hw::Platform& platform,
              const std::vector<AppPlacement>& placements,
              const std::vector<std::unique_ptr<gov::Governor>>& governors) {
  if (placements.empty()) reject("no applications");
  if (governors.size() != placements.size()) {
    reject("one governor per application required");
  }
  const std::size_t cores = platform.total_cores();
  std::vector<std::size_t> owner(cores, placements.size());  // By core.
  auto named = [&](std::size_t i) {
    return "application '" + placements[i].app->name() + "' (placement " +
           std::to_string(i) + ")";
  };
  for (std::size_t i = 0; i < placements.size(); ++i) {
    const AppPlacement& p = placements[i];
    if (p.app == nullptr) {
      reject("placement " + std::to_string(i) + " has no application");
    }
    // One Application is one replay cursor, which two placements would rewind.
    for (std::size_t j = 0; j < i; ++j) {
      if (placements[j].app == p.app) {
        reject(named(i) + " is the same object as " + named(j) +
               "; give each placement its own Application");
      }
    }
    if (p.cores.empty()) reject(named(i) + " is placed on no core");
    for (const std::size_t c : p.cores) {
      if (c >= cores) {
        reject(named(i) + " is placed on core " + std::to_string(c) +
               ", out of range on a board of " + std::to_string(cores) +
               " cores");
      }
      if (owner[c] != placements.size()) {
        reject("core " + std::to_string(c) + " of " + std::to_string(cores) +
               " is assigned twice, to " + named(owner[c]) + " and to " +
               named(i));
      }
      owner[c] = i;
    }
    // The shared decision cadence requires equal rates over the *whole* run.
    // Rates are step functions of the frame, so two agree everywhere when
    // they agree at each breakpoint of either.
    const wl::Application& first = *placements.front().app;
    for (const wl::Application* app : {&first, p.app}) {
      for (const std::size_t frame :
           std::views::keys(app->requirement_schedule())) {
        const double want = first.requirement_at(frame).fps;
        const double got = p.app->requirement_at(frame).fps;
        if (got != want) {
          reject("applications must share the epoch rate over the whole run "
                 "— '" + p.app->name() + "' demands " + std::to_string(got) +
                 " fps from frame " + std::to_string(frame) + " while '" +
                 first.name() + "' demands " + std::to_string(want));
        }
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

  const std::size_t n_apps = placements.size();

  std::vector<const wl::Application*> apps;
  for (const auto& p : placements) apps.push_back(p.app);
  const std::size_t frames = run_length(
      apps, options.max_frames, "run_multi_simulation",
      "MultiAppOptions::max_frames");

  MultiAppResult result;
  result.per_app.resize(n_apps);
  result.overridden_epochs.assign(n_apps, 0);

  // One slot map in app order, then core order. Each app emits through
  // run_simulation's path, so its aggregates and telemetry match the engine's.
  std::vector<std::size_t> slot_domain;
  std::vector<std::size_t> slot_local;
  std::vector<DecisionUnit> units(n_apps);
  std::vector<BlockPrefetcher::Source> sources;
  std::vector<RunEmitter> emitters;
  emitters.reserve(n_apps);
  for (std::size_t a = 0; a < n_apps; ++a) {
    const AppPlacement& p = placements[a];
    units[a].governor = governors[a].get();
    units[a].slots.resize(p.cores.size());
    std::iota(units[a].slots.begin(), units[a].slots.end(), slot_domain.size());
    units[a].home = platform.domain_of_core(p.cores.front());
    sources.push_back({p.app, p.cores.size()});
    for (const std::size_t c : p.cores) {
      slot_domain.push_back(platform.domain_of_core(c));
      slot_local.push_back(platform.local_of_core(c));
    }
    emitters.emplace_back(
        result.per_app[a],
        a < options.app_sinks.size() ? options.app_sinks[a]
                                     : std::vector<TelemetrySink*>{},
        RunContext{governors[a]->name(), p.app->name(), frames, a, n_apps});
  }
  // Work and executed cycles per slot; each app observes its own stretch.
  std::vector<common::Cycles> row(slot_domain.size(), 0);
  std::vector<common::Cycles> slot_cycles(slot_domain.size(), 0);
  hw::BoardEpoch board =
      platform.make_epoch(std::move(slot_domain), std::move(slot_local));
  // Filled on this thread: on a 4-vCPU x86-64 VM the prefetch helper slowed
  // 2000- to 10000-frame runs of two and four apps in 9 of 10 timed cases.
  BlockPrefetcher prefetch(std::move(sources), 0, frames, kBlockFrames, false,
                           &platform.power_sensor());
  EpochRecord rec;

  // The memory fraction is the apps' demand-weighted mean. Each app records
  // and observes its own cores, with the board's energy by cycle share.
  run_frame_loop(
      platform, board, prefetch, units,
      [&](std::span<wl::FrameBlock> blocks, std::size_t b,
          double& mem_fraction) {
        double mem_weighted = 0.0;
        double demand_total = 0.0;
        for (std::size_t a = 0; a < n_apps; ++a) {
          const wl::FrameBlock& block = blocks[a];
          std::copy_n(block.row(b), block.cores,
                      row.data() + units[a].slots.front());
          const double d = static_cast<double>(block.demand[b]);
          mem_weighted += block.mem_fraction * d;
          demand_total += d;
        }
        mem_fraction = demand_total > 0.0 ? mem_weighted / demand_total : 0.0;
        return row.data();
      },
      [&](std::span<wl::FrameBlock> blocks, std::size_t b, std::size_t i,
          common::Seconds period, common::Watt reading) {
        result.total_energy += board.energy;
        result.total_time += board.window;
        for (std::size_t a = 0; a < n_apps; ++a) {
          DecisionUnit& unit = units[a];
          common::Seconds frame_time = 0.0;
          common::Cycles cycles = 0;
          bool overridden = false;  // A co-runner dragged a domain faster.
          for (const std::size_t s : unit.slots) {
            const std::size_t d = board.slot_domain[s];
            const hw::EpochScratch& sc = board.domains[d];
            const std::size_t l = board.slot_local[s];
            // Each core's completion includes its own domain's DVFS stall.
            frame_time = std::max(frame_time, sc.core_busy[l] + sc.dvfs_stall);
            cycles += sc.core_cycles[l];
            slot_cycles[s] = sc.core_cycles[l];
            overridden = overridden ||
                         unit.request < platform.domain(d).current_opp_index();
          }
          result.overridden_epochs[a] += overridden ? 1 : 0;
          const double share = board.executed == 0
                                   ? 0.0
                                   : static_cast<double>(cycles) /
                                         static_cast<double>(board.executed);
          const hw::Cluster& home = platform.domain(unit.home);

          rec.epoch = i;
          rec.period = period;
          rec.opp_index = home.current_opp_index();
          rec.frequency = home.current_opp().frequency;
          rec.demand = blocks[a].demand[b];
          rec.executed = cycles;
          rec.frame_time = frame_time;
          rec.window = board.window;
          rec.energy = board.energy * share;
          rec.sensor_power = reading * share;
          rec.temperature = board.temperature;
          rec.slack = period > 0.0 ? (period - frame_time) / period : 0.0;
          rec.deadline_met = frame_time <= period;

          if (!unit.last) unit.last.emplace();
          gov::EpochObservation& obs = *unit.last;
          obs.epoch = i;
          obs.period = period;
          obs.frame_time = frame_time;
          obs.window = board.window;
          obs.total_cycles = cycles;
          obs.core_cycles.bind(slot_cycles.data() + unit.slots.front(),
                               unit.slots.size());
          obs.opp_index = rec.opp_index;
          obs.avg_power = rec.sensor_power;
          obs.temperature = board.temperature;
          obs.deadline_met = rec.deadline_met;

          emitters[a].emit(rec, *governors[a]);
        }
      });
  for (std::size_t a = 0; a < n_apps; ++a) {
    emitters[a].finish(result.per_app[a].total_energy);  // Its share.
  }
  return result;
}

}  // namespace prime::sim
