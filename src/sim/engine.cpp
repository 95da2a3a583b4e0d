#include "sim/engine.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "common/strings.hpp"
#include "qlib/library.hpp"
#include "sim/block_prefetch.hpp"
#include "sim/checkpoint.hpp"
#include "sim/frame_loop.hpp"
#include "sim/placement.hpp"
#include "sim/telemetry.hpp"

namespace prime::sim {

void RunResult::accumulate(const EpochRecord& record) {
  ++epoch_count;
  total_energy += record.energy;
  total_time += record.window;
  if (!record.deadline_met) ++deadline_misses;
  performance_sum +=
      record.period > 0.0 ? record.frame_time / record.period : 0.0;
  power_sum += record.sensor_power;
}

RunResult& RunResult::merge(const RunResult& other) {
  if (governor.empty()) governor = other.governor;
  if (application.empty()) application = other.application;
  epoch_count += other.epoch_count;
  total_energy += other.total_energy;
  measured_energy += other.measured_energy;
  total_time += other.total_time;
  deadline_misses += other.deadline_misses;
  performance_sum += other.performance_sum;
  power_sum += other.power_sum;
  return *this;
}

double RunResult::mean_normalized_performance() const {
  if (epoch_count == 0) return 0.0;
  return performance_sum / static_cast<double>(epoch_count);
}

double RunResult::miss_rate() const {
  if (epoch_count == 0) return 0.0;
  return static_cast<double>(deadline_misses) /
         static_cast<double>(epoch_count);
}

common::Watt RunResult::mean_power() const {
  if (epoch_count == 0) return 0.0;
  return power_sum / static_cast<double>(epoch_count);
}

namespace {

/// Resolve RunOptions::warm_start_from: a `.qpol` path loads directly; a
/// directory is searched by the run's identity and must match exactly one
/// entry (none or several fail closed — point at the file to disambiguate).
qlib::PolicyEntry resolve_warm_start(const std::string& from,
                                     const hw::Platform& platform,
                                     const wl::Application& app,
                                     const gov::Governor& governor) {
  const bool is_file =
      from.size() > 5 && from.compare(from.size() - 5, 5, ".qpol") == 0;
  if (is_file) return qlib::PolicyEntry::load_file(from);
  const qlib::PolicyLibrary lib(from);
  const double fps = common::fps_from_period(app.deadline_at(0));
  auto matches = lib.find(governor.name(), platform.shape_fingerprint(),
                          qlib::PolicyKey::workload_class_of(app.name()),
                          qlib::PolicyKey::fps_band_of(fps));
  if (matches.empty()) {
    throw qlib::QlibError(
        "warm start: no entry in library '" + from + "' matches governor '" +
        governor.name() + "', workload class '" +
        qlib::PolicyKey::workload_class_of(app.name()) + "', fps band " +
        std::to_string(qlib::PolicyKey::fps_band_of(fps)) +
        " on this platform");
  }
  if (matches.size() > 1) {
    throw qlib::QlibError(
        "warm start: " + std::to_string(matches.size()) +
        " entries in library '" + from +
        "' match this run (different governor specs share the display name "
        "'" + governor.name() + "') — pass the .qpol file path instead");
  }
  return std::move(matches.front());
}

/// Refuse learned state saved on a board of another shape (governors size
/// their tables lazily, so a mismatch would silently re-initialise it): the
/// counts first, then the fingerprint, which alone tells apart the same
/// counts over other V-F points. \p what names the file.
template <typename Error>
void check_platform_shape(const std::string& what, std::uint64_t opp_count,
                          std::uint64_t core_count, std::uint64_t fingerprint,
                          const hw::Platform& platform) {
  const std::size_t opps = platform.opp_table().size();
  const std::size_t cores = platform.total_cores();
  if (opp_count != opps || core_count != cores) {
    throw Error(what + ": saved on a platform with " +
                std::to_string(opp_count) + " OPPs and " +
                std::to_string(core_count) + " cores, this one has " +
                std::to_string(opps) + " OPPs and " + std::to_string(cores) +
                " cores");
  }
  if (fingerprint != platform.shape_fingerprint()) {
    throw Error(what + ": saved on a platform with shape fingerprint " +
                common::hex16(fingerprint) + ", this one has " +
                common::hex16(platform.shape_fingerprint()) +
                " (same OPP and core counts, different operating points)");
  }
}

}  // namespace

RunResult run_simulation(hw::Platform& platform, const wl::Application& app,
                         gov::Governor& governor, const RunOptions& options) {
  if (!options.warm_start_from.empty() && !options.resume_from.empty()) {
    throw std::invalid_argument(
        "run_simulation: warm_start_from and resume_from are mutually "
        "exclusive — a resume already restores the learned state");
  }
  const std::size_t domains = platform.domain_count();
  if (domains > 1 && !options.resume_from.empty()) {
    // The checkpoint format stores one pending observation; multi-domain runs
    // carry one per domain. Fail loudly rather than resume with domains 1..N
    // silently re-observing from scratch. (Checkpoint sinks, including the
    // one checkpoint_path attaches, reject such boards when bound.)
    throw std::invalid_argument(
        "run_simulation: resume is not yet supported on multi-domain "
        "platforms (" +
        std::to_string(domains) + " DVFS domains configured)");
  }
  // Resolved on every board, so an unknown name fails closed even where one
  // domain leaves only the identity mapping to run.
  const Placement place = make_placement(options.placement, platform, &app);

  // Resume first: the restored state supersedes the resets (resetting after
  // loading would discard exactly the state the caller asked to keep).
  std::optional<Checkpoint> resume;
  if (!options.resume_from.empty()) {
    resume = Checkpoint::load_file(options.resume_from);
    if (resume->governor != governor.name() ||
        resume->application != app.name()) {
      throw CheckpointError(
          "checkpoint '" + options.resume_from + "': saved for governor '" +
          resume->governor + "' on application '" + resume->application +
          "', cannot resume governor '" + governor.name() +
          "' on application '" + app.name() + "'");
    }
    check_platform_shape<CheckpointError>(
        "checkpoint '" + options.resume_from + "'", resume->opp_count,
        resume->core_count, resume->platform_fingerprint, platform);
    {
      std::istringstream in(resume->governor_state);
      governor.load_state(in);
    }
    {
      std::istringstream in(resume->platform_state);
      platform.load_state(in);
    }
  } else {
    platform.reset();
    if (options.reset_governor) governor.reset();
    if (!options.warm_start_from.empty()) {
      // After the resets: a warm start is a fresh run that begins having
      // already learned, so everything *except* the transferred knowledge
      // starts from zero.
      const qlib::PolicyEntry entry =
          resolve_warm_start(options.warm_start_from, platform, app, governor);
      if (entry.governor_name != governor.name()) {
        throw qlib::QlibError(
            "warm start '" + options.warm_start_from +
            "': entry trained for governor '" + entry.governor_name +
            "', cannot warm-start '" + governor.name() + "'");
      }
      check_platform_shape<qlib::QlibError>(
          "warm start '" + options.warm_start_from + "'", entry.opp_count,
          entry.core_count, entry.key.platform_fingerprint, platform);
      const std::string state = entry.state_for(governor);
      std::istringstream in(state);
      governor.load_state(in);
    }
  }

  const wl::Application* const apps[] = {&app};
  const std::size_t frames = run_length(
      apps, options.max_frames, "run_simulation", "RunOptions::max_frames");

  std::size_t start = 0;
  RunResult result;
  if (resume) {
    start = static_cast<std::size_t>(resume->frame_position);
    if (start > frames) {
      throw std::invalid_argument(
          "run_simulation: checkpoint '" + options.resume_from +
          "' is at frame " + std::to_string(start) +
          ", beyond the requested run length of " + std::to_string(frames));
    }
    result = resume->aggregates;
    // Fast-forward the deterministic frame stream to where the run stopped
    // (O(1) for trace-backed sources; generator streams replay their draws).
    app.skip_to(start);
  }

  const RunContext ctx{governor.name(), app.name(), frames - start};

  // One decision unit per domain over its slots, all with the run's
  // governor. Sized once: the binding lends units[0].last.
  std::vector<DecisionUnit> units(domains);
  for (std::size_t d = 0; d < domains; ++d) {
    units[d].governor = &governor;
    units[d].home = d;
  }
  for (std::size_t j = 0; j < place.slots(); ++j) {
    units[place.slot_domain[j]].slots.push_back(j);
  }
  if (resume && resume->has_last) units[0].last = resume->last;

  // RunOptions::checkpoint_path is sugar for attaching one more sink.
  std::vector<TelemetrySink*> sinks = options.sinks;
  std::unique_ptr<CheckpointSink> own_checkpoint;
  if (!options.checkpoint_path.empty()) {
    own_checkpoint = std::make_unique<CheckpointSink>(
        options.checkpoint_path, options.checkpoint_every);
    sinks.push_back(own_checkpoint.get());
  } else if (options.checkpoint_every != 0) {
    throw std::invalid_argument(
        "run_simulation: RunOptions::checkpoint_every requires "
        "checkpoint_path");
  }
  // Lend every sink the live run. The guard exists before the first bind,
  // so every exit — a sink rejecting the run mid-binding, or a throw
  // mid-run that skips the sinks' own on_run_end — unbinds them all, and a
  // caller-owned sink never keeps a binding into a dead stack frame.
  RunBinding binding{platform, governor, app, result, units[0].last, {}};
  struct UnbindGuard {
    const std::vector<TelemetrySink*>& sinks;
    ~UnbindGuard() {
      for (TelemetrySink* sink : sinks) sink->bind(nullptr);
    }
  } unbind_guard{sinks};
  for (TelemetrySink* sink : sinks) sink->bind(&binding);

  RunEmitter emitter(result, sinks, ctx);

  // The board epoch outlives the loop: units[d].last views its
  // domains[d].core_cycles, and the final checkpoint snapshot
  // (emitter.finish -> on_run_end) deep-copies units[0].last.
  hw::BoardEpoch board =
      platform.make_epoch(place.slot_domain, place.slot_local);

  hw::PowerSensor& sensor = platform.power_sensor();
  BlockPrefetcher prefetch(
      {{&app, platform.total_cores()}}, start, frames,
      std::max<std::size_t>(1, options.block_frames),
      options.block_frames != 0 && prefetch_pays_off(frames - start), &sensor);
  EpochRecord rec;

  // One EpochRecord per frame; each domain's next decision sees its own
  // frame time, cycles and deadline outcome, and the board reading by
  // energy share (every domain shares one sensor).
  run_frame_loop(
      platform, board, prefetch, units,
      [](std::span<wl::FrameBlock> blocks, std::size_t b,
         double& mem_fraction) {
        mem_fraction = blocks[0].mem_fraction;
        return blocks[0].row(b);
      },
      [&](std::span<wl::FrameBlock> blocks, std::size_t b, std::size_t i,
          common::Seconds period, common::Watt reading) {
        // The OPP reported for the epoch is the bottleneck domain's.
        const hw::Cluster& slowest = platform.domain(board.bottleneck);
        rec.epoch = i;
        rec.period = period;
        rec.opp_index = slowest.current_opp_index();
        rec.frequency = slowest.current_opp().frequency;
        rec.demand = blocks[0].demand[b];
        rec.executed = board.executed;
        rec.frame_time = board.frame_time;
        rec.window = board.window;
        rec.energy = board.energy;
        rec.sensor_power = reading;
        rec.temperature = board.temperature;
        rec.slack = period > 0.0 ? (period - board.frame_time) / period : 0.0;
        rec.deadline_met = board.frame_time <= period;

        for (std::size_t d = 0; d < domains; ++d) {
          const hw::EpochScratch& sc = board.domains[d];
          if (!units[d].last) units[d].last.emplace();
          gov::EpochObservation& obs = *units[d].last;
          obs.epoch = i;
          obs.period = period;
          obs.frame_time = sc.frame_time;
          obs.window = sc.window;
          obs.total_cycles = sc.executed;
          obs.core_cycles.bind(sc.core_cycles.data(), sc.core_cycles.size());
          obs.opp_index = platform.domain(d).current_opp_index();
          obs.avg_power = board.energy > 0.0
                              ? reading * (sc.energy / board.energy)
                              : reading / static_cast<double>(domains);
          obs.temperature = sc.temperature;
          obs.deadline_met = sc.deadline_met;
        }
        emitter.emit(rec, governor);
      });
  emitter.finish(sensor.measured_energy());
  return result;
}

}  // namespace prime::sim
