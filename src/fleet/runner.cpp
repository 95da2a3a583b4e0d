#include "fleet/runner.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/hash.hpp"
#include "common/strings.hpp"
#include "gov/merge.hpp"
#include "sim/dashboard.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"

namespace prime::fleet {

namespace {

/// A resumed checkpoint plus the live per-cell mergers rebuilt from its
/// policy accumulators — both or neither, so a resumed session's policy fold
/// continues bit-identically to an uninterrupted one.
struct ResumedShard {
  ShardSummary summary;
  std::map<std::uint64_t, std::unique_ptr<gov::StateMerger>> mergers;
};

/// Load a usable resume point, or nullopt for a fresh start. Deliberately
/// swallows every load error: the checkpoint only saves work, and a corrupt
/// or foreign file must never wedge a retried worker.
std::optional<ResumedShard> try_resume(const std::string& checkpoint_path,
                                       std::uint64_t fingerprint,
                                       const Shard& shard,
                                       const PopulationSpec& pop) {
  if (checkpoint_path.empty()) return std::nullopt;
  try {
    ShardSummary ck = ShardSummary::load_file(checkpoint_path);
    if (ck.fingerprint != fingerprint || ck.shard.index != shard.index ||
        ck.shard.count != shard.count ||
        ck.shard.device_begin != shard.device_begin ||
        ck.shard.device_end != shard.device_end) {
      return std::nullopt;  // different population or partition: start over
    }
    // Rebuild the live mergers from the checkpointed accumulator bytes. Any
    // problem — a cell's governor no longer mergeable, torn accumulator —
    // discards the checkpoint like any other load error.
    ResumedShard resumed;
    for (const auto& [cell, policy] : ck.policies) {
      if (!policy.mergeable) continue;
      auto merger = sim::make_governor(pop.cell(static_cast<std::size_t>(cell))
                                           .governor,
                                       0)
                        ->make_state_merger();
      if (!merger) return std::nullopt;
      merger->add_accumulator(policy.accumulator);
      resumed.mergers.emplace(cell, std::move(merger));
    }
    resumed.summary = std::move(ck);
    return resumed;
  } catch (...) {
    return std::nullopt;
  }
}

}  // namespace

DeviceOutcome run_device_outcome(const PopulationSpec& pop,
                                 const DeviceSpec& dev,
                                 const std::vector<sim::TelemetrySink*>& sinks) {
  // A fresh platform per device: every device is an independent board with
  // its own sensor-noise stream, thermal state and history.
  const auto platform = hw::Platform::odroid_xu3_a15(dev.platform_seed);

  sim::ExperimentSpec spec;
  spec.workload = dev.workload;
  spec.fps = dev.fps;
  spec.frames = pop.frames;
  spec.seed = dev.trace_seed;
  spec.stream = pop.stream;
  spec.target_utilisation = pop.target_utilisation;
  const wl::Application app = sim::make_application(spec, *platform);

  const auto governor = sim::make_governor(dev.governor, dev.governor_seed);

  sim::RunOptions run_opts;
  run_opts.max_frames = pop.frames;
  run_opts.sinks = sinks;
  DeviceOutcome out;
  out.result = sim::run_simulation(*platform, app, *governor, run_opts);
  out.governor_name = governor->name();
  {
    std::ostringstream state(std::ios::binary);
    governor->save_state(state);
    out.governor_state = state.str();
  }
  out.opp_count = platform->opp_table().size();
  out.core_count = platform->total_cores();
  out.platform_fingerprint = platform->shape_fingerprint();
  return out;
}

sim::RunResult run_device(const PopulationSpec& pop, const DeviceSpec& dev) {
  return run_device_outcome(pop, dev).result;
}

ShardSummary run_shard(const PopulationSpec& pop, const Shard& shard,
                       const ShardRunnerOptions& opts) {
  pop.validate();
  if (opts.summary_path.empty()) {
    throw std::invalid_argument("run_shard: summary_path is required");
  }
  if (shard.device_end > pop.device_count() ||
      shard.device_begin > shard.device_end) {
    throw std::invalid_argument(
        "run_shard: shard range [" + std::to_string(shard.device_begin) +
        ", " + std::to_string(shard.device_end) + ") exceeds the population (" +
        std::to_string(pop.device_count()) + " devices)");
  }

  const std::uint64_t fingerprint = pop.fingerprint();
  ShardSummary summary;
  std::map<std::uint64_t, std::unique_ptr<gov::StateMerger>> mergers;
  if (auto resumed = try_resume(opts.checkpoint_path, fingerprint, shard, pop)) {
    summary = std::move(resumed->summary);
    mergers = std::move(resumed->mergers);
  } else {
    summary.fingerprint = fingerprint;
    summary.shard = shard;
    summary.next_device = shard.device_begin;
  }
  summary.started_at_device = summary.next_device;

  // One dashboard for the whole shard session: the port stays bound across
  // device runs, runs_completed counts devices finished, and a polling
  // driver sees the in-flight device's live aggregates.
  std::unique_ptr<sim::DashboardSink> dashboard;
  std::vector<sim::TelemetrySink*> sinks;
  if (opts.dashboard_port != 0) {
    dashboard = std::make_unique<sim::DashboardSink>(opts.dashboard_port,
                                                     opts.dashboard_every);
    sinks.push_back(dashboard.get());
  }

  std::size_t session_devices = 0;
  while (summary.next_device < shard.device_end) {
    const auto index = static_cast<std::size_t>(summary.next_device);
    const DeviceSpec dev = pop.device(index);
    const DeviceOutcome outcome = run_device_outcome(pop, dev, sinks);
    const sim::RunResult& result = outcome.result;

    auto it = summary.cells.find(dev.cell);
    if (it == summary.cells.end()) {
      it = summary.cells.emplace(dev.cell, CellStats(pop)).first;
    }
    it->second.add_device(result);

    // Policy fold. First touch of a cell decides mergeability once (from the
    // cell's governor spec — deterministic, so every shard of a population
    // agrees); after that every device's trained state folds into the cell's
    // merger and the serialised accumulator is refreshed so any checkpoint
    // written at this boundary carries the fold so far.
    auto pit = summary.policies.find(dev.cell);
    if (pit == summary.policies.end()) {
      CellPolicy policy;
      policy.governor_name = outcome.governor_name;
      policy.opp_count = outcome.opp_count;
      policy.core_count = outcome.core_count;
      policy.platform_fingerprint = outcome.platform_fingerprint;
      auto merger = sim::make_governor(dev.governor, 0)->make_state_merger();
      policy.mergeable = merger != nullptr;
      if (merger) mergers.emplace(dev.cell, std::move(merger));
      pit = summary.policies.emplace(dev.cell, std::move(policy)).first;
    }
    CellPolicy& policy = pit->second;
    if (policy.mergeable) {
      auto& merger = mergers.at(dev.cell);
      merger->add_state(outcome.governor_state);
      policy.epochs += result.epoch_count;
      common::Fnv1a64 h;
      h.u64(summary.next_device);  // population-wide device index
      h.u64(result.epoch_count);
      h.bytes(outcome.governor_state.data(), outcome.governor_state.size());
      policy.source_fingerprint ^= h.value();  // XOR: order-invariant
      policy.accumulator = merger->accumulator();
    }
    ++summary.next_device;
    ++session_devices;

    const bool done = summary.next_device == shard.device_end;
    if (!opts.checkpoint_path.empty() && opts.checkpoint_every > 0 &&
        session_devices % opts.checkpoint_every == 0 && !done) {
      summary.save_file(opts.checkpoint_path);
    }
    if (opts.fail_after_devices > 0 && opts.attempt == 0 &&
        session_devices == opts.fail_after_devices && !done) {
      // Simulated crash: no summary, no unwinding, no atexit — exactly what
      // an OOM-kill or power loss leaves behind (at most a sealed checkpoint).
      std::_Exit(kWorkerFailureExit);
    }
  }

  summary.save_file(opts.summary_path);
  // The sealed summary supersedes the progress file (shard_already_done
  // reads only the .fsum). A shard that finished before its first
  // checkpoint boundary never wrote one, which remove() does not count as
  // an error.
  if (!opts.checkpoint_path.empty()) {
    std::filesystem::remove(opts.checkpoint_path);
  }
  return summary;
}

ShardRunnerOptions WorkerBatch::shard_options(std::size_t position) const {
  const std::size_t shard_index = shards.at(position);
  ShardRunnerOptions opts;
  opts.summary_path = shard_summary_path(out_dir, shard_index);
  opts.checkpoint_path = shard_checkpoint_path(out_dir, shard_index);
  opts.checkpoint_every = checkpoint_every;
  opts.attempt = attempts.at(position);
  opts.fail_after_devices = fail_after_devices;
  if (dashboard_port_base != 0) {
    opts.dashboard_port =
        static_cast<std::uint16_t>(dashboard_port_base + shard_index);
  }
  opts.dashboard_every = dashboard_every;
  return opts;
}

std::vector<std::string> WorkerBatch::to_args() const {
  const auto list = [](const std::vector<std::size_t>& values) {
    std::vector<std::string> fields;
    fields.reserve(values.size());
    for (const std::size_t v : values) fields.push_back(std::to_string(v));
    return common::join(fields, ",");
  };
  std::vector<std::string> args = {
      "shard=" + list(shards),
      "shards=" + std::to_string(shard_count),
      "out=" + out_dir,
      "checkpoint-every=" + std::to_string(checkpoint_every),
      "attempt=" + list(attempts)};
  if (fail_after_devices > 0) {
    args.push_back("fail-after=" + std::to_string(fail_after_devices));
  }
  if (dashboard_port_base != 0) {
    args.push_back("dashboard-port-base=" +
                   std::to_string(dashboard_port_base));
  }
  return args;
}

WorkerBatch WorkerBatch::from_config(const common::Config& cfg) {
  const auto list = [&cfg](const char* key) {
    std::vector<std::size_t> out;
    for (const auto& field : common::split(cfg.get_string(key, ""), ',')) {
      const std::string token = common::trim(field);
      char* end = nullptr;
      errno = 0;
      const unsigned long long value =
          std::strtoull(token.c_str(), &end, 10);
      if (token.empty() || token.front() == '-' || *end != '\0' ||
          errno == ERANGE) {
        throw std::invalid_argument("fleet worker: cannot parse '" + token +
                                    "' in " + key + "=");
      }
      out.push_back(static_cast<std::size_t>(value));
    }
    return out;
  };
  WorkerBatch batch;
  batch.out_dir = cfg.get_string("out", batch.out_dir);
  batch.shard_count = static_cast<std::size_t>(cfg.get_int("shards", 1));
  batch.shards = list("shard");
  if (batch.shards.empty()) {
    throw std::invalid_argument("fleet worker: shard= names no shard");
  }
  batch.attempts = cfg.has("attempt")
                       ? list("attempt")
                       : std::vector<std::size_t>(batch.shards.size(), 0);
  if (batch.attempts.size() != batch.shards.size()) {
    throw std::invalid_argument(
        "fleet worker: attempt= lists " +
        std::to_string(batch.attempts.size()) + " attempts for " +
        std::to_string(batch.shards.size()) + " shards");
  }
  batch.checkpoint_every =
      static_cast<std::size_t>(cfg.get_int("checkpoint-every", 0));
  batch.fail_after_devices =
      static_cast<std::size_t>(cfg.get_int("fail-after", 0));
  batch.dashboard_port_base =
      static_cast<std::uint32_t>(cfg.get_int("dashboard-port-base", 0));
  const std::size_t last_shard =
      *std::max_element(batch.shards.begin(), batch.shards.end());
  if (batch.dashboard_port_base != 0 &&
      batch.dashboard_port_base + last_shard > 65535) {
    throw std::invalid_argument(
        "fleet worker: dashboard-port-base " +
        std::to_string(batch.dashboard_port_base) + " + shard " +
        std::to_string(last_shard) + " exceeds port 65535");
  }
  batch.dashboard_every = static_cast<std::size_t>(cfg.get_int(
      "dashboard-every", static_cast<long long>(batch.dashboard_every)));
  return batch;
}

int run_worker(const PopulationSpec& pop, const WorkerBatch& batch) noexcept {
  for (std::size_t i = 0; i < batch.shards.size(); ++i) {
    try {
      const ShardPlan plan(pop.device_count(), batch.shard_count);
      (void)run_shard(pop, plan.shard(batch.shards[i]),
                      batch.shard_options(i));
    } catch (const std::exception& e) {
      std::cerr << "fleet worker (shard " << batch.shards[i] << "): "
                << e.what() << "\n";
      return kWorkerFailureExit;
    } catch (...) {
      std::cerr << "fleet worker (shard " << batch.shards[i]
                << "): unknown error\n";
      return kWorkerFailureExit;
    }
  }
  return 0;
}

}  // namespace prime::fleet
