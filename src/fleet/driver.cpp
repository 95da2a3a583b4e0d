#include "fleet/driver.hpp"

#include <sys/types.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <unistd.h>
#include <utility>
#include <vector>

#include "fleet/runner.hpp"
#include "gov/merge.hpp"
#include "qlib/library.hpp"
#include "qlib/policy.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"

namespace prime::fleet {

namespace {

std::string format_exact(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string format_short(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.4g", value);
  return buf;
}

/// True when a sealed, complete summary for exactly this shard of exactly
/// this population already sits at \p path — the shard needs no worker.
bool shard_already_done(const std::string& path, std::uint64_t fingerprint,
                        const Shard& shard) {
  try {
    const ShardSummary s = ShardSummary::load_file(path);
    return s.fingerprint == fingerprint && s.shard.index == shard.index &&
           s.shard.count == shard.count &&
           s.shard.device_begin == shard.device_begin &&
           s.shard.device_end == shard.device_end && s.complete();
  } catch (...) {
    return false;
  }
}

/// The batch of \p shards, each at its attempt in \p attempts (0 when
/// absent), with the fleet's per-shard settings.
WorkerBatch worker_batch(const FleetOptions& fleet,
                         std::vector<std::size_t> shards,
                         const std::map<std::size_t, std::size_t>& attempts) {
  WorkerBatch batch;
  batch.out_dir = fleet.out_dir;
  batch.shard_count = fleet.shards;
  for (const std::size_t shard_index : shards) {
    const auto it = attempts.find(shard_index);
    batch.attempts.push_back(it == attempts.end() ? 0 : it->second);
  }
  batch.shards = std::move(shards);
  batch.checkpoint_every = fleet.checkpoint_every;
  batch.fail_after_devices = fleet.fail_first_attempt_after;
  batch.dashboard_port_base = fleet.dashboard_port_base;
  return batch;
}

/// Fold one cell's per-shard policy records into a fleet `.qpol` entry in
/// \p qlib_dir and return its path ("" when the cell's governor has no
/// mergeable learning state, or when no shard recorded a policy — e.g.
/// hand-built summaries). Validates record identity across shards with
/// specific errors before touching the merge, mirroring qlib::merge_entries.
std::string merge_cell_policies(const PopulationSpec& pop,
                                std::size_t cell_index,
                                const std::vector<CellPolicy>& records,
                                const std::string& qlib_dir) {
  if (records.empty()) return "";
  const CellPolicy& first = records.front();
  for (const CellPolicy& rec : records) {
    if (rec.mergeable != first.mergeable) {
      throw FleetError("fleet merge: cell " + std::to_string(cell_index) +
                       " has a mergeable policy in some shards but not "
                       "others — shards were run by different builds");
    }
    if (rec.governor_name != first.governor_name) {
      throw FleetError("fleet merge: cell " + std::to_string(cell_index) +
                       " was trained by governor '" + first.governor_name +
                       "' in one shard and '" + rec.governor_name +
                       "' in another");
    }
    if (rec.opp_count != first.opp_count) {
      throw FleetError("fleet merge: cell " + std::to_string(cell_index) +
                       " policies have different action spaces (" +
                       std::to_string(first.opp_count) + " vs " +
                       std::to_string(rec.opp_count) + " OPPs)");
    }
    if (rec.core_count != first.core_count) {
      throw FleetError("fleet merge: cell " + std::to_string(cell_index) +
                       " policies have different core counts (" +
                       std::to_string(first.core_count) + " vs " +
                       std::to_string(rec.core_count) + ")");
    }
    if (rec.platform_fingerprint != first.platform_fingerprint) {
      throw FleetError("fleet merge: cell " + std::to_string(cell_index) +
                       " policies carry mismatched platform shape "
                       "fingerprints — same OPP/core counts but different "
                       "operating points");
    }
  }
  if (!first.mergeable) return "";

  const CellCoords cell = pop.cell(cell_index);
  auto merger = sim::make_governor(cell.governor, 0)->make_state_merger();
  if (!merger) {
    throw FleetError("fleet merge: cell " + std::to_string(cell_index) +
                     " recorded mergeable policies but governor '" +
                     cell.governor + "' has no state merger in this build");
  }
  std::uint64_t epochs = 0;
  std::uint64_t source_fingerprint = 0;
  for (const CellPolicy& rec : records) {
    try {
      merger->add_accumulator(rec.accumulator);
    } catch (const gov::StateMergeError& e) {
      throw FleetError("fleet merge: cell " + std::to_string(cell_index) +
                       ": " + e.what());
    }
    epochs += rec.epochs;
    source_fingerprint ^= rec.source_fingerprint;
  }

  qlib::PolicyEntry entry;
  entry.key.platform_fingerprint = first.platform_fingerprint;
  entry.key.workload_class = qlib::PolicyKey::workload_class_of(cell.workload);
  entry.key.fps_band = qlib::PolicyKey::fps_band_of(cell.fps);
  entry.key.governor_spec =
      qlib::PolicyKey::canonical_governor_spec(cell.governor);
  entry.governor_name = first.governor_name;
  entry.opp_count = first.opp_count;
  entry.core_count = first.core_count;
  entry.kind = qlib::PolicyBlobKind::kMerged;
  entry.provenance.visit_weight = merger->weight();
  entry.provenance.epochs_trained = epochs;
  entry.provenance.sources = merger->sources();
  entry.provenance.source_fingerprint = source_fingerprint;
  entry.blob = merger->accumulator();

  try {
    qlib::PolicyLibrary lib(qlib_dir);
    return lib.put(entry);
  } catch (const qlib::QlibError& e) {
    throw FleetError(std::string("fleet merge: ") + e.what());
  }
}

std::string describe_exit(int status) {
  if (WIFEXITED(status)) {
    return "exit code " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    return std::string("signal ") + std::to_string(WTERMSIG(status));
  }
  return "unknown status " + std::to_string(status);
}

}  // namespace

std::vector<std::vector<std::size_t>> deal_batches(
    const std::vector<std::size_t>& pending, std::size_t batches) {
  std::vector<std::vector<std::size_t>> out(
      std::min(batches, pending.size()));
  for (std::size_t k = 0; k < pending.size() && !out.empty(); ++k) {
    out[k % out.size()].push_back(pending[k]);
  }
  return out;
}

FleetDriver::FleetDriver(FleetOptions options) : options_(std::move(options)) {
  if (options_.shards == 0) {
    throw std::invalid_argument("FleetDriver: shards must be >= 1");
  }
  if (options_.out_dir.empty()) {
    throw std::invalid_argument("FleetDriver: out_dir is required");
  }
}

PopulationReport FleetDriver::run(const PopulationSpec& pop) {
  pop.validate();
  if (options_.dashboard_port_base != 0 &&
      options_.dashboard_port_base + options_.shards - 1 > 65535) {
    throw std::invalid_argument(
        "fleet: dashboard-port-base " +
        std::to_string(options_.dashboard_port_base) + " + " +
        std::to_string(options_.shards) +
        " shards exceeds port 65535; pick a lower base");
  }
  launches_ = 0;
  retries_ = 0;
  std::filesystem::create_directories(options_.out_dir);
  const ShardPlan plan(pop.device_count(), options_.shards);

  if (options_.workers == 0) {
    // Sequential in-process reference: no fork, so the crash-injection hook
    // (which _Exits the calling process) is deliberately not forwarded.
    std::vector<std::size_t> all(plan.shard_count());
    std::iota(all.begin(), all.end(), std::size_t{0});
    WorkerBatch batch = worker_batch(options_, std::move(all), {});
    batch.fail_after_devices = 0;
    for (std::size_t i = 0; i < batch.shards.size(); ++i) {
      ++launches_;
      (void)run_shard(pop, plan.shard(batch.shards[i]),
                      batch.shard_options(i));
    }
  } else {
    run_processes(pop, plan);
  }
  return merge_shards(pop, plan, options_.out_dir);
}

void FleetDriver::run_processes(const PopulationSpec& pop,
                                const ShardPlan& plan) {
  const std::uint64_t fingerprint = pop.fingerprint();
  const auto done = [&](std::size_t shard_index) {
    return shard_already_done(shard_summary_path(options_.out_dir, shard_index),
                              fingerprint, plan.shard(shard_index));
  };

  std::vector<std::size_t> pending;
  for (const Shard& shard : plan.shards()) {
    if (!done(shard.index)) pending.push_back(shard.index);
  }

  // pid -> the shards its batch runs, in order.
  std::map<pid_t, std::vector<std::size_t>> running;
  // shard -> attempts that started and failed (the retry budget's count).
  std::map<std::size_t, std::size_t> attempts;

  const auto kill_all = [&running]() {
    for (const auto& [pid, batch] : running) {
      (void)batch;
      ::kill(pid, SIGKILL);
      int status = 0;
      while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
    }
    running.clear();
  };

  const auto spawn = [&](std::vector<std::size_t> shards) {
    const WorkerBatch batch = worker_batch(options_, shards, attempts);
    // Exec mode's argv is built before the fork: the child only execs.
    std::vector<std::string> argv;
    std::vector<char*> cargv;
    if (!options_.worker_argv.empty()) {
      argv = options_.worker_argv;
      for (auto& arg : batch.to_args()) argv.push_back(std::move(arg));
      for (auto& arg : argv) cargv.push_back(arg.data());
      cargv.push_back(nullptr);
    }
    ++launches_;
    const pid_t pid = ::fork();
    if (pid < 0) {
      throw FleetError(std::string("fleet: fork failed: ") +
                       std::strerror(errno));
    }
    if (pid == 0) {
      // Child. Either become the worker binary or run the batch in-process;
      // _Exit either way — the child must never unwind into the parent's
      // stack (gtest, buffered streams, atexit handlers).
      if (!cargv.empty()) {
        ::execv(cargv[0], cargv.data());
        std::cerr << "fleet: execv '" << argv[0] << "' failed: "
                  << std::strerror(errno) << "\n";
        std::_Exit(127);
      }
      std::_Exit(run_worker(pop, batch));
    }
    running.emplace(pid, std::move(shards));
  };

  try {
    while (!pending.empty() || !running.empty()) {
      // One process per free worker slot, each dealt its stride of the
      // pending shards.
      if (running.size() < options_.workers) {
        for (auto& shards :
             deal_batches(pending, options_.workers - running.size())) {
          spawn(std::move(shards));
        }
        pending.clear();
      }
      int status = 0;
      const pid_t pid = ::waitpid(-1, &status, 0);
      if (pid < 0) {
        if (errno == EINTR) continue;
        throw FleetError(std::string("fleet: waitpid failed: ") +
                         std::strerror(errno));
      }
      const auto it = running.find(pid);
      if (it == running.end()) continue;  // not one of ours
      const std::vector<std::size_t> batch = std::move(it->second);
      running.erase(it);

      // A batch runs in order and stops at its first failure: shards with a
      // sealed summary are done, the first without one failed (a crash, a
      // nonzero exit, or a "clean" exit that left no usable summary) and
      // spends an attempt, and the shards after it never started, so they
      // go back to pending without spending one. A relaunch resumes from
      // the shard checkpoint when one exists.
      for (std::size_t k = 0; k < batch.size(); ++k) {
        const std::size_t shard_index = batch[k];
        if (done(shard_index)) continue;
        if (++attempts[shard_index] > options_.retries) {
          throw FleetError("fleet: shard " + std::to_string(shard_index) +
                           " failed (" + describe_exit(status) + ") after " +
                           std::to_string(attempts[shard_index]) +
                           " attempt(s) — retry budget exhausted");
        }
        ++retries_;
        pending.insert(pending.end(),
                       batch.begin() + static_cast<std::ptrdiff_t>(k),
                       batch.end());
        break;
      }
    }
  } catch (...) {
    kill_all();
    throw;
  }
}

PopulationReport FleetDriver::merge_shards(const PopulationSpec& pop,
                                           const ShardPlan& plan,
                                           const std::string& out_dir) {
  pop.validate();
  if (plan.device_count() != pop.device_count()) {
    throw FleetError("fleet merge: plan covers " +
                     std::to_string(plan.device_count()) +
                     " devices but the population has " +
                     std::to_string(pop.device_count()));
  }
  const std::uint64_t fingerprint = pop.fingerprint();

  std::map<std::uint64_t, CellStats> merged;
  // Per-cell policy records in shard-index order; the policy fold happens
  // after coverage is validated. add_accumulator is associative and
  // order-invariant, so the emitted `.qpol` bytes are identical under any
  // shard partition — the fleet-merge differential pins this.
  std::map<std::uint64_t, std::vector<CellPolicy>> policies;
  std::uint64_t devices_seen = 0;
  for (const Shard& shard : plan.shards()) {
    const std::string path = shard_summary_path(out_dir, shard.index);
    const ShardSummary s = ShardSummary::load_file(path);
    if (s.fingerprint != fingerprint) {
      throw FleetError("fleet merge: '" + path +
                       "' belongs to a different population (fingerprint "
                       "mismatch)");
    }
    if (s.shard.count != plan.shard_count() ||
        s.shard.device_begin != shard.device_begin ||
        s.shard.device_end != shard.device_end) {
      throw FleetError("fleet merge: '" + path +
                       "' covers devices [" +
                       std::to_string(s.shard.device_begin) + ", " +
                       std::to_string(s.shard.device_end) +
                       ") of a different shard plan (expected [" +
                       std::to_string(shard.device_begin) + ", " +
                       std::to_string(shard.device_end) + "))");
    }
    if (!s.complete()) {
      throw FleetError("fleet merge: '" + path + "' is incomplete (" +
                       std::to_string(s.next_device - s.shard.device_begin) +
                       " of " + std::to_string(s.shard.size()) + " devices)");
    }
    std::uint64_t shard_devices = 0;
    for (const auto& [cell_index, stats] : s.cells) {
      if (cell_index >= pop.cell_count()) {
        throw FleetError("fleet merge: '" + path + "' references cell " +
                         std::to_string(cell_index) + " of a population with " +
                         std::to_string(pop.cell_count()) + " cells");
      }
      shard_devices += stats.devices;
      auto it = merged.find(cell_index);
      if (it == merged.end()) {
        it = merged.emplace(cell_index, CellStats(pop)).first;
      }
      it->second.merge(stats);
    }
    for (const auto& [cell_index, policy] : s.policies) {
      if (cell_index >= pop.cell_count()) {
        throw FleetError("fleet merge: '" + path +
                         "' carries a policy for cell " +
                         std::to_string(cell_index) +
                         " of a population with " +
                         std::to_string(pop.cell_count()) + " cells");
      }
      policies[cell_index].push_back(policy);
    }
    if (shard_devices != shard.size()) {
      throw FleetError("fleet merge: '" + path + "' aggregates " +
                       std::to_string(shard_devices) + " devices but owns " +
                       std::to_string(shard.size()));
    }
    devices_seen += shard_devices;
  }
  if (devices_seen != pop.device_count()) {
    throw FleetError("fleet merge: shards cover " +
                     std::to_string(devices_seen) + " of " +
                     std::to_string(pop.device_count()) + " devices");
  }

  PopulationReport report;
  report.fingerprint = fingerprint;
  report.devices = devices_seen;
  report.rows.reserve(pop.cell_count());
  report.cells.reserve(pop.cell_count());
  for (std::size_t cell_index = 0; cell_index < pop.cell_count();
       ++cell_index) {
    const auto it = merged.find(cell_index);
    if (it == merged.end()) {
      throw FleetError("fleet merge: no devices reported for cell " +
                       std::to_string(cell_index) + " — coverage hole");
    }
    const CellStats& stats = it->second;
    ReportRow row;
    row.cell = pop.cell(cell_index);
    row.devices = stats.devices;
    row.epochs = stats.run.epoch_count;
    row.mean_energy = stats.mean_energy();
    row.mean_miss_rate = stats.mean_miss_rate();
    row.mean_performance = stats.mean_performance();
    row.mean_power = stats.mean_power();
    row.energy_p50 = stats.energy_hist.percentile(50.0);
    row.energy_p95 = stats.energy_hist.percentile(95.0);
    row.energy_p99 = stats.energy_hist.percentile(99.0);
    row.miss_p50 = stats.miss_hist.percentile(50.0);
    row.miss_p95 = stats.miss_hist.percentile(95.0);
    row.miss_p99 = stats.miss_hist.percentile(99.0);
    row.perf_p50 = stats.perf_hist.percentile(50.0);
    row.perf_p95 = stats.perf_hist.percentile(95.0);
    row.perf_p99 = stats.perf_hist.percentile(99.0);
    row.policy_path = merge_cell_policies(pop, cell_index,
                                          policies[cell_index],
                                          out_dir + "/qlib");
    report.rows.push_back(std::move(row));
    report.cells.push_back(stats);
  }
  return report;
}

void PopulationReport::write_csv(std::ostream& out) const {
  // Every column below derives from exact merged state (integer counters,
  // ExactSum values, histogram percentiles): the same population produces
  // byte-identical CSV under any shard partition — `cmp` is a valid check.
  out << "governor,workload,fps,devices,epochs,"
         "mean_energy_j,energy_p50,energy_p95,energy_p99,"
         "mean_miss_rate,miss_p50,miss_p95,miss_p99,"
         "mean_perf,perf_p50,perf_p95,perf_p99,mean_power_w\n";
  for (const ReportRow& row : rows) {
    out << row.cell.governor << ',' << row.cell.workload << ','
        << format_exact(row.cell.fps) << ',' << row.devices << ','
        << row.epochs << ',' << format_exact(row.mean_energy) << ','
        << format_exact(row.energy_p50) << ',' << format_exact(row.energy_p95)
        << ',' << format_exact(row.energy_p99) << ','
        << format_exact(row.mean_miss_rate) << ','
        << format_exact(row.miss_p50) << ',' << format_exact(row.miss_p95)
        << ',' << format_exact(row.miss_p99) << ','
        << format_exact(row.mean_performance) << ','
        << format_exact(row.perf_p50) << ',' << format_exact(row.perf_p95)
        << ',' << format_exact(row.perf_p99) << ','
        << format_exact(row.mean_power) << '\n';
  }
}

void PopulationReport::print(std::ostream& out) const {
  sim::TextTable table;
  table.title = "Population report (" + std::to_string(devices) + " devices)";
  table.headers = {"governor", "workload",  "fps",      "devices",
                   "E mean",   "E p95",     "miss mean", "miss p95",
                   "perf mean", "perf p95", "P mean"};
  for (const ReportRow& row : rows) {
    table.rows.push_back({row.cell.governor, row.cell.workload,
                          format_short(row.cell.fps),
                          std::to_string(row.devices),
                          format_short(row.mean_energy),
                          format_short(row.energy_p95),
                          format_short(row.mean_miss_rate),
                          format_short(row.miss_p95),
                          format_short(row.mean_performance),
                          format_short(row.perf_p95),
                          format_short(row.mean_power)});
  }
  sim::print_table(out, table);
}

}  // namespace prime::fleet
