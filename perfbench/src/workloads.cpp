/// \file workloads.cpp
/// \brief The four workloads, from the streaming hot loop to fleet
///        populations. Each measures its end-to-end metrics untraced; with
///        --trace 1 it splits the time budget between an untraced and a
///        decorated half (their throughput ratio is the tracing overhead)
///        and then probes one representative single-domain run layer by
///        layer.
///
/// Every workload cycles its passes through kSubSeeds input sets derived
/// from the workload seed. The simulated metrics are means over those sets:
/// fixed for a seed, and steadier across seeds than any single input.
#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <functional>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "fleet/driver.hpp"
#include "fleet/runner.hpp"
#include "hw/platform.hpp"
#include "probes.hpp"
#include "qlib/policy.hpp"
#include "sim/builder.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment.hpp"
#include "sim/telemetry.hpp"

namespace perfbench {

using namespace prime;
namespace fs = std::filesystem;

namespace {

constexpr std::size_t kSubSeeds = 8;

/// The seeds of one input set.
struct Seeds {
  std::uint64_t trace = 0;
  std::uint64_t governor = 0;
  std::uint64_t sensor = 0;
  std::uint64_t fleet = 0;
};

Seeds seeds_for(const Options& opts, std::size_t sub) {
  const std::uint64_t base = common::derive_seed(opts.seed, sub);
  return {common::derive_seed(base, 1), common::derive_seed(base, 2),
          common::derive_seed(base, 3), common::derive_seed(base, 4)};
}

/// Seeds carried through common::Config must fit its signed integers.
long long config_seed(std::uint64_t seed) {
  return static_cast<long long>(seed & 0x7fffffffULL);
}

/// Streaming calibration window (ExperimentSpec::frames), fixed apart from
/// the run length so set-up cost does not grow with the run and a resumed
/// session streams exactly the frames an uninterrupted run does.
std::size_t calibration_frames(const Options& o) { return o.tiny ? 500 : 3000; }

/// Repeats of each probe run and replay; the fastest is reported.
constexpr std::size_t kProbeRepeats = 5;
/// Frames of a probe run replayed layer by layer.
constexpr std::size_t kReplayFrames = std::size_t{1} << 16;
/// Sink decorators time every 2^4-th on_epoch().
constexpr unsigned kSinkSampleShift = 4;
/// Streaming runs are timed in segments of 2^14 epochs, a few milliseconds
/// each, so that a segment often falls between two bursts of other load.
constexpr unsigned kSegmentShift = 14;

double ms(double s) { return s * 1e3; }

/// Call \p pass(i) until \p budget seconds have passed, and at least once
/// per input set.
void repeat_for(double budget, const std::function<void(std::size_t)>& pass) {
  const auto start = Clock::now();
  std::size_t n = 0;
  while (n < kSubSeeds || seconds_between(start, Clock::now()) < budget) {
    pass(n++);
  }
}

/// Throughput and latency samples of one measured half.
struct Timing {
  /// Pass throughputs per group of like passes (one group per sweep
  /// scenario; a single group elsewhere).
  std::vector<std::vector<double>> pass_frames_per_s{1};
  std::vector<double> run_ms;   ///< One entry per run.
  std::vector<double> setup_s;  ///< One entry per set-up.

  void add_pass(double frames, double run_s, std::size_t group = 0) {
    if (pass_frames_per_s.size() <= group) pass_frames_per_s.resize(group + 1);
    if (run_s > 0.0) pass_frames_per_s[group].push_back(frames / run_s);
  }
  /// Each whole segment of a streaming run counts as one pass.
  void add_segments(const ClockSink& clock) {
    for (const double s : clock.segment_s) {
      add_pass(static_cast<double>(clock.segment_epochs()), s);
    }
  }
  /// Quantile \p q of pass throughput per group, combined over groups as a
  /// harmonic mean (every group's pass simulates the same frame count).
  [[nodiscard]] double throughput(double q) const {
    double inverse = 0.0;
    double groups = 0.0;
    for (const auto& g : pass_frames_per_s) {
      if (g.empty()) continue;
      inverse += 1.0 / quantile(g, q);
      groups += 1.0;
    }
    return inverse > 0.0 ? groups / inverse : 0.0;
  }
  [[nodiscard]] std::size_t passes() const {
    std::size_t n = 0;
    for (const auto& g : pass_frames_per_s) n += g.size();
    return n;
  }
  /// Throughput of the fastest percent of passes. Other tenants of a
  /// shared host only ever add time: they slow a share of the passes that
  /// grows with their load, up to nine in ten, while the fastest stay at
  /// the code's own speed (the median is printed as detail).
  [[nodiscard]] double frames_per_s() const { return throughput(0.99); }
  /// Set-up time of the fastest percent of set-ups, for the same reason.
  [[nodiscard]] double setup() const { return quantile(setup_s, 0.01); }
};

/// Simulated outcome per input set, from its first correct pass.
struct SimMeans {
  std::array<std::optional<std::pair<double, double>>, kSubSeeds> per_set;

  void set(std::size_t sub, double energy_mj_per_frame, double miss_rate) {
    if (!per_set[sub]) per_set[sub] = {energy_mj_per_frame, miss_rate};
  }
  void set(std::size_t sub, const sim::RunResult& run) {
    set(sub,
        run.epoch_count == 0 ? 0.0
                             : run.total_energy * 1e3 /
                                   static_cast<double>(run.epoch_count),
        run.miss_rate());
  }
  [[nodiscard]] double mean(bool energy) const {
    double sum = 0.0;
    double n = 0.0;
    for (const auto& v : per_set) {
      if (!v) continue;
      sum += energy ? v->first : v->second;
      n += 1.0;
    }
    return n > 0.0 ? sum / n : 0.0;
  }
};

/// The end-to-end metric set every workload reports (BENCHMARK.json order),
/// plus the run-latency distribution as detail.
void add_end_to_end(Outcome& out, const Timing& t, bool with_children,
                    const SimMeans& sim) {
  out.end_to_end = {
      {"frames_per_s", t.frames_per_s(), "frames/s"},
      {"setup_s", t.setup(), "s"},
      {"peak_rss_mb", peak_rss_mb(with_children), "MB"},
      {"sim_energy_mj_per_frame", sim.mean(true), "mJ"},
      {"sim_miss_rate", sim.mean(false), "fraction"},
  };
  out.detail.insert(
      out.detail.end(),
      {{"frames_per_s_median", t.throughput(0.5), "frames/s"},
       {"passes", static_cast<double>(t.passes()), "count"},
       {"runs", static_cast<double>(t.run_ms.size()), "count"},
       {"run_ms_p50", quantile(t.run_ms, 0.5), "ms"},
       {"run_ms_p90", quantile(t.run_ms, 0.9), "ms"},
       {"setups", static_cast<double>(t.setup_s.size()), "count"},
       {"setup_s_median", median(t.setup_s), "s"}});
}

/// Set-up layer timings, one entry per call.
struct SetupLayers {
  std::vector<double> platform_s;
  std::vector<double> application_s;
};

/// The per-layer metric set every workload reports with --trace 1.
void add_per_layer(Outcome& out, const ProbeResult& p,
                   const SpanStats& sampled_decide,
                   double decide_calls_per_pass, const SetupLayers& setup,
                   const Timing& untraced, const Timing& traced) {
  const double overhead =
      untraced.frames_per_s() > 0.0
          ? 1.0 - traced.frames_per_s() / untraced.frames_per_s()
          : 0.0;
  out.per_layer = {
      {"wl.fill_block.ns_per_frame", p.fill_ns_per_frame, "ns"},
      {"wl.make_application.ms", ms(median(setup.application_s)), "ms"},
      {"gov.decide.ns", p.decide_ns, "ns"},
      {"gov.decide.calls", decide_calls_per_pass, "count"},
      {"hw.run_epoch_into.ns", p.epoch_ns, "ns"},
      {"hw.sensor_integrate.ns", p.integrate_ns, "ns"},
      {"hw.platform_build.us", median(setup.platform_s) * 1e6, "us"},
      {"sim.run.ns_per_frame", p.run_ns_per_frame, "ns"},
      {"sim.engine_self.ns_per_frame", p.engine_self_ns(), "ns"},
      {"trace.overhead_frac", overhead, "fraction"},
  };
  out.detail.insert(
      out.detail.end(),
      {{"probe.replayed_frames", static_cast<double>(p.replayed), "count"},
       {"gov.decide.sampled.ns", sampled_decide.mean_ns(), "ns"},
       {"trace.timer_ns", timer_overhead_ns(), "ns"},
       {"trace.frames_per_s", traced.frames_per_s(), "frames/s"}});
}

std::string prepare_dir(const Options& opts) {
  const std::string dir = opts.work_dir + "/" + opts.workload;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// --- Streaming workloads -----------------------------------------------------

/// A streaming run's board, application and governor.
struct StreamRig {
  std::unique_ptr<hw::Platform> platform;
  std::optional<wl::Application> app;
  std::unique_ptr<gov::Governor> governor;
  TimedGovernor* timed = nullptr;  ///< Set when the governor is decorated.
};

sim::ExperimentSpec stream_spec(const Options& opts, const Seeds& seeds) {
  sim::ExperimentSpec spec;
  spec.workload = "h264";
  spec.fps = 25.0;
  spec.stream = true;
  spec.frames = calibration_frames(opts);
  spec.seed = seeds.trace;
  return spec;
}

StreamRig build_stream(const Options& opts, const Seeds& seeds,
                       const std::string& governor, bool traced,
                       SetupLayers& layers) {
  StreamRig rig;
  const auto t0 = Clock::now();
  rig.platform = hw::Platform::odroid_xu3_a15(seeds.sensor);
  const auto t1 = Clock::now();
  rig.app.emplace(sim::make_application(stream_spec(opts, seeds), *rig.platform));
  const auto t2 = Clock::now();
  rig.governor = sim::make_governor(governor, seeds.governor);
  if (traced) {
    auto timed = std::make_unique<TimedGovernor>(std::move(rig.governor));
    rig.timed = timed.get();
    rig.governor = std::move(timed);
  }
  layers.platform_s.push_back(seconds_between(t0, t1));
  layers.application_s.push_back(seconds_between(t1, t2));
  return rig;
}

ProbeSpec stream_probe(const Options& opts, const std::string& governor,
                       std::size_t frames) {
  const Seeds seeds = seeds_for(opts, 0);
  ProbeSpec spec;
  spec.make_platform = [seed = seeds.sensor] {
    return hw::Platform::odroid_xu3_a15(seed);
  };
  spec.app = stream_spec(opts, seeds);
  spec.governor = governor;
  spec.governor_seed = seeds.governor;
  spec.frames = frames;
  return spec;
}

/// stream-ondemand: one long streaming h264 run on the 1x4 board under
/// ondemand with an aggregate sink only — the wl + hw + engine hot path.
Outcome stream_ondemand(const Options& opts) {
  Outcome out;
  const std::size_t frames = opts.tiny ? 8192 : std::size_t{1} << 18;
  std::array<std::optional<sim::RunResult>, kSubSeeds> reference;
  SimMeans sim_means;
  SetupLayers layers;
  SpanStats decide;
  SpanStats sink_stats;
  std::size_t traced_runs = 0;

  const auto measure = [&](double budget, bool traced, bool inject) {
    Timing t;
    repeat_for(budget, [&](std::size_t pass) {
      const std::size_t sub = pass % kSubSeeds;
      const auto t0 = Clock::now();
      StreamRig rig =
          build_stream(opts, seeds_for(opts, sub), "ondemand", traced, layers);
      std::unique_ptr<sim::TelemetrySink> sink = sim::make_sink("aggregate");
      TimingSink* timing = nullptr;
      if (traced) {
        auto wrapped =
            std::make_unique<TimingSink>(std::move(sink), kSinkSampleShift);
        timing = wrapped.get();
        sink = std::move(wrapped);
      }
      ClockSink clock(kSegmentShift);
      sim::RunOptions options;
      options.max_frames = frames - (inject && pass == 0 ? 1 : 0);
      options.sinks = {sink.get(), &clock};
      const auto t1 = Clock::now();
      out.gate.attempt();
      try {
        const sim::RunResult run = sim::run_simulation(
            *rig.platform, *rig.app, *rig.governor, options);
        const auto t2 = Clock::now();
        t.setup_s.push_back(seconds_between(t0, t1));
        t.run_ms.push_back(ms(seconds_between(t1, t2)));
        t.add_segments(clock);
        if (!out.gate.check_run(run, frames, "stream run")) return;
        if (!reference[sub]) {
          reference[sub] = run;
          sim_means.set(sub, run);
        } else {
          (void)out.gate.check_same(run, *reference[sub],
                                    "same-seed stream run");
        }
      } catch (const std::exception& e) {
        out.gate.fail(std::string("stream run threw: ") + e.what());
        return;
      }
      if (traced) {
        decide.merge(rig.timed->decide_stats());
        sink_stats.merge(timing->stats());
        ++traced_runs;
      }
    });
    return t;
  };

  const double budget = opts.trace ? opts.seconds / 2.0 : opts.seconds;
  const Timing untraced = measure(budget, false, opts.inject_short_run);
  add_end_to_end(out, untraced, false, sim_means);
  if (!opts.trace) return out;

  const Timing traced = measure(budget, true, false);
  const ProbeResult p = probe(stream_probe(opts, "ondemand", frames),
                              kProbeRepeats, kReplayFrames, out.gate);
  add_per_layer(out, p, decide,
                static_cast<double>(decide.calls) /
                    static_cast<double>(std::max<std::size_t>(1, traced_runs)),
                layers, untraced, traced);
  out.detail.push_back({"sim.sink.aggregate.ns", sink_stats.mean_ns(), "ns"});
  return out;
}

/// stream-rtm-ckpt: the same board and stream under rtm-manycore, writing a
/// sampled `.bt` and periodic checkpoints. Each pass is one run interrupted
/// at its midpoint and resumed from the checkpoint to the end; the resumed
/// aggregates must equal an uninterrupted run's bit for bit.
Outcome stream_rtm_ckpt(const Options& opts) {
  Outcome out;
  const std::string dir = prepare_dir(opts);
  const std::string governor = "rtm-manycore";
  const std::size_t frames = opts.tiny ? 8192 : std::size_t{1} << 17;
  const std::size_t half = frames / 2;
  const std::size_t ckpt_every = frames / 16;
  const std::size_t sample_every = 64;
  const std::string ckpt_a = dir + "/first.ckpt";
  const std::string ckpt_b = dir + "/resumed.ckpt";
  const std::string bt_a = dir + "/first.bt";
  const std::string bt_b = dir + "/resumed.bt";

  // The uninterrupted runs every resume must reproduce, one per input set.
  std::array<std::optional<sim::RunResult>, kSubSeeds> uninterrupted;
  SimMeans sim_means;
  for (std::size_t sub = 0; sub < kSubSeeds; ++sub) {
    SetupLayers unused;
    StreamRig rig =
        build_stream(opts, seeds_for(opts, sub), governor, false, unused);
    sim::RunOptions options;
    options.max_frames = frames;
    out.gate.attempt();
    try {
      const sim::RunResult run =
          sim::run_simulation(*rig.platform, *rig.app, *rig.governor, options);
      if (out.gate.check_run(run, frames, "uninterrupted run")) {
        uninterrupted[sub] = run;
        sim_means.set(sub, run);
      }
    } catch (const std::exception& e) {
      out.gate.fail(std::string("uninterrupted run threw: ") + e.what());
    }
  }

  SetupLayers layers;
  std::vector<double> resume_s;
  SpanStats decide, save, sample_stats, bintrace_stats;
  std::size_t traced_passes = 0;
  double bt_bytes_per_frame = 0.0;

  /// The sampled binary trace: plain in untraced passes; in traced ones a
  /// TimingSink around the sample sink and another around its bintrace.
  const auto make_trace_sink =
      [&](const std::string& path, bool traced, TimingSink** outer,
          TimingSink** inner) -> std::unique_ptr<sim::TelemetrySink> {
    const std::string bintrace = "bintrace(path=" + path + ")";
    if (!traced) {
      return sim::make_sink("sample(every=" + std::to_string(sample_every) +
                            ",inner=" + bintrace + ")");
    }
    auto timed_bt = std::make_unique<TimingSink>(sim::make_sink(bintrace), 0);
    *inner = timed_bt.get();
    auto sample =
        std::make_unique<sim::SampleSink>(sample_every, std::move(timed_bt));
    auto timed =
        std::make_unique<TimingSink>(std::move(sample), kSinkSampleShift);
    *outer = timed.get();
    return timed;
  };

  const auto measure = [&](double budget, bool traced, bool inject) {
    Timing t;
    repeat_for(budget, [&](std::size_t pass) {
      const std::size_t sub = pass % kSubSeeds;
      const Seeds seeds = seeds_for(opts, sub);
      TimingSink* outer[2] = {nullptr, nullptr};
      TimingSink* inner[2] = {nullptr, nullptr};
      try {
        // First session: frames [0, half), checkpointing as it goes.
        const auto t0 = Clock::now();
        StreamRig a = build_stream(opts, seeds, governor, traced, layers);
        auto sink_a = make_trace_sink(bt_a, traced, &outer[0], &inner[0]);
        ClockSink clock_a(kSegmentShift);
        sim::RunOptions first;
        first.max_frames = half - (inject && pass == 0 ? 1 : 0);
        first.sinks = {sink_a.get(), &clock_a};
        first.checkpoint_path = ckpt_a;
        first.checkpoint_every = ckpt_every;
        const auto t1 = Clock::now();
        out.gate.attempt();
        const sim::RunResult run_a =
            sim::run_simulation(*a.platform, *a.app, *a.governor, first);
        const auto t2 = Clock::now();
        (void)out.gate.check_run(run_a, half, "interrupted session");

        // Second session: a fresh board, stream and governor resume from
        // the first session's final checkpoint to the end.
        const auto t3 = Clock::now();
        StreamRig b = build_stream(opts, seeds, governor, traced, layers);
        auto sink_b = make_trace_sink(bt_b, traced, &outer[1], &inner[1]);
        ClockSink clock(kSegmentShift);
        sim::RunOptions second;
        second.max_frames = frames;
        second.sinks = {sink_b.get(), &clock};
        second.resume_from = ckpt_a;
        second.checkpoint_path = ckpt_b;
        second.checkpoint_every = ckpt_every;
        const auto t4 = Clock::now();
        out.gate.attempt();
        const sim::RunResult run_b =
            sim::run_simulation(*b.platform, *b.app, *b.governor, second);
        const auto t5 = Clock::now();
        if (out.gate.check_run(run_b, frames, "resumed session")) {
          if (uninterrupted[sub]) {
            (void)out.gate.check_same(run_b, *uninterrupted[sub], "resume");
          } else {
            out.gate.fail("resume has no uninterrupted reference");
          }
        }
        const double run_s = seconds_between(t1, t2) + seconds_between(t4, t5);
        t.setup_s.push_back(seconds_between(t0, t1));
        t.setup_s.push_back(seconds_between(t3, t4));
        t.run_ms.push_back(ms(run_s));
        t.add_segments(clock_a);
        t.add_segments(clock);
        resume_s.push_back(seconds_between(t4, clock.first_epoch));
        if (traced) {
          for (const StreamRig* rig : {&a, &b}) {
            decide.merge(rig->timed->decide_stats());
            save.merge(rig->timed->save_stats());
          }
          for (int s = 0; s < 2; ++s) {
            sample_stats.merge(outer[s]->stats());
            bintrace_stats.merge(inner[s]->stats());
          }
          ++traced_passes;
          bt_bytes_per_frame = static_cast<double>(fs::file_size(bt_a) +
                                                   fs::file_size(bt_b)) /
                               static_cast<double>(frames);
        }
      } catch (const std::exception& e) {
        out.gate.fail(std::string("checkpointed run threw: ") + e.what());
      }
    });
    return t;
  };

  const double budget = opts.trace ? opts.seconds / 2.0 : opts.seconds;
  const Timing untraced = measure(budget, false, opts.inject_short_run);
  add_end_to_end(out, untraced, false, sim_means);
  out.detail.push_back({"resume_s", median(resume_s), "s"});
  if (!opts.trace) return out;

  const Timing traced = measure(budget, true, false);
  const ProbeResult p = probe(stream_probe(opts, governor, frames),
                              kProbeRepeats, kReplayFrames, out.gate);
  const auto passes =
      static_cast<double>(std::max<std::size_t>(1, traced_passes));
  add_per_layer(out, p, decide, static_cast<double>(decide.calls) / passes,
                layers, untraced, traced);

  // Checkpoint and stream fast-forward through their public calls.
  std::vector<double> load_ms, write_ms, skip_ms;
  const Seeds seeds = seeds_for(opts, 0);
  for (std::size_t r = 0; r < kProbeRepeats; ++r) {
    const auto t0 = Clock::now();
    const sim::Checkpoint ck = sim::Checkpoint::load_file(ckpt_a);
    const auto t1 = Clock::now();
    ck.save_file(dir + "/copy.ckpt");
    const auto t2 = Clock::now();
    const auto board = hw::Platform::odroid_xu3_a15(seeds.sensor);
    const wl::Application app =
        sim::make_application(stream_spec(opts, seeds), *board);
    const auto t3 = Clock::now();
    app.skip_to(static_cast<std::size_t>(ck.frame_position));
    const auto t4 = Clock::now();
    load_ms.push_back(ms(seconds_between(t0, t1)));
    write_ms.push_back(ms(seconds_between(t1, t2)));
    skip_ms.push_back(ms(seconds_between(t3, t4)));
  }
  out.detail.insert(
      out.detail.end(),
      {{"rtm.decide.ns", p.decide_ns, "ns"},
       {"rtm.save_state.us", save.mean_ns() / 1e3, "us"},
       {"sim.checkpoint.writes", static_cast<double>(save.calls) / passes,
        "count"},
       {"sim.checkpoint.write.ms", median(write_ms), "ms"},
       {"sim.checkpoint.load.ms", median(load_ms), "ms"},
       {"wl.skip_to.ms", median(skip_ms), "ms"},
       {"sim.sink.sample.ns", sample_stats.mean_ns(), "ns"},
       {"sim.sink.bintrace.ns", bintrace_stats.mean_ns(), "ns"},
       {"sim.bintrace.bytes_per_frame", bt_bytes_per_frame, "B"}});
  return out;
}

// --- sweep-domains -----------------------------------------------------------

struct Board {
  std::size_t clusters;
  std::size_t cores;
};

/// Sixteen cores on every board, so the domain axis varies one thing only.
constexpr Board kBoards[] = {{1, 16}, {4, 4}, {16, 1}};
constexpr std::size_t kBoardCount = std::size(kBoards);

common::Config board_config(const Seeds& seeds, const Board& board) {
  common::Config cfg;
  cfg.set_int("hw.clusters", static_cast<long long>(board.clusters));
  cfg.set_int("hw.cores", static_cast<long long>(board.cores));
  cfg.set_int("hw.sensor_seed", config_seed(seeds.sensor));
  return cfg;
}

const std::vector<std::string> kSweepGovernors = {"ondemand", "schedutil",
                                                  "rtm", "rtm-manycore"};
const std::vector<std::string> kSweepWorkloads = {"h264", "fft"};
const std::vector<std::string> kSweepPlacements = {"packed", "spread", "rect"};
/// One sweep worker (two are allowed): with two, pass throughput spread by
/// up to 23 % between runs on a shared 4-vCPU machine, against 4-8 % with one.
constexpr std::size_t kSweepWorkers = 1;
/// One worker thread per core, so every board's sixteen cores carry work.
constexpr std::size_t kSweepThreads = 16;

sim::ExperimentSpec sweep_app(const std::string& workload, std::size_t frames,
                              const Seeds& seeds) {
  sim::ExperimentSpec spec;
  spec.workload = workload;
  spec.frames = frames;
  spec.seed = seeds.trace;
  spec.threads = kSweepThreads;
  return spec;
}

/// sweep-domains: ExperimentBuilder sweeps at 16 total cores (1x16, 4x4,
/// 16x1) x packed/spread/rect x four governors x materialised h264/fft,
/// each cell against its Oracle — many short runs, where per-run set-up and
/// the multi-domain path dominate.
Outcome sweep_domains(const Options& opts) {
  Outcome out;
  const std::size_t frames = opts.tiny ? 200 : 3000;
  const std::size_t runs_per_board =
      kSweepWorkloads.size() * kSweepPlacements.size() *
      (kSweepGovernors.size() + 1);

  const auto make_builder = [&](const Seeds& seeds, const Board& board,
                                bool traced) {
    std::vector<std::string> governors;
    for (const auto& g : kSweepGovernors) {
      governors.push_back(traced ? "timed(inner=" + g + ")" : g);
    }
    sim::ExperimentBuilder b;
    b.platform(board_config(seeds, board))
        .workloads(kSweepWorkloads)
        .governors(governors)
        .placements(kSweepPlacements)
        .frames(frames)
        .trace_seed(seeds.trace)
        .governor_seed(seeds.governor)
        .threads_per_frame(kSweepThreads)
        .parallelism(kSweepWorkers)
        .telemetry("perfbench-clock");
    return b;
  };

  // Every pass must reproduce the first pass of its input set, run by run.
  std::array<std::array<std::vector<sim::RunResult>, kBoardCount>, kSubSeeds>
      reference;
  SimMeans sim_means;
  std::array<double, kSubSeeds> norm_energy{};
  std::optional<sim::RunResult> probe_scenario;  // 1x16 h264 packed ondemand
  SpanStats decide, decide_rtm, decide_simple;
  std::size_t traced_passes = 0;
  SetupLayers layers;
  double busy_s = 0.0, wall_s = 0.0, oracle_s = 0.0;
  std::array<std::vector<double>, kBoardCount> ns_per_frame;

  const auto measure = [&](double budget, bool traced, bool inject) {
    Timing t;
    repeat_for(budget, [&](std::size_t pass) {
      const std::size_t sub = pass % kSubSeeds;
      const Seeds seeds = seeds_for(opts, sub);
      double pass_setup = 0.0;
      double energy = 0.0, misses = 0.0, scenario_frames = 0.0, norm = 0.0,
             rtm_rows = 0.0;
      bool pass_ok = true;
      for (std::size_t bi = 0; bi < kBoardCount; ++bi) {
        sim::ExperimentBuilder builder = make_builder(seeds, kBoards[bi], traced);
        if (inject && pass == 0) builder.frames(frames - 1);
        out.gate.attempt(runs_per_board);
        try {
          const auto t0 = Clock::now();
          const sim::SweepResult sweep = builder.run();
          const auto t1 = Clock::now();

          std::vector<sim::RunResult> runs_seen;
          bool board_ok = true;
          Clock::time_point first = t1;
          const auto visit =
              [&](const sim::RunResult& run,
                  const std::vector<std::unique_ptr<sim::TelemetrySink>>& sinks,
                  bool oracle) {
                board_ok =
                    out.gate.check_run(run, frames, "sweep run") && board_ok;
                const std::size_t slot = bi * runs_per_board + runs_seen.size();
                runs_seen.push_back(run);
                const auto* clock = sim::find_sink<ClockSink>(sinks);
                if (clock == nullptr) return;
                first = std::min(first, clock->begin);
                const double run_s = seconds_between(clock->begin, clock->end);
                t.run_ms.push_back(ms(run_s));
                t.add_pass(static_cast<double>(run.epoch_count), run_s, slot);
                busy_s += run_s;
                if (oracle) {
                  oracle_s += run_s;
                } else {
                  ns_per_frame[bi].push_back(run_s * 1e9 /
                                             static_cast<double>(frames));
                }
              };
          for (const auto& r : sweep.results) {
            visit(r.run, r.telemetry, false);
            energy += r.run.total_energy;
            misses += static_cast<double>(r.run.deadline_misses);
            scenario_frames += static_cast<double>(r.run.epoch_count);
            if (r.run.governor.rfind("rtm", 0) == 0) {
              norm += r.row.normalized_energy;
              rtm_rows += 1.0;
            }
            if (sub == 0 && bi == 0 &&
                r.scenario.governor.find("ondemand") != std::string::npos &&
                r.scenario.workload == "h264" &&
                r.scenario.placement == "packed") {
              probe_scenario = r.run;
            }
            if (const auto* timed =
                    dynamic_cast<const TimedGovernor*>(r.governor.get())) {
              decide.merge(timed->decide_stats());
              (is_rtm_family(*timed) ? decide_rtm : decide_simple)
                  .merge(timed->decide_stats());
            }
          }
          for (std::size_t c = 0; c < sweep.oracle_runs.size(); ++c) {
            visit(sweep.oracle_runs[c], sweep.oracle_telemetry[c], true);
          }
          pass_ok = pass_ok && board_ok;
          auto& ref = reference[sub][bi];
          if (ref.empty()) {
            if (board_ok) ref = runs_seen;
          } else if (ref.size() != runs_seen.size()) {
            out.gate.fail("sweep pass changed its run count");
          } else {
            for (std::size_t i = 0; i < runs_seen.size(); ++i) {
              (void)out.gate.check_same(runs_seen[i], ref[i],
                                        "same-seed sweep run");
            }
          }
          pass_setup += seconds_between(t0, first);
          wall_s += seconds_between(t0, t1);
        } catch (const std::exception& e) {
          out.gate.fail(std::string("sweep threw: ") + e.what(),
                        runs_per_board);
          pass_ok = false;
        }
        if (traced) {
          const auto p0 = Clock::now();
          const auto platform =
              hw::Platform::from_config(board_config(seeds, kBoards[bi]));
          layers.platform_s.push_back(seconds_between(p0, Clock::now()));
          for (const auto& w : kSweepWorkloads) {
            const auto a0 = Clock::now();
            const wl::Application app =
                sim::make_application(sweep_app(w, frames, seeds), *platform);
            layers.application_s.push_back(seconds_between(a0, Clock::now()));
          }
        }
      }
      if (pass_ok && scenario_frames > 0.0) {
        if (!sim_means.per_set[sub]) {
          norm_energy[sub] = rtm_rows > 0.0 ? norm / rtm_rows : 0.0;
        }
        sim_means.set(sub, energy * 1e3 / scenario_frames,
                      misses / scenario_frames);
      }
      t.setup_s.push_back(pass_setup);
      if (traced) ++traced_passes;
    });
    return t;
  };

  const double budget = opts.trace ? opts.seconds / 2.0 : opts.seconds;
  const Timing untraced = measure(budget, false, opts.inject_short_run);
  add_end_to_end(out, untraced, false, sim_means);
  double norm = 0.0;
  for (const double v : norm_energy) norm += v;
  // Per-run latency grows with the domain count at fixed cores: the
  // least-squares slope of median ns/frame over domains is the per-domain
  // cost.
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t bi = 0; bi < kBoardCount; ++bi) {
    const auto x = static_cast<double>(kBoards[bi].clusters);
    const double y = median(ns_per_frame[bi]);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const auto n = static_cast<double>(kBoardCount);
  out.detail.insert(
      out.detail.end(),
      {{"sim_norm_energy", norm / static_cast<double>(kSubSeeds), "ratio"},
       {"sim.domains.ns_per_domain", (n * sxy - sx * sy) / (n * sxx - sx * sx),
        "ns"},
       {"sim.sweep.busy_frac", busy_s / (kSweepWorkers * wall_s), "fraction"},
       {"sim.sweep.oracle_share", oracle_s / busy_s, "fraction"}});
  if (!opts.trace) return out;

  const Timing traced = measure(budget, true, false);
  const Seeds seeds = seeds_for(opts, 0);
  ProbeSpec spec;
  spec.make_platform = [cfg = board_config(seeds, kBoards[0])] {
    return hw::Platform::from_config(cfg);
  };
  spec.app = sweep_app("h264", frames, seeds);
  spec.governor = "ondemand";
  spec.governor_seed = seeds.governor;
  const ProbeResult p = probe(spec, kProbeRepeats, kReplayFrames, out.gate);
  out.gate.attempt();
  if (probe_scenario) {
    (void)out.gate.check_same(p.run, *probe_scenario,
                              "probe vs its sweep scenario");
  } else {
    out.gate.fail("sweep has no 1x16 h264 packed ondemand scenario");
  }
  add_per_layer(out, p, decide,
                static_cast<double>(decide.calls) /
                    static_cast<double>(std::max<std::size_t>(1, traced_passes)),
                layers, untraced, traced);
  out.detail.push_back({"gov.decide.simple.sampled.ns", decide_simple.mean_ns(),
                        "ns"});
  out.detail.push_back({"rtm.decide.sampled.ns", decide_rtm.mean_ns(), "ns"});
  return out;
}

// --- fleet-pop ---------------------------------------------------------------

/// The application a fleet worker builds for \p dev (fleet/runner.cpp).
sim::ExperimentSpec device_spec(const fleet::PopulationSpec& pop,
                                const fleet::DeviceSpec& dev) {
  sim::ExperimentSpec spec;
  spec.workload = dev.workload;
  spec.fps = dev.fps;
  spec.frames = pop.frames;
  spec.seed = dev.trace_seed;
  spec.stream = pop.stream;
  spec.target_utilisation = pop.target_utilisation;
  return spec;
}

/// fleet-pop: FleetDriver in fork mode, one worker over 4 shards of
/// ondemand/rtm-manycore x h264/fft, with worker checkpoints, merged into
/// the population report and the fleet-merged `.qpol` files, which are then
/// loaded back.
Outcome fleet_pop(const Options& opts) {
  Outcome out;
  const std::string dir = prepare_dir(opts);
  const auto population = [&](std::size_t sub) {
    fleet::PopulationSpec pop;
    pop.governors = {"ondemand", "rtm-manycore"};
    pop.workloads = {"h264", "fft"};
    pop.fps = {25.0};
    // Small populations, so that passes are short and many: a pass that
    // falls between two bursts of other load shows the code's own speed.
    pop.devices_per_cell = opts.tiny ? 2 : 4;
    pop.frames = opts.tiny ? 400 : 2500;
    pop.stream = true;
    pop.base_seed = seeds_for(opts, sub).fleet;
    return pop;
  };
  fleet::FleetOptions base_opts;
  base_opts.shards = 4;
  base_opts.workers = 1;  // one at a time, for the reason kSweepWorkers gives
  base_opts.retries = 2;
  base_opts.checkpoint_every = opts.tiny ? 1 : 2;
  const std::size_t shards = base_opts.shards;

  std::array<std::optional<std::string>, kSubSeeds> reference_csv;
  SimMeans sim_means;
  SetupLayers layers;
  std::vector<double> fleet_run_s, merge_ms, load_ms;
  double launches = 0, retries = 0, entries = 0, artifact_bytes = 0;
  std::size_t traced_passes = 0;

  /// What a worker does before a device's first frame, for one device per
  /// cell: board, application (stream calibration) and governor.
  const auto device_setup = [&](const fleet::PopulationSpec& pop) {
    double total = 0.0;
    for (std::size_t c = 0; c < pop.cell_count(); ++c) {
      const fleet::DeviceSpec dev = pop.device(c * pop.devices_per_cell);
      const auto t0 = Clock::now();
      const auto platform = hw::Platform::odroid_xu3_a15(dev.platform_seed);
      const auto t1 = Clock::now();
      const wl::Application app =
          sim::make_application(device_spec(pop, dev), *platform);
      const auto t2 = Clock::now();
      const auto governor = sim::make_governor(dev.governor, dev.governor_seed);
      const auto t3 = Clock::now();
      layers.platform_s.push_back(seconds_between(t0, t1));
      layers.application_s.push_back(seconds_between(t1, t2));
      total += seconds_between(t0, t3);
    }
    return total;
  };

  const auto measure = [&](double budget, bool traced, bool inject) {
    Timing t;
    repeat_for(budget, [&](std::size_t pass) {
      const std::size_t sub = pass % kSubSeeds;
      const fleet::PopulationSpec pop = population(sub);
      fleet::PopulationSpec run_pop = pop;
      if (inject && pass == 0) run_pop.frames = pop.frames - 1;
      // A fresh directory per pass, all removed after the loop: deleting
      // files between passes puts the file system's block release inside
      // the next timed pass.
      fleet::FleetOptions fleet_opts = base_opts;
      fleet_opts.out_dir = dir + "/fleet/" + (traced ? "t" : "u") +
                           std::to_string(pass);
      t.setup_s.push_back(device_setup(pop));
      out.gate.attempt(shards);
      try {
        const auto t0 = Clock::now();
        fleet::FleetDriver driver(fleet_opts);
        const fleet::PopulationReport report = driver.run(run_pop);
        const auto t1 = Clock::now();
        std::size_t loaded = 0;
        bool policies_ok = true;
        for (const auto& row : report.rows) {
          if (row.policy_path.empty()) continue;
          const auto l0 = Clock::now();
          const qlib::PolicyEntry entry =
              qlib::PolicyEntry::load_file(row.policy_path);
          load_ms.push_back(ms(seconds_between(l0, Clock::now())));
          policies_ok = policies_ok &&
                        entry.provenance.epochs_trained == row.epochs;
          ++loaded;
        }
        const auto t2 = Clock::now();

        const double expected_frames =
            static_cast<double>(pop.device_count() * pop.frames);
        double frames = 0.0, energy = 0.0, miss = 0.0;
        bool ok = report.devices == pop.device_count() && policies_ok &&
                  loaded > 0;
        for (const auto& row : report.rows) {
          frames += static_cast<double>(row.epochs);
          energy += row.mean_energy * static_cast<double>(row.devices);
          miss += row.mean_miss_rate * static_cast<double>(row.devices);
          ok = ok && std::isfinite(row.mean_energy) &&
               row.mean_energy >= 0.0 && row.mean_miss_rate >= 0.0 &&
               row.mean_miss_rate <= 1.0;
        }
        ok = ok && frames == expected_frames;
        std::ostringstream csv;
        report.write_csv(csv);
        csv << "policies," << loaded << "\n";
        if (!ok) {
          out.gate.fail("population report: " + std::to_string(frames) +
                            " of " + std::to_string(expected_frames) +
                            " frames, or cell aggregates or merged policies "
                            "out of range",
                        shards);
        } else if (!reference_csv[sub]) {
          reference_csv[sub] = csv.str();
          sim_means.set(sub, energy * 1e3 / frames,
                        miss / static_cast<double>(report.devices));
        } else if (*reference_csv[sub] != csv.str()) {
          out.gate.fail("same-seed population report differs", shards);
        }
        t.run_ms.push_back(ms(seconds_between(t0, t2)));
        t.add_pass(frames, seconds_between(t0, t2));

        if (traced) {
          fleet_run_s.push_back(seconds_between(t0, t1));
          launches += static_cast<double>(driver.launches());
          retries += static_cast<double>(driver.retries_used());
          entries += static_cast<double>(loaded);
          for (const auto& f :
               fs::recursive_directory_iterator(fleet_opts.out_dir)) {
            if (f.is_regular_file()) {
              artifact_bytes += static_cast<double>(f.file_size());
            }
          }
          const auto m0 = Clock::now();
          (void)fleet::FleetDriver::merge_shards(
              run_pop, fleet::ShardPlan(run_pop.device_count(), shards),
              fleet_opts.out_dir);
          merge_ms.push_back(ms(seconds_between(m0, Clock::now())));
          ++traced_passes;
        }
      } catch (const std::exception& e) {
        out.gate.fail(std::string("fleet pass threw: ") + e.what(), shards);
      }
    });
    fs::remove_all(dir + "/fleet");
    return t;
  };

  const double budget = opts.trace ? opts.seconds / 2.0 : opts.seconds;
  const Timing untraced = measure(budget, false, opts.inject_short_run);
  add_end_to_end(out, untraced, true, sim_means);
  if (!opts.trace) return out;

  const Timing traced = measure(budget, true, false);

  // Workers are other processes, so decide() is sampled on one device per
  // cell, built as the fleet's device runner builds it and run in this
  // process; each must match fleet::run_device bit for bit.
  const fleet::PopulationSpec pop = population(0);
  SpanStats decide;
  for (std::size_t c = 0; c < pop.cell_count(); ++c) {
    const fleet::DeviceSpec dev = pop.device(c * pop.devices_per_cell);
    out.gate.attempt();
    try {
      const auto platform = hw::Platform::odroid_xu3_a15(dev.platform_seed);
      const wl::Application app =
          sim::make_application(device_spec(pop, dev), *platform);
      TimedGovernor governor(
          sim::make_governor(dev.governor, dev.governor_seed));
      sim::RunOptions options;
      options.max_frames = pop.frames;
      const sim::RunResult run =
          sim::run_simulation(*platform, app, governor, options);
      if (out.gate.check_run(run, pop.frames, "fleet device")) {
        (void)out.gate.check_same(run, fleet::run_device(pop, dev),
                                  "timed fleet device");
      }
      decide.merge(governor.decide_stats());
    } catch (const std::exception& e) {
      out.gate.fail(std::string("fleet device threw: ") + e.what());
    }
  }

  const fleet::DeviceSpec dev = pop.device(0);
  ProbeSpec spec;
  spec.make_platform = [seed = dev.platform_seed] {
    return hw::Platform::odroid_xu3_a15(seed);
  };
  spec.app = device_spec(pop, dev);
  spec.governor = dev.governor;
  spec.governor_seed = dev.governor_seed;
  spec.frames = pop.frames;
  const ProbeResult p = probe(spec, kProbeRepeats, kReplayFrames, out.gate);
  out.gate.attempt();
  (void)out.gate.check_same(p.run, fleet::run_device(pop, dev),
                            "probe vs its fleet device");

  const auto passes =
      static_cast<double>(std::max<std::size_t>(1, traced_passes));
  add_per_layer(out, p, decide, static_cast<double>(decide.calls), layers,
                untraced, traced);
  out.detail.insert(out.detail.end(),
                    {{"fleet.run.s", median(fleet_run_s), "s"},
                     {"fleet.merge_shards.ms", median(merge_ms), "ms"},
                     {"fleet.launches", launches / passes, "count"},
                     {"fleet.retries_used", retries / passes, "count"},
                     {"fleet.artifact.bytes", artifact_bytes / passes, "B"},
                     {"qlib.load_file.ms", median(load_ms), "ms"},
                     {"qlib.entries", entries / passes, "count"}});
  return out;
}

}  // namespace

Outcome run_workload(const Options& opts) {
  if (opts.workload == "stream-ondemand") return stream_ondemand(opts);
  if (opts.workload == "stream-rtm-ckpt") return stream_rtm_ckpt(opts);
  if (opts.workload == "sweep-domains") return sweep_domains(opts);
  if (opts.workload == "fleet-pop") return fleet_pop(opts);
  throw std::invalid_argument("unknown workload '" + opts.workload + "'");
}

}  // namespace perfbench
