#include "probes.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "gov/merge.hpp"
#include "gov/registry.hpp"
#include "sim/bintrace.hpp"

namespace perfbench {

using namespace prime;

namespace {

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// decide() is timed on every 16th call: one clock pair costs about three
/// times a simple governor's decide.
constexpr std::uint64_t kDecideSampleMask = 15;

/// Frames per timed replay block: the clock pair is amortised over a block,
/// the same batch size the engine pulls.
constexpr std::size_t kReplayBlock = 64;

}  // namespace

double timer_overhead_ns() {
  static const double overhead = [] {
    std::vector<double> samples(4096);
    for (double& s : samples) {
      const auto a = Clock::now();
      const auto b = Clock::now();
      s = ns_between(a, b);
    }
    return median(std::move(samples));
  }();
  return overhead;
}

double SpanStats::mean_ns() const {
  if (sampled == 0) return 0.0;
  return std::max(0.0, sampled_ns / static_cast<double>(sampled) -
                           timer_overhead_ns());
}

// --- TimedGovernor -----------------------------------------------------------

TimedGovernor::TimedGovernor(std::unique_ptr<gov::Governor> inner)
    : inner_(std::move(inner)) {
  if (!inner_) throw std::invalid_argument("TimedGovernor: inner required");
}

std::string TimedGovernor::name() const { return inner_->name(); }

std::size_t TimedGovernor::decide(
    const gov::DecisionContext& ctx,
    const std::optional<gov::EpochObservation>& last) {
  if ((decide_.calls++ & kDecideSampleMask) != 0) {
    return inner_->decide(ctx, last);
  }
  const auto t0 = Clock::now();
  const std::size_t choice = inner_->decide(ctx, last);
  decide_.add(ns_between(t0, Clock::now()));
  return choice;
}

common::Seconds TimedGovernor::epoch_overhead() const {
  return inner_->epoch_overhead();
}

void TimedGovernor::reset() { inner_->reset(); }

void TimedGovernor::save_state(std::ostream& out) const {
  ++save_.calls;
  const auto t0 = Clock::now();
  inner_->save_state(out);
  save_.add(ns_between(t0, Clock::now()));
}

void TimedGovernor::load_state(std::istream& in) { inner_->load_state(in); }

const gov::Governor* TimedGovernor::inner_governor() const noexcept {
  return inner_.get();
}

std::unique_ptr<gov::StateMerger> TimedGovernor::make_state_merger() const {
  return inner_->make_state_merger();
}

bool is_rtm_family(const gov::Governor& governor) {
  return governor.name().rfind("rtm", 0) == 0;
}

// --- Sinks -------------------------------------------------------------------

TimingSink::TimingSink(std::unique_ptr<sim::TelemetrySink> inner,
                       unsigned sample_shift)
    : inner_(std::move(inner)), mask_((std::uint64_t{1} << sample_shift) - 1) {
  if (!inner_) throw std::invalid_argument("TimingSink: inner required");
}

void TimingSink::on_run_begin(const sim::RunContext& ctx) {
  inner_->on_run_begin(ctx);
}

void TimingSink::on_epoch(const sim::EpochRecord& record,
                          gov::Governor& governor) {
  if ((stats_.calls++ & mask_) != 0) {
    inner_->on_epoch(record, governor);
    return;
  }
  const auto t0 = Clock::now();
  inner_->on_epoch(record, governor);
  stats_.add(ns_between(t0, Clock::now()));
}

void TimingSink::on_run_end(const sim::RunResult& result) {
  inner_->on_run_end(result);
}

void ClockSink::on_run_begin(const sim::RunContext&) {
  begin = Clock::now();
  epochs = 0;
  segment_s.clear();
}

void ClockSink::on_epoch(const sim::EpochRecord&, gov::Governor&) {
  const std::size_t n = epochs++;
  if (n == 0) {
    first_epoch = mark_ = Clock::now();
  } else if (mask_ != 0 && (n & mask_) == 0) {
    const auto now = Clock::now();
    segment_s.push_back(seconds_between(mark_, now));
    mark_ = now;
  }
}

void ClockSink::on_run_end(const sim::RunResult&) { end = Clock::now(); }

void RecordingSink::on_run_begin(const sim::RunContext&) { records_.clear(); }

void RecordingSink::on_epoch(const sim::EpochRecord& record, gov::Governor&) {
  if (records_.size() < limit_) records_.push_back(record);
}

namespace {

const gov::GovernorRegistrar kRegisterTimed{
    gov::governor_registry(), "timed",
    "benchmark decorator timing decide() and save_state() of an inner "
    "governor: timed(inner=<spec>)",
    [](const common::Spec& spec,
       std::uint64_t seed) -> std::unique_ptr<gov::Governor> {
      const std::string inner = spec.get_string("inner", "");
      if (inner.empty()) {
        throw std::invalid_argument("governor 'timed': inner= is required");
      }
      return std::make_unique<TimedGovernor>(gov::governor_registry().create(
          inner, gov::effective_seed(spec, seed)));
    }};

const sim::TelemetrySinkRegistrar kRegisterClock{
    sim::telemetry_registry(), "perfbench-clock",
    "benchmark sink stamping run begin, first epoch and run end",
    [](const common::Spec&) { return std::make_unique<ClockSink>(); }};

// --- Probe -------------------------------------------------------------------

/// Governor decorator keeping the first \p limit decide() inputs and
/// choices, so the decision stream of a real run can be replayed into a
/// fresh governor without a timer around each call.
class RecordingGovernor final : public gov::Governor {
 public:
  RecordingGovernor(std::unique_ptr<gov::Governor> inner, std::size_t limit)
      : inner_(std::move(inner)), limit_(limit) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::size_t decide(
      const gov::DecisionContext& ctx,
      const std::optional<gov::EpochObservation>& last) override {
    const std::size_t choice = inner_->decide(ctx, last);
    ++calls_;
    if (contexts.size() < limit_) {
      contexts.push_back(ctx);
      observations.push_back(last);
      choices.push_back(choice);
    }
    return choice;
  }
  [[nodiscard]] common::Seconds epoch_overhead() const override {
    return inner_->epoch_overhead();
  }
  void reset() override { inner_->reset(); }
  void save_state(std::ostream& out) const override { inner_->save_state(out); }
  void load_state(std::istream& in) override { inner_->load_state(in); }
  [[nodiscard]] const gov::Governor* inner_governor() const noexcept override {
    return inner_.get();
  }
  [[nodiscard]] std::uint64_t calls() const noexcept { return calls_; }

  std::vector<gov::DecisionContext> contexts;
  std::vector<std::optional<gov::EpochObservation>> observations;
  std::vector<std::size_t> choices;

 private:
  std::unique_ptr<gov::Governor> inner_;
  std::size_t limit_;
  std::uint64_t calls_ = 0;
};

/// Replay a recorded decision stream into a fresh, reset governor of the
/// same spec and seed. Returns ns per decide(); a choice that differs from
/// the recorded one is a failed operation.
double replay_decisions(const ProbeSpec& spec, const RecordingGovernor& rec,
                        Gate& gate) {
  const auto governor = sim::make_governor(spec.governor, spec.governor_seed);
  governor->reset();
  const std::size_t n = rec.choices.size();
  std::vector<std::size_t> choices(n);
  double ns = 0.0;
  for (std::size_t i = 0; i < n; i += kReplayBlock) {
    const std::size_t end = std::min(n, i + kReplayBlock);
    const auto t0 = Clock::now();
    for (std::size_t d = i; d < end; ++d) {
      choices[d] = governor->decide(rec.contexts[d], rec.observations[d]);
    }
    ns += ns_between(t0, Clock::now());
  }
  gate.attempt();
  if (choices != rec.choices) {
    gate.fail("decide replay diverges from the run's decisions");
  }
  return n == 0 ? 0.0 : ns / static_cast<double>(n);
}

struct ReplayTimes {
  double fill_ns = 0.0;
  double epoch_ns = 0.0;
  double integrate_ns = 0.0;
};

/// Replay \p records through the layers' public calls on a fresh board and
/// a fresh stream cursor. Returns the per-layer time; a record that differs
/// from the run's in any byte of its `.bt` encoding is a failed operation.
ReplayTimes replay_once(const ProbeSpec& spec, const wl::Application& app,
                        common::Seconds overhead,
                        const std::vector<sim::EpochRecord>& records,
                        Gate& gate) {
  const auto board = spec.make_platform();
  board->reset();
  hw::Cluster& cluster = board->cluster();
  hw::PowerSensor& sensor = board->power_sensor();
  const wl::Application local(app);
  const std::size_t cores = cluster.core_count();
  const std::size_t n = records.size();

  ReplayTimes t;
  wl::FrameBlock block;
  std::vector<common::Cycles> rows(n * cores);
  std::vector<common::Seconds> periods(n);
  std::vector<common::Cycles> demand(n);
  for (std::size_t i = 0; i < n; i += kReplayBlock) {
    const std::size_t count = std::min(kReplayBlock, n - i);
    const auto t0 = Clock::now();
    local.fill_block(i, count, cores, block);
    t.fill_ns += ns_between(t0, Clock::now());
    std::copy(block.work.begin(), block.work.begin() + count * cores,
              rows.begin() + i * cores);
    std::copy_n(block.periods.begin(), count, periods.begin() + i);
    std::copy_n(block.demand.begin(), count, demand.begin() + i);
  }
  const double mem_fraction = block.mem_fraction;

  std::vector<sim::EpochRecord> out(n);
  std::vector<common::Watt> avg_power(n);
  hw::EpochScratch scratch;
  for (std::size_t i = 0; i < n; i += kReplayBlock) {
    const std::size_t end = std::min(n, i + kReplayBlock);
    const auto t0 = Clock::now();
    for (std::size_t f = i; f < end; ++f) {
      common::Cycles* row = rows.data() + f * cores;
      cluster.set_opp(records[f].opp_index);
      if (cores != 0 && overhead > 0.0) {
        row[0] += common::cycles_at(cluster.current_opp().frequency, overhead);
      }
      cluster.run_epoch_into(row, cores, periods[f], mem_fraction, 1.0e9,
                             scratch);
      sim::EpochRecord& rec = out[f];
      rec.epoch = f;
      rec.period = periods[f];
      rec.opp_index = cluster.current_opp_index();
      rec.frequency = cluster.current_opp().frequency;
      rec.demand = demand[f];
      rec.executed = std::accumulate(scratch.core_cycles.begin(),
                                     scratch.core_cycles.end(),
                                     common::Cycles{0});
      rec.frame_time = scratch.frame_time;
      rec.window = scratch.window;
      rec.energy = scratch.energy;
      rec.temperature = scratch.temperature;
      rec.slack = periods[f] > 0.0
                      ? (periods[f] - scratch.frame_time) / periods[f]
                      : 0.0;
      rec.deadline_met = scratch.deadline_met;
      avg_power[f] = scratch.avg_power;
    }
    t.epoch_ns += ns_between(t0, Clock::now());
  }

  for (std::size_t i = 0; i < n; i += kReplayBlock) {
    const std::size_t end = std::min(n, i + kReplayBlock);
    const auto t0 = Clock::now();
    for (std::size_t f = i; f < end; ++f) {
      out[f].sensor_power = sensor.integrate(avg_power[f], out[f].window);
    }
    t.integrate_ns += ns_between(t0, Clock::now());
  }

  gate.attempt();
  for (std::size_t f = 0; f < n; ++f) {
    unsigned char ours[sim::kBinTraceRecordSize];
    unsigned char theirs[sim::kBinTraceRecordSize];
    sim::encode_record(out[f], ours);
    sim::encode_record(records[f], theirs);
    if (std::memcmp(ours, theirs, sizeof(ours)) != 0) {
      gate.fail("layer replay diverges from the run at epoch " +
                std::to_string(f));
      break;
    }
  }
  return t;
}

/// Smallest positive sample (0 when there is none).
double fastest(const std::vector<double>& values) {
  double best = 0.0;
  for (const double v : values) {
    if (v > 0.0 && (best == 0.0 || v < best)) best = v;
  }
  return best;
}

}  // namespace

ProbeResult probe(const ProbeSpec& spec, std::size_t repeats,
                  std::size_t replay_frames, Gate& gate) {
  ProbeResult out;
  std::optional<sim::RunResult> reference;
  std::vector<double> run_ns;
  const auto run_once = [&](gov::Governor& governor,
                            std::vector<sim::TelemetrySink*> sinks,
                            const wl::Application& app,
                            hw::Platform& platform) {
    sim::RunOptions options;
    options.max_frames = spec.frames;
    options.sinks = std::move(sinks);
    const std::size_t expected =
        spec.frames != 0 ? spec.frames : app.frame_count();
    gate.attempt();
    const auto t0 = Clock::now();
    const sim::RunResult run =
        sim::run_simulation(platform, app, governor, options);
    const double ns = ns_between(t0, Clock::now());
    if (!gate.check_run(run, expected, "probe run")) return 0.0;
    if (!reference) {
      reference = run;
    } else if (!gate.check_same(run, *reference, "probe repeat")) {
      return 0.0;
    }
    return ns / static_cast<double>(expected);
  };

  for (std::size_t r = 0; r < repeats; ++r) {
    const auto platform = spec.make_platform();
    const wl::Application app = sim::make_application(spec.app, *platform);
    const auto governor = sim::make_governor(spec.governor, spec.governor_seed);
    run_ns.push_back(run_once(*governor, {}, app, *platform));
  }
  // Best of the repeats, run and replays alike: other load on the host only
  // ever adds time, so the minimum is the steadiest estimate of each span.
  out.run_ns_per_frame = fastest(run_ns);
  if (reference) out.run = *reference;

  const auto platform = spec.make_platform();
  const wl::Application app = sim::make_application(spec.app, *platform);
  RecordingGovernor governor(
      sim::make_governor(spec.governor, spec.governor_seed), replay_frames);
  RecordingSink recorder(replay_frames);
  (void)run_once(governor, {&recorder}, app, *platform);
  const auto& records = recorder.records();
  out.decide_calls_per_frame =
      reference ? static_cast<double>(governor.calls()) /
                      static_cast<double>(reference->epoch_count)
                : 0.0;
  out.replayed = records.size();
  if (records.empty()) return out;

  std::vector<double> decide, fill, epoch, integrate;
  for (std::size_t r = 0; r < repeats; ++r) {
    decide.push_back(replay_decisions(spec, governor, gate));
    const ReplayTimes t =
        replay_once(spec, app, governor.epoch_overhead(), records, gate);
    const auto per_frame = static_cast<double>(records.size());
    fill.push_back(t.fill_ns / per_frame);
    epoch.push_back(t.epoch_ns / per_frame);
    integrate.push_back(t.integrate_ns / per_frame);
  }
  out.decide_ns = fastest(decide);
  out.fill_ns_per_frame = fastest(fill);
  out.epoch_ns = fastest(epoch);
  out.integrate_ns = fastest(integrate);
  return out;
}

}  // namespace perfbench
