/// \file test_checkpoint.cpp
/// \brief Checkpoint/resume tests: the serial layer, the sealed `.ckpt`
///        format and its corrupt-input rejection, FrameSource/Application
///        skip_to, the registry-driven governor state round-trip and reset
///        audits, and the headline differential — for every registered
///        governor, a run resumed from a checkpoint is bit-identical to one
///        that never stopped.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/binio.hpp"
#include "common/log.hpp"
#include "common/serial.hpp"
#include "gov/governor.hpp"
#include "hw/platform.hpp"
#include "qlib/policy.hpp"
#include "sim/bintrace.hpp"
#include "sim/builder.hpp"
#include "sim/checkpoint.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/telemetry.hpp"
#include "wl/application.hpp"
#include "wl/frame_source.hpp"
#include "wl/registry.hpp"
#include "wl/video.hpp"
#include "sealed_fixtures.hpp"
#include "short_write.hpp"
#include "thread_count.hpp"

namespace prime::sim {
namespace {

using testing_util::read_bytes;
using testing_util::sample_checkpoint;
using testing_util::synthetic_obs;
using testing_util::write_bytes;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

/// A streaming (unbounded, seed-deterministic) application, calibrated like
/// the benches calibrate theirs. Copies get private replay cursors, so one
/// instance seeds any number of identical runs.
wl::Application make_streaming_app(const hw::Platform& platform,
                                   std::size_t frames) {
  ExperimentSpec spec;
  spec.workload = "h264";
  spec.fps = 30.0;
  spec.frames = frames;
  spec.stream = true;
  return make_application(spec, platform);
}

/// Bit-exact RunResult comparison: every double must carry the identical
/// IEEE-754 pattern, not merely compare approximately equal.
void expect_results_bitequal(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.epoch_count, b.epoch_count);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.total_energy),
            std::bit_cast<std::uint64_t>(b.total_energy));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.measured_energy),
            std::bit_cast<std::uint64_t>(b.measured_energy));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.total_time),
            std::bit_cast<std::uint64_t>(b.total_time));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.performance_sum),
            std::bit_cast<std::uint64_t>(b.performance_sum));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.power_sum),
            std::bit_cast<std::uint64_t>(b.power_sum));
}

/// Bit-exact EpochRecord comparison through the `.bt` record encoding, which
/// preserves every field's exact bits.
void expect_records_bitequal(const EpochRecord& a, const EpochRecord& b) {
  unsigned char ea[kBinTraceRecordSize];
  unsigned char eb[kBinTraceRecordSize];
  encode_record(a, ea);
  encode_record(b, eb);
  EXPECT_EQ(std::memcmp(ea, eb, sizeof(ea)), 0) << "epoch " << a.epoch;
}

// --- The synthetic decision driver ------------------------------------------
//
// Drives a governor through a deterministic decision sequence without the
// engine: the observation fed back for epoch e is a fixed function of
// (e, chosen action), so two governors in identical state produce identical
// action streams — and any forgotten member in save/load/reset shows up as a
// diverging action.

struct DriveResult {
  std::vector<std::size_t> actions;
  std::optional<gov::EpochObservation> last;
};

DriveResult drive(gov::Governor& governor, const hw::OppTable& opps,
                  std::size_t start, std::size_t count,
                  std::optional<gov::EpochObservation> last) {
  static constexpr std::size_t kSlots[] = {0, 1, 2, 3};
  DriveResult out;
  out.last = std::move(last);
  for (std::size_t e = start; e < start + count; ++e) {
    // Every slot carries the frame's per-core share (the Oracle reads it).
    std::array<common::Cycles, 4> work;
    work.fill(static_cast<common::Cycles>(
        2.0e7 + 1.0e6 * static_cast<double>(e % 17)));
    gov::DecisionContext ctx;
    ctx.epoch = e;
    ctx.period = 1.0 / 30.0;
    ctx.cores = 4;
    ctx.opps = &opps;
    ctx.work = work.data();
    ctx.slots = kSlots;
    ctx.mem_fraction = 0.1;
    const std::size_t action = governor.decide(ctx, out.last);
    out.actions.push_back(action);
    out.last = synthetic_obs(e, action, ctx.period, opps);
  }
  return out;
}

// --- StateWriter / StateReader -----------------------------------------------

TEST(Serial, PrimitivesRoundTripBitExact) {
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  common::StateWriter w(buf);
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(-0.0);
  w.f64(0.1);
  w.boolean(true);
  w.boolean(false);
  w.str("governor state");
  w.str("");
  w.vec_f64({1.5, -2.5, 1.0e300});
  w.vec_u64({7, 0, ~std::uint64_t{0}});

  common::StateReader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(r.f64(), 0.1);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.str(), "governor state");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.vec_f64(), (std::vector<double>{1.5, -2.5, 1.0e300}));
  EXPECT_EQ(r.vec_u64(), (std::vector<std::uint64_t>{7, 0, ~std::uint64_t{0}}));
}

TEST(Serial, TruncationAndCorruptionThrow) {
  {
    std::istringstream empty;
    common::StateReader r(empty);
    EXPECT_THROW((void)r.u64(), common::SerialError);
  }
  {
    std::stringstream buf;
    common::StateWriter w(buf);
    w.u8(7);  // not a valid boolean encoding
    common::StateReader r(buf);
    EXPECT_THROW((void)r.boolean(), common::SerialError);
  }
  {
    std::stringstream buf;
    common::StateWriter w(buf);
    w.u64(common::StateReader::kMaxString + 1);  // absurd string length
    common::StateReader r(buf);
    EXPECT_THROW((void)r.str(), common::SerialError);
  }
}

TEST(Serial, VectorCountBeyondTheStreamThrowsWithoutAllocating) {
  // Two elements follow each count. Reserving or resizing to the claimed
  // count would throw std::length_error or std::bad_alloc, not SerialError.
  for (const std::uint64_t count :
       {std::uint64_t{3}, std::uint64_t{1} << 40, std::uint64_t{1} << 61,
        ~std::uint64_t{0}}) {
    SCOPED_TRACE(count);
    std::stringstream f64s;
    common::StateWriter wf(f64s);
    wf.u64(count);
    wf.f64(1.0);
    wf.f64(2.0);
    common::StateReader rf(f64s);
    EXPECT_THROW((void)rf.vec_f64(), common::SerialError);

    std::stringstream u64s;
    common::StateWriter wu(u64s);
    wu.u64(count);
    wu.u64(1);
    wu.u64(2);
    common::StateReader ru(u64s);
    EXPECT_THROW((void)ru.vec_u64(), common::SerialError);
  }
}

TEST(Serial, VectorsRoundTripAcrossChunksAndRejectATruncatedLastElement) {
  for (const std::size_t n : {0, 1, 511, 512, 513, 1500}) {
    SCOPED_TRACE(n);
    std::vector<double> doubles(n);
    std::vector<std::uint64_t> words(n);
    for (std::size_t i = 0; i < n; ++i) {
      doubles[i] = i % 3 == 0 ? -0.0 : 0.1 * static_cast<double>(i);
      words[i] = ~std::uint64_t{0} - i;
    }
    std::stringstream buf;
    common::StateWriter w(buf);
    w.vec_f64(doubles);
    w.vec_u64(words);
    const std::string bytes = buf.str();
    ASSERT_EQ(bytes.size(), 16 + 16 * n);

    std::istringstream whole(bytes);
    common::StateReader r(whole);
    const std::vector<double> back = r.vec_f64();
    ASSERT_EQ(back.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(back[i]),
                std::bit_cast<std::uint64_t>(doubles[i]));
    }
    EXPECT_EQ(r.vec_u64(), words);

    if (n == 0) continue;
    for (std::size_t cut = 1; cut < 8; ++cut) {
      SCOPED_TRACE(cut);
      // Truncate the last element of the u64 vector, then of the f64 one.
      std::istringstream short_u64(bytes.substr(0, bytes.size() - cut));
      common::StateReader ru(short_u64);
      (void)ru.vec_f64();
      EXPECT_THROW((void)ru.vec_u64(), common::SerialError);
      std::istringstream short_f64(bytes.substr(0, 8 + 8 * n - cut));
      common::StateReader rf(short_f64);
      EXPECT_THROW((void)rf.vec_f64(), common::SerialError);
    }
  }
}

// --- FrameSource::skip_to ----------------------------------------------------

TEST(FrameSourceSkip, TraceSourceSkipsInConstantTime) {
  const wl::WorkloadTrace trace =
      wl::VideoTraceGenerator::h264_football().generate(20, 3);
  wl::TraceFrameSource source(trace);
  EXPECT_EQ(source.position(), 0u);
  ASSERT_TRUE(source.skip_to(5));
  EXPECT_EQ(source.position(), 5u);
  EXPECT_EQ(source.next()->cycles, trace.at(5).cycles);
  // Backward skips are a contract violation, not a silent rewind.
  EXPECT_THROW((void)source.skip_to(2), std::invalid_argument);
  // Skipping past the end reports exhaustion and stops at the boundary.
  EXPECT_FALSE(source.skip_to(100));
  EXPECT_EQ(source.position(), 20u);
  EXPECT_EQ(source.next(), std::nullopt);
}

TEST(FrameSourceSkip, ScaledSourceDelegatesToItsInner) {
  const wl::WorkloadTrace trace =
      wl::VideoTraceGenerator::h264_football().generate(10, 3);
  wl::ScaledFrameSource reference(
      std::make_unique<wl::TraceFrameSource>(trace), 1.5);
  std::vector<common::Cycles> expected;
  while (const auto f = reference.next()) expected.push_back(f->cycles);

  wl::ScaledFrameSource skipped(std::make_unique<wl::TraceFrameSource>(trace),
                                1.5);
  ASSERT_TRUE(skipped.skip_to(6));
  EXPECT_EQ(skipped.next()->cycles, expected[6]);
  EXPECT_FALSE(skipped.skip_to(50));
}

TEST(FrameSourceSkip, SkipEqualsPullForEveryRegisteredGenerator) {
  // The resume contract for generator streams: a stream skipped to frame k
  // continues with exactly the frames a straight pull reaches — the skip
  // replays the same per-frame draws.
  for (const std::string& name : wl::workload_registry().names()) {
    SCOPED_TRACE(name);
    const auto generator = wl::workload_registry().create(name);
    const std::size_t k = 23;
    std::unique_ptr<wl::FrameSource> reference = generator->stream(11);
    for (std::size_t i = 0; i < k; ++i) (void)reference->next();
    std::unique_ptr<wl::FrameSource> skipped = generator->stream(11);
    ASSERT_TRUE(skipped->skip_to(k));
    EXPECT_EQ(skipped->position(), k);
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(skipped->next(), reference->next()) << "frame " << (k + i);
    }
  }
}

TEST(ApplicationSkip, StreamingCursorFastForwardsAndRewinds) {
  const auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application reference = make_streaming_app(*platform, 100);
  wl::Application skipped(reference);  // private cursor
  skipped.skip_to(42);
  EXPECT_EQ(skipped.core_work(42, 4), reference.core_work(42, 4));
  // Backward skip re-creates the deterministic source.
  skipped.skip_to(7);
  EXPECT_EQ(skipped.core_work(7, 4), reference.core_work(7, 4));
  // Materialised applications are random access: skip_to is a no-op.
  wl::WorkloadTrace trace =
      wl::VideoTraceGenerator::h264_football().generate(10, 3);
  const wl::Application bounded("b", trace, 30.0);
  bounded.skip_to(3);
  EXPECT_EQ(bounded.frame_cycles(0), trace.at(0).cycles);
}

TEST(ApplicationSkip, BoundedSourceExhaustionThrows) {
  wl::WorkloadTrace trace =
      wl::VideoTraceGenerator::h264_football().generate(5, 3);
  const wl::Application app(
      "bounded", [trace] { return std::make_unique<wl::TraceFrameSource>(trace); },
      30.0);
  EXPECT_THROW(app.skip_to(9), std::out_of_range);
}

// --- Governor state round-trip and reset audits ------------------------------

TEST(GovernorState, SaveResetLoadRoundTripsForEveryRegisteredGovernor) {
  // Train briefly, save, keep deciding (the reference continuation), then
  // reset + load and replay the same decision sequence: every action must
  // match, or save/load forgot a member (learning tables, RNG, accumulators).
  const auto platform = hw::Platform::odroid_xu3_a15();
  const hw::OppTable& opps = platform->opp_table();
  for (const std::string& name : governor_names()) {
    SCOPED_TRACE(name);
    const auto governor = make_governor(name);
    const DriveResult trained = drive(*governor, opps, 0, 120, std::nullopt);

    std::ostringstream saved;
    governor->save_state(saved);

    const DriveResult reference = drive(*governor, opps, 120, 60, trained.last);

    governor->reset();
    std::istringstream stored(saved.str());
    governor->load_state(stored);
    const DriveResult replayed = drive(*governor, opps, 120, 60, trained.last);

    EXPECT_EQ(reference.actions, replayed.actions);
  }
}

TEST(GovernorState, ResetMatchesAFreshInstanceForEveryRegisteredGovernor) {
  // The reset() audit, pinned: a trained-then-reset governor must decide
  // exactly like a freshly constructed one — any member missing from a
  // reset() implementation (including a decorator forgetting its inner
  // governor) diverges here.
  const auto platform = hw::Platform::odroid_xu3_a15();
  const hw::OppTable& opps = platform->opp_table();
  for (const std::string& name : governor_names()) {
    SCOPED_TRACE(name);
    const auto fresh = make_governor(name);
    const auto recycled = make_governor(name);
    (void)drive(*recycled, opps, 0, 150, std::nullopt);  // train
    recycled->reset();
    const DriveResult a = drive(*fresh, opps, 0, 80, std::nullopt);
    const DriveResult b = drive(*recycled, opps, 0, 80, std::nullopt);
    EXPECT_EQ(a.actions, b.actions);
  }
}

TEST(GovernorState, LoadRejectsTruncatedPayload) {
  const auto platform = hw::Platform::odroid_xu3_a15();
  const hw::OppTable& opps = platform->opp_table();
  const auto governor = make_governor("rtm-manycore");
  (void)drive(*governor, opps, 0, 50, std::nullopt);
  std::ostringstream saved;
  governor->save_state(saved);
  const std::string payload = saved.str();
  ASSERT_GT(payload.size(), 16u);
  std::istringstream truncated(payload.substr(0, payload.size() / 2));
  EXPECT_THROW(governor->load_state(truncated), common::SerialError);
}

// --- The `.ckpt` format ------------------------------------------------------

TEST(CheckpointFormat, FileRoundTripPreservesEveryField) {
  const std::string path = temp_path("roundtrip.ckpt");
  const Checkpoint ck = sample_checkpoint();
  ck.save_file(path);
  const Checkpoint rt = Checkpoint::load_file(path);
  EXPECT_EQ(rt.governor, ck.governor);
  EXPECT_EQ(rt.application, ck.application);
  EXPECT_EQ(rt.opp_count, ck.opp_count);
  EXPECT_EQ(rt.core_count, ck.core_count);
  EXPECT_EQ(rt.frame_position, ck.frame_position);
  expect_results_bitequal(rt.aggregates, ck.aggregates);
  ASSERT_TRUE(rt.has_last);
  EXPECT_EQ(rt.last.epoch, ck.last.epoch);
  EXPECT_EQ(rt.last.core_cycles, ck.last.core_cycles);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(rt.last.frame_time),
            std::bit_cast<std::uint64_t>(ck.last.frame_time));
  EXPECT_EQ(rt.governor_state, ck.governor_state);
  EXPECT_EQ(rt.platform_state, ck.platform_state);
}

TEST(CheckpointFormat, SaveIsAtomicOverAnExistingFile) {
  const std::string path = temp_path("atomic.ckpt");
  Checkpoint ck = sample_checkpoint();
  ck.save_file(path);
  ck.frame_position = 500;
  ck.save_file(path);  // overwrite via tmp+rename
  EXPECT_EQ(Checkpoint::load_file(path).frame_position, 500u);
}

TEST(CheckpointFormat, ShortWriteThrowsAndLeavesNoTempFile) {
  const std::string path = temp_path("short.ckpt");
  std::filesystem::remove(path);
  const Checkpoint ck = sample_checkpoint();
  EXPECT_EXIT(testing_util::save_past_file_size_limit<CheckpointError>(
                  [&] { ck.save_file(path); }),
              testing::ExitedWithCode(0), "checkpoint: stream write failed");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_FALSE(std::filesystem::exists(path));
}

// --- Resume-vs-uninterrupted differential ------------------------------------

TEST(CheckpointResume, BitIdenticalForEveryRegisteredGovernor) {
  // The headline contract: run N frames straight vs. stop at k + resume, for
  // every registered governor on a streaming workload. Final aggregates and
  // every tail epoch record must match bit for bit — any unserialised scrap
  // of governor, platform or stream state diverges here.
  constexpr std::size_t kFull = 400;
  constexpr std::size_t kStop = 173;
  const auto calibration = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_streaming_app(*calibration, kFull);

  for (const std::string& name : governor_names()) {
    SCOPED_TRACE(name);

    // Uninterrupted reference.
    const auto platform_full = hw::Platform::odroid_xu3_a15();
    const auto governor_full = make_governor(name);
    TraceSink full_trace;
    RunOptions full_options;
    full_options.max_frames = kFull;
    full_options.sinks = {&full_trace};
    const wl::Application app_full(app);
    const RunResult full =
        run_simulation(*platform_full, app_full, *governor_full, full_options);

    // Stop at k, leaving a run-end checkpoint (what a killed run leaves
    // behind after its last periodic snapshot).
    const std::string ckpt = temp_path("diff-" + name + ".ckpt");
    const auto platform_stop = hw::Platform::odroid_xu3_a15();
    const auto governor_stop = make_governor(name);
    RunOptions stop_options;
    stop_options.max_frames = kStop;
    stop_options.checkpoint_path = ckpt;
    const wl::Application app_stop(app);
    (void)run_simulation(*platform_stop, app_stop, *governor_stop,
                         stop_options);

    // Resume on a *fresh* governor + platform + stream, to the full length.
    const auto platform_resume = hw::Platform::odroid_xu3_a15();
    const auto governor_resume = make_governor(name);
    TraceSink tail_trace;
    RunOptions resume_options;
    resume_options.max_frames = kFull;
    resume_options.resume_from = ckpt;
    resume_options.sinks = {&tail_trace};
    const wl::Application app_resume(app);
    const RunResult resumed = run_simulation(*platform_resume, app_resume,
                                             *governor_resume, resume_options);

    expect_results_bitequal(full, resumed);
    ASSERT_EQ(tail_trace.records().size(), kFull - kStop);
    ASSERT_EQ(full_trace.records().size(), kFull);
    for (std::size_t i = 0; i < tail_trace.records().size(); ++i) {
      expect_records_bitequal(full_trace.records()[kStop + i],
                              tail_trace.records()[i]);
    }
  }
}

TEST(CheckpointResume, TailBinTraceIsByteIdenticalToTheReference) {
  // The on-disk story the CI job tells: a resumed run's `.bt` equals the
  // uninterrupted reference's tail, record for record, at the byte level.
  constexpr std::size_t kFull = 300;
  constexpr std::size_t kStop = 120;
  const auto calibration = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_streaming_app(*calibration, kFull);
  const std::string full_bt = temp_path("full.bt");
  const std::string tail_bt = temp_path("tail.bt");
  const std::string ckpt = temp_path("tail.ckpt");

  {
    const auto platform = hw::Platform::odroid_xu3_a15();
    const auto governor = make_governor("rtm-manycore");
    const auto sink = make_sink("bintrace(path=" + full_bt + ")");
    RunOptions options;
    options.max_frames = kFull;
    options.sinks = {sink.get()};
    const wl::Application run_app(app);
    (void)run_simulation(*platform, run_app, *governor, options);
  }
  {
    const auto platform = hw::Platform::odroid_xu3_a15();
    const auto governor = make_governor("rtm-manycore");
    RunOptions options;
    options.max_frames = kStop;
    options.checkpoint_path = ckpt;
    const wl::Application run_app(app);
    (void)run_simulation(*platform, run_app, *governor, options);
  }
  {
    const auto platform = hw::Platform::odroid_xu3_a15();
    const auto governor = make_governor("rtm-manycore");
    const auto sink = make_sink("bintrace(path=" + tail_bt + ")");
    RunOptions options;
    options.max_frames = kFull;
    options.resume_from = ckpt;
    options.sinks = {sink.get()};
    const wl::Application run_app(app);
    (void)run_simulation(*platform, run_app, *governor, options);
  }

  BinTraceReader full(full_bt);
  BinTraceReader tail(tail_bt);
  ASSERT_EQ(full.record_count(), kFull);
  ASSERT_EQ(tail.record_count(), kFull - kStop);
  for (std::size_t i = 0; i < tail.record_count(); ++i) {
    expect_records_bitequal(full.at(kStop + i), tail.at(i));
  }
}

// --- Resume rejection --------------------------------------------------------

TEST(CheckpointResume, MismatchedGovernorOrApplicationFailsLoudly) {
  const auto calibration = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_streaming_app(*calibration, 80);
  const std::string ckpt = temp_path("mismatch.ckpt");
  {
    const auto platform = hw::Platform::odroid_xu3_a15();
    const auto governor = make_governor("shen-rl");
    RunOptions options;
    options.max_frames = 80;
    options.checkpoint_path = ckpt;
    const wl::Application run_app(app);
    (void)run_simulation(*platform, run_app, *governor, options);
  }
  // Resuming shen-rl state into a pid governor must fail loudly...
  {
    const auto platform = hw::Platform::odroid_xu3_a15();
    const auto governor = make_governor("pid");
    RunOptions options;
    options.max_frames = 120;
    options.resume_from = ckpt;
    const wl::Application run_app(app);
    EXPECT_THROW(
        (void)run_simulation(*platform, run_app, *governor, options),
        CheckpointError);
  }
  // ...and so must resuming onto a different application.
  {
    const auto platform = hw::Platform::odroid_xu3_a15();
    const auto governor = make_governor("shen-rl");
    ExperimentSpec spec;
    spec.workload = "fft";
    spec.frames = 120;
    spec.stream = true;
    const wl::Application other = make_application(spec, *platform);
    RunOptions options;
    options.max_frames = 120;
    options.resume_from = ckpt;
    EXPECT_THROW((void)run_simulation(*platform, other, *governor, options),
                 CheckpointError);
  }
}

// Resume and warm start both carry learned state onto a board, and both
// refuse a board of another shape: another OPP count, another core count,
// or the same counts over different V-F points (only the fingerprint
// differs). Governors size their learning tables lazily from the action
// space, so a same-named governor on another shape would silently
// re-initialise the restored state on its first decide(). Each refusal is
// the path's own error type and names the file.
enum class Carry { kResume, kWarmStart };
enum class Shape { kOppCount, kCoreCount, kOperatingPoints };

class PlatformShapeCheck
    : public testing::TestWithParam<std::tuple<Carry, Shape>> {};

TEST_P(PlatformShapeCheck, MismatchNamesTheFileInItsOwnError) {
  const auto [carry, shape] = GetParam();
  const auto saved_board = hw::Platform::odroid_xu3_a15();  // 19 OPPs, 4 cores
  const wl::Application app = make_streaming_app(*saved_board, 60);
  const auto trained = make_governor("shen-rl");
  RunOptions options;
  options.max_frames = 60;
  std::string path;
  if (carry == Carry::kResume) {
    path = temp_path("shape-check.ckpt");
    RunOptions save = options;
    save.checkpoint_path = path;
    const wl::Application run_app(app);
    (void)run_simulation(*saved_board, run_app, *trained, save);
    options.resume_from = path;
    options.max_frames = 100;
  } else {
    path = temp_path("shape-check.qpol");
    const wl::Application run_app(app);
    const RunResult run =
        run_simulation(*saved_board, run_app, *trained, options);
    qlib::make_leaf_entry(*saved_board, *trained, "h264", 30.0, "shen-rl",
                          run.epoch_count)
        .save_file(path);
    options.warm_start_from = path;
  }

  common::Config cfg;
  switch (shape) {
    case Shape::kOppCount:
      cfg.set_int("hw.opps", 10);
      break;
    case Shape::kCoreCount:
      cfg.set_int("hw.cores", 8);
      break;
    case Shape::kOperatingPoints:
      cfg.set_double("hw.fmax_mhz", 1800.0);  // 19 OPPs, another V-F ladder
      break;
  }
  const auto other = hw::Platform::from_config(cfg);
  const auto governor = make_governor("shen-rl");
  const wl::Application run_app(app);
  try {
    (void)run_simulation(*other, run_app, *governor, options);
    ADD_FAILURE() << "a board of another shape was accepted";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(carry, Carry::kResume) << e.what();
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  } catch (const qlib::QlibError& e) {
    EXPECT_EQ(carry, Carry::kWarmStart) << e.what();
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
}

std::string shape_check_name(
    const testing::TestParamInfo<PlatformShapeCheck::ParamType>& info) {
  static constexpr const char* kCarry[] = {"Resume", "WarmStart"};
  static constexpr const char* kShape[] = {"OppCount", "CoreCount",
                                           "OperatingPoints"};
  return std::string(kCarry[static_cast<int>(std::get<0>(info.param))]) +
         "_" + kShape[static_cast<int>(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    ResumeAndWarmStart, PlatformShapeCheck,
    testing::Combine(testing::Values(Carry::kResume, Carry::kWarmStart),
                     testing::Values(Shape::kOppCount, Shape::kCoreCount,
                                     Shape::kOperatingPoints)),
    shape_check_name);

TEST(CheckpointResume, PositionBeyondRunLengthRejected) {
  const auto calibration = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_streaming_app(*calibration, 60);
  const std::string ckpt = temp_path("beyond.ckpt");
  {
    const auto platform = hw::Platform::odroid_xu3_a15();
    const auto governor = make_governor("ondemand");
    RunOptions options;
    options.max_frames = 60;
    options.checkpoint_path = ckpt;
    const wl::Application run_app(app);
    (void)run_simulation(*platform, run_app, *governor, options);
  }
  const auto platform = hw::Platform::odroid_xu3_a15();
  const auto governor = make_governor("ondemand");
  RunOptions options;
  options.max_frames = 30;  // shorter than the checkpoint's position
  options.resume_from = ckpt;
  const wl::Application run_app(app);
  EXPECT_THROW((void)run_simulation(*platform, run_app, *governor, options),
               std::invalid_argument);
}

TEST(RunOptionsValidation, CheckpointEveryRequiresAPath) {
  const auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_streaming_app(*platform, 20);
  const auto governor = make_governor("performance");
  RunOptions options;
  options.max_frames = 20;
  options.checkpoint_every = 5;  // no checkpoint_path
  EXPECT_THROW((void)run_simulation(*platform, app, *governor, options),
               std::invalid_argument);
}

// --- CheckpointSink ----------------------------------------------------------

TEST(CheckpointSinkTest, PeriodicCadencePlusFinalSnapshot) {
  const auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_streaming_app(*platform, 100);
  const auto governor = make_governor("ondemand");
  const std::string path = temp_path("cadence.ckpt");
  const auto sink = make_sink("checkpoint(path=" + path + ",every=30)");
  auto* checkpoint_sink = dynamic_cast<CheckpointSink*>(sink.get());
  ASSERT_NE(checkpoint_sink, nullptr);
  EXPECT_EQ(checkpoint_sink->every(), 30u);

  RunOptions options;
  options.max_frames = 100;
  options.sinks = {sink.get()};
  (void)run_simulation(*platform, app, *governor, options);

  // Epochs 30/60/90 plus the final run-end snapshot.
  EXPECT_EQ(checkpoint_sink->snapshots_written(), 4u);
  const Checkpoint final_ck = Checkpoint::load_file(path);
  EXPECT_EQ(final_ck.frame_position, 100u);
  EXPECT_EQ(final_ck.governor, "ondemand");
}

TEST(CheckpointSinkTest, CompletedRunsCanBeExtended) {
  // The final run-end checkpoint turns "the run finished" into "the run can
  // continue": resume with a larger max_frames and the extension is
  // bit-identical to a straight longer run.
  const auto calibration = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_streaming_app(*calibration, 150);
  const std::string ckpt = temp_path("extend.ckpt");

  const auto platform_a = hw::Platform::odroid_xu3_a15();
  const auto governor_a = make_governor("rtm");
  RunOptions straight;
  straight.max_frames = 150;
  const wl::Application app_a(app);
  const RunResult reference =
      run_simulation(*platform_a, app_a, *governor_a, straight);

  const auto platform_b = hw::Platform::odroid_xu3_a15();
  const auto governor_b = make_governor("rtm");
  RunOptions first;
  first.max_frames = 100;
  first.checkpoint_path = ckpt;
  const wl::Application app_b(app);
  (void)run_simulation(*platform_b, app_b, *governor_b, first);

  const auto platform_c = hw::Platform::odroid_xu3_a15();
  const auto governor_c = make_governor("rtm");
  RunOptions extend;
  extend.max_frames = 150;
  extend.resume_from = ckpt;
  const wl::Application app_c(app);
  const RunResult extended =
      run_simulation(*platform_c, app_c, *governor_c, extend);

  expect_results_bitequal(reference, extended);
}

TEST(CheckpointSinkTest, BindsThroughSampleDecimation) {
  // sample(inner=checkpoint(...)) composes: the engine unwraps the
  // decimator to bind the nested sink, and the sample cadence gates how
  // often snapshots are taken (every 40th epoch here, checkpointing on each
  // forwarded one, plus the final run-end snapshot).
  const auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_streaming_app(*platform, 100);
  const auto governor = make_governor("ondemand");
  const std::string path = temp_path("sampled.ckpt");
  const auto sink =
      make_sink("sample(every=40,inner=checkpoint(path=" + path + ",every=1))");
  RunOptions options;
  options.max_frames = 100;
  options.sinks = {sink.get()};
  (void)run_simulation(*platform, app, *governor, options);
  auto* sample = dynamic_cast<SampleSink*>(sink.get());
  ASSERT_NE(sample, nullptr);
  auto* checkpoint_sink = dynamic_cast<CheckpointSink*>(&sample->inner());
  ASSERT_NE(checkpoint_sink, nullptr);
  // Forwarded epochs 0/40/80 plus the final run-end snapshot.
  EXPECT_EQ(checkpoint_sink->snapshots_written(), 4u);
  EXPECT_EQ(Checkpoint::load_file(path).frame_position, 100u);
}

TEST(CheckpointSinkTest, UnboundSinkFailsLoudlyAtRunBegin) {
  // Engines that never bind the sink (the multi-app engine) must produce a
  // clear error instead of a run that silently recorded nothing.
  const auto sink = make_sink("checkpoint(path=" + temp_path("unbound.ckpt") +
                              ")");
  RunContext ctx;
  EXPECT_THROW(sink->on_run_begin(ctx), std::logic_error);
}

TEST(CheckpointSinkTest, ThrowingRunUnbindsTheSnapshot) {
  // A run that dies mid-loop skips on_run_end, but the engine's scope guard
  // must still unbind the sink — reusing it afterwards has to hit the
  // loud unbound-use error, never a dangling binding into the dead frame.
  // At every=1 with one-frame blocks the source runs dry after five epochs,
  // with the fifth snapshot still being sealed in the background: unbinding
  // waits for it, so the file holds that last snapshot, sealed.
  wl::WorkloadTrace trace =
      wl::VideoTraceGenerator::h264_football().generate(5, 3);
  const wl::Application bounded(
      "bounded", [trace] { return std::make_unique<wl::TraceFrameSource>(trace); },
      30.0);
  for (const std::size_t every : {2, 1}) {
    SCOPED_TRACE(every);
    const std::string path = temp_path("throwing.ckpt");
    std::filesystem::remove(path);
    const auto platform = hw::Platform::odroid_xu3_a15();
    const auto governor = make_governor("performance");
    const auto sink = make_sink("checkpoint(path=" + path +
                                ",every=" + std::to_string(every) + ")");
    RunOptions options;
    options.max_frames = 10;  // exhausts the 5-frame source mid-run
    options.block_frames = every == 1 ? 1 : options.block_frames;
    options.sinks = {sink.get()};
    EXPECT_THROW((void)run_simulation(*platform, bounded, *governor, options),
                 std::out_of_range);
    RunContext ctx;
    EXPECT_THROW(sink->on_run_begin(ctx), std::logic_error);
    if (every == 1) {
      EXPECT_EQ(Checkpoint::load_file(path).frame_position, 5u);
      EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    }
  }
}

TEST(CheckpointSinkTest, EngineThrowOutranksAFailedBackgroundWrite) {
  // The fifth snapshot's background write fails (missing directory) while
  // the source runs dry on the next frame: the run throws the source's
  // error, and unbinding joins the failed write and logs it, not rethrows.
  wl::WorkloadTrace trace =
      wl::VideoTraceGenerator::h264_football().generate(5, 3);
  const wl::Application bounded(
      "bounded", [trace] { return std::make_unique<wl::TraceFrameSource>(trace); },
      30.0);
  const std::string path = temp_path("no-such-dir/outranked.ckpt");
  const auto platform = hw::Platform::odroid_xu3_a15();
  const auto governor = make_governor("performance");
  RunOptions options;
  options.max_frames = 10;
  options.block_frames = 1;
  options.checkpoint_path = path;
  options.checkpoint_every = 5;
  std::ostringstream log;
  common::Log::set_sink(&log);
  EXPECT_THROW((void)run_simulation(*platform, bounded, *governor, options),
               std::out_of_range);
  common::Log::set_sink(nullptr);
  EXPECT_NE(log.str().find(path), std::string::npos) << log.str();
}

TEST(CheckpointSinkTest, FailedWriteFailsTheRunByRunEnd) {
  // A checkpoint path under a missing directory. Whether the first failing
  // write is a periodic one sealed in the background or the synchronous
  // run-end one, the run throws its CheckpointError, naming the file, and
  // leaves no writer (or prefetch) thread behind.
  const std::string path = temp_path("no-such-dir/run.ckpt");
  constexpr std::size_t kFrames = 2000;
  const auto calibration = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_streaming_app(*calibration, kFrames);
  for (const std::size_t every : {1, 7, 0}) {
    SCOPED_TRACE(every);
    const std::size_t threads = testing_util::settled_thread_count();
    const auto platform = hw::Platform::odroid_xu3_a15();
    const auto governor = make_governor("rtm");
    RunOptions options;
    options.max_frames = kFrames;
    options.checkpoint_path = path;
    options.checkpoint_every = every;
    const wl::Application run_app(app);
    try {
      (void)run_simulation(*platform, run_app, *governor, options);
      ADD_FAILURE() << "expected CheckpointError";
    } catch (const CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(testing_util::thread_count_settling_at(threads), threads);
  }
}

TEST(CheckpointSinkTest, SpecValidation) {
  EXPECT_THROW((void)make_sink("checkpoint"), std::invalid_argument);
  EXPECT_THROW((void)make_sink("checkpoint(pth=x.ckpt)"),
               std::invalid_argument);
  EXPECT_THROW((void)make_sink("checkpoint(path=x.ckpt,every=-1)"),
               std::invalid_argument);
}

// --- Builder integration -----------------------------------------------------

TEST(BuilderCheckpoint, PerScenarioCheckpointsViaSpecFlags) {
  const std::string pattern = temp_path("sweep-{governor}.ckpt");
  const SweepResult sweep = ExperimentBuilder()
                                .workload("fft")
                                .governors({"pid", "ondemand"})
                                .frames(60)
                                .stream(true)
                                .oracle_baseline(false)
                                .checkpoint(pattern, 25)
                                .run();
  ASSERT_EQ(sweep.results.size(), 2u);
  const Checkpoint pid_ck = Checkpoint::load_file(temp_path("sweep-pid.ckpt"));
  EXPECT_EQ(pid_ck.frame_position, 60u);
  EXPECT_EQ(pid_ck.governor, "pid-slack");
  const Checkpoint ond_ck =
      Checkpoint::load_file(temp_path("sweep-ondemand.ckpt"));
  EXPECT_EQ(ond_ck.governor, "ondemand");
}

TEST(BuilderCheckpoint, NonUniqueCheckpointTargetsRejected) {
  ExperimentBuilder builder;
  builder.workload("fft")
      .governors({"pid", "ondemand"})
      .frames(40)
      .oracle_baseline(false)
      .checkpoint(temp_path("collide.ckpt"));  // no placeholder: collides
  EXPECT_THROW((void)builder.run(), std::invalid_argument);
}

}  // namespace
}  // namespace prime::sim
