/// \file test_frame_block.cpp
/// \brief The batched hot path's equivalence contracts: FrameSource::next_block
///        yields exactly what repeated next() yields, Application::fill_block
///        reproduces core_work()/deadline_at() row for row, and — the headline
///        differential — the engine produces bit-identical results, records
///        and `.bt` bytes at every block size for every registered governor,
///        including a checkpoint cut mid-block — with the block-prefetch
///        helper thread engaged and without it.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/hash.hpp"
#include "run_digest.hpp"
#include "sim/bintrace.hpp"
#include "sim/block_prefetch.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/telemetry.hpp"
#include "wl/application.hpp"
#include "wl/frame_block.hpp"
#include "wl/frame_source.hpp"
#include "wl/trace.hpp"

namespace prime::sim {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

wl::Application make_streaming_app(const hw::Platform& platform,
                                   std::size_t frames) {
  ExperimentSpec spec;
  spec.workload = "h264";
  spec.fps = 30.0;
  spec.frames = frames;
  spec.stream = true;
  return make_application(spec, platform);
}

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

void expect_records_bitequal(const EpochRecord& a, const EpochRecord& b) {
  unsigned char ea[kBinTraceRecordSize];
  unsigned char eb[kBinTraceRecordSize];
  encode_record(a, ea);
  encode_record(b, eb);
  EXPECT_EQ(std::memcmp(ea, eb, sizeof(ea)), 0) << "epoch " << a.epoch;
}

// --- FrameSource::next_block ------------------------------------------------

wl::WorkloadTrace small_trace() {
  std::vector<wl::FrameDemand> frames;
  for (std::size_t i = 0; i < 23; ++i) {
    frames.push_back(wl::FrameDemand{1000 + 37 * i, wl::FrameKind::kGeneric});
  }
  return wl::WorkloadTrace("t", std::move(frames));
}

TEST(FrameSourceBlock, TraceSourceBlockMatchesRepeatedNext) {
  // Pull the same bounded trace frame by frame and in ragged batches: the
  // sequences must match element for element, and both must exhaust at the
  // trace end with the same position.
  wl::TraceFrameSource scalar(small_trace());
  wl::TraceFrameSource batched(small_trace());

  std::vector<wl::FrameDemand> via_next;
  while (auto f = scalar.next()) via_next.push_back(*f);

  std::vector<wl::FrameDemand> via_block;
  std::vector<wl::FrameDemand> buf(7);
  for (;;) {
    const std::size_t got = batched.next_block(buf.data(), buf.size());
    via_block.insert(via_block.end(), buf.begin(),
                     buf.begin() + static_cast<std::ptrdiff_t>(got));
    if (got < buf.size()) break;
  }

  ASSERT_EQ(via_block.size(), via_next.size());
  for (std::size_t i = 0; i < via_next.size(); ++i) {
    EXPECT_EQ(via_block[i].cycles, via_next[i].cycles) << "frame " << i;
    EXPECT_EQ(via_block[i].kind, via_next[i].kind) << "frame " << i;
  }
  EXPECT_EQ(batched.position(), scalar.position());
  EXPECT_EQ(batched.next_block(buf.data(), buf.size()), 0u);
}

TEST(FrameSourceBlock, ScaledSourceBlockMatchesRepeatedNext) {
  const auto make = [] {
    return std::make_unique<wl::TraceFrameSource>(small_trace());
  };
  wl::ScaledFrameSource scalar(make(), 1.6180339887);
  wl::ScaledFrameSource batched(make(), 1.6180339887);

  std::vector<wl::FrameDemand> via_next;
  while (auto f = scalar.next()) via_next.push_back(*f);

  std::vector<wl::FrameDemand> buf(5);
  std::size_t i = 0;
  for (;;) {
    const std::size_t got = batched.next_block(buf.data(), buf.size());
    for (std::size_t k = 0; k < got; ++k, ++i) {
      ASSERT_LT(i, via_next.size());
      EXPECT_EQ(buf[k].cycles, via_next[i].cycles) << "frame " << i;
    }
    if (got < buf.size()) break;
  }
  EXPECT_EQ(i, via_next.size());
}

TEST(FrameSourceBlock, GeneratorStreamBlockMatchesRepeatedNext) {
  // Generator streams have no block override (the default loops next()), but
  // the contract still holds across the virtual dispatch: identical draws,
  // identical positions.
  const auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_streaming_app(*platform, 100);
  const wl::Application scalar_app(app);  // private replay cursors
  std::vector<common::Cycles> scalar_demand;
  for (std::size_t i = 0; i < 100; ++i) {
    scalar_demand.push_back(scalar_app.frame_cycles(i));
  }
  const wl::Application batched_app(app);
  wl::FrameBlock block;
  std::size_t i = 0;
  while (i < 100) {
    const std::size_t n = std::min<std::size_t>(9, 100 - i);
    batched_app.fill_block(i, n, 4, block);
    for (std::size_t b = 0; b < n; ++b, ++i) {
      EXPECT_EQ(block.raw[b].cycles, scalar_demand[i]) << "frame " << i;
      const common::Cycles row_sum = std::accumulate(
          block.row(b), block.row(b) + block.cores, common::Cycles{0});
      EXPECT_EQ(block.demand[b], row_sum) << "frame " << i;
    }
  }
}

// --- Application::fill_block ------------------------------------------------

TEST(FrameBlockFill, MatchesCoreWorkAndDeadlinesForTraceApps) {
  const auto platform = hw::Platform::odroid_xu3_a15();
  ExperimentSpec spec;
  spec.workload = "h264";
  spec.fps = 30.0;
  spec.frames = 60;
  const wl::Application app = make_application(spec, *platform);
  const std::size_t frames = app.frame_count();
  ASSERT_GT(frames, 0u);

  for (const std::size_t cores : {1u, 3u, 4u}) {
    SCOPED_TRACE(cores);
    wl::FrameBlock block;
    std::size_t i = 0;
    while (i < frames) {
      const std::size_t n = std::min<std::size_t>(11, frames - i);
      app.fill_block(i, n, cores, block);
      EXPECT_EQ(block.start, i);
      EXPECT_EQ(block.count, n);
      EXPECT_EQ(block.cores, cores);
      for (std::size_t b = 0; b < n; ++b) {
        const std::size_t frame = i + b;
        const std::vector<common::Cycles> expect = app.core_work(frame, cores);
        ASSERT_EQ(expect.size(), cores);
        for (std::size_t j = 0; j < cores; ++j) {
          EXPECT_EQ(block.row(b)[j], expect[j])
              << "frame " << frame << " core " << j;
        }
        EXPECT_EQ(block.demand[b],
                  std::accumulate(expect.begin(), expect.end(),
                                  common::Cycles{0}))
            << "frame " << frame;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(block.periods[b]),
                  std::bit_cast<std::uint64_t>(app.deadline_at(frame)))
            << "frame " << frame;
      }
      i += n;
    }
  }
}

TEST(FrameBlockFill, MatchesCoreWorkForStreamingApps) {
  // Streaming pulls are single-pass, so compare two private replay cursors of
  // the same application: one walked per frame, one walked in batches.
  const auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_streaming_app(*platform, 80);
  constexpr std::size_t kFrames = 80;
  constexpr std::size_t kCores = 4;

  const wl::Application scalar(app);
  std::vector<std::vector<common::Cycles>> expect;
  for (std::size_t i = 0; i < kFrames; ++i) {
    expect.push_back(scalar.core_work(i, kCores));
  }

  const wl::Application batched(app);
  wl::FrameBlock block;
  std::size_t i = 0;
  while (i < kFrames) {
    const std::size_t n = std::min<std::size_t>(13, kFrames - i);
    batched.fill_block(i, n, kCores, block);
    for (std::size_t b = 0; b < n; ++b) {
      for (std::size_t j = 0; j < kCores; ++j) {
        EXPECT_EQ(block.row(b)[j], expect[i + b][j])
            << "frame " << i + b << " core " << j;
      }
    }
    i += n;
  }
}

// --- Engine differential: every block size, every governor ------------------

/// Long enough to engage the engine's prefetch helper.
constexpr std::size_t kLongRun = 4096;
static_assert(kLongRun >= kMinPrefetchFrames);

/// True when the host has a spare hardware thread for the helper; on a
/// single-thread host every run stays on the engine thread.
bool helper_can_engage() { return std::thread::hardware_concurrency() >= 2; }

/// Asserts that \p run engaged the helper exactly when \p expect and the
/// host allows it; returns what \p run returned.
template <typename Run>
auto expect_helper(bool expect, Run&& run) {
  const std::size_t before = BlockPrefetcher::threaded_runs();
  auto result = run();
  EXPECT_EQ(BlockPrefetcher::threaded_runs() - before,
            expect && helper_can_engage() ? 1u : 0u);
  return result;
}

/// Committed run_digest()s of each registered governor's block_frames=0 run
/// (aggregates and every record) at the two lengths below. The block sizes
/// are checked against each other; these pins catch a change to the epoch
/// kernels that moves the same bit at every block size.
struct BlockPin {
  const char* governor;
  std::size_t frames;
  std::uint64_t digest;
};

constexpr BlockPin kBlockPins[] = {
    {"conservative", 200, 0x16d04725068c6e5fULL},
    {"mcdvfs", 200, 0xe3939bbbb52c454bULL},
    {"ondemand", 200, 0x4bc9d0473f3647c1ULL},
    {"oracle", 200, 0x2f06de1df890203fULL},
    {"performance", 200, 0xff789ffc28dd3f61ULL},
    {"pid", 200, 0x9dc4a1157de5a381ULL},
    {"powersave", 200, 0xc48d45789be4dc17ULL},
    {"rtm", 200, 0x0d5d9b08eba04853ULL},
    {"rtm-manycore", 200, 0x9c6455aac80cab3dULL},
    {"rtm-manycore-normalized", 200, 0x54ad0ce731034eb2ULL},
    {"rtm-thermal", 200, 0xdbd8d5ff45c9ef20ULL},
    {"rtm-upd", 200, 0x1c8dd0739300539fULL},
    {"schedutil", 200, 0xa03e66812a167859ULL},
    {"shen-rl", 200, 0xcf3787e6b03c0589ULL},
    {"thermal-cap", 200, 0xdbd8d5ff45c9ef20ULL},
    {"userspace", 200, 0x992741db65abe2f4ULL},
    {"conservative", kLongRun, 0xb79f4ba4d2d2e4f8ULL},
    {"mcdvfs", kLongRun, 0x311d061ac311bb60ULL},
    {"ondemand", kLongRun, 0xf4208abe9fc97b6eULL},
    {"oracle", kLongRun, 0xd43a8d62103a6ad8ULL},
    {"performance", kLongRun, 0x711b235faca5db51ULL},
    {"pid", kLongRun, 0xd8bab3e7ac2e08a4ULL},
    {"powersave", kLongRun, 0xcce99d6eff9d87ccULL},
    {"rtm", kLongRun, 0x2beee8fdd9af907fULL},
    {"rtm-manycore", kLongRun, 0xb8469fa934c9d5caULL},
    {"rtm-manycore-normalized", kLongRun, 0x17e6a6b601bf7effULL},
    {"rtm-thermal", kLongRun, 0xa070dc96143420f7ULL},
    {"rtm-upd", kLongRun, 0xb2d5aa3b3dc1ab37ULL},
    {"schedutil", kLongRun, 0x4c3e03bd0fcc3cc6ULL},
    {"shen-rl", kLongRun, 0x9c0595e045d58088ULL},
    {"thermal-cap", kLongRun, 0xa070dc96143420f7ULL},
    {"userspace", kLongRun, 0x309bff76b2c5ce13ULL},
};

/// The pin for \p governor at \p frames; a registered governor without one
/// fails the test rather than going unpinned.
std::uint64_t block_pin_for(const std::string& governor, std::size_t frames) {
  for (const BlockPin& p : kBlockPins) {
    if (governor == p.governor && frames == p.frames) return p.digest;
  }
  ADD_FAILURE() << "no pin for governor " << governor << " at " << frames
                << " frames";
  return 0;
}

TEST(BatchedEngine, BitIdenticalAcrossBlockSizesForEveryRegisteredGovernor) {
  // The tentpole contract: block size is an execution-strategy knob, never an
  // observable one. For every registered governor, block_frames=0 (one-frame
  // blocks, never prefetched) and runs at block 1, an odd straggler-producing
  // 7, a larger 256 and a bigger-than-the-run block must agree bit for bit —
  // aggregates and every epoch record. A 200-frame run is too short for the
  // prefetch helper, so it pins the engine-thread batched path. A
  // kLongRun-frame run engages the helper at every block size that splits
  // it; block 1 stresses the handoff (a ring of 512 one-frame blocks, the
  // helper parked and woken every 256 frames).
  const auto calibration = hw::Platform::odroid_xu3_a15();
  for (const std::size_t frames : {std::size_t{200}, kLongRun}) {
    SCOPED_TRACE(frames);
    const wl::Application app = make_streaming_app(*calibration, frames);

    for (const std::string& name : governor_names()) {
      SCOPED_TRACE(name);

      const auto run_at = [&](std::size_t block_frames, TraceSink& trace) {
        const auto platform = hw::Platform::odroid_xu3_a15();
        const auto governor = make_governor(name);
        RunOptions options;
        options.max_frames = frames;
        options.block_frames = block_frames;
        options.sinks = {&trace};
        const wl::Application run_app(app);
        return run_simulation(*platform, run_app, *governor, options);
      };

      TraceSink scalar_trace;
      const RunResult scalar =
          expect_helper(false, [&] { return run_at(0, scalar_trace); });
      ASSERT_EQ(scalar_trace.records().size(), frames);
      const std::uint64_t digest =
          testing_util::run_digest(scalar, scalar_trace.records());
      EXPECT_EQ(digest, block_pin_for(name, frames))
          << std::hex << "run digest 0x" << digest;

      for (const std::size_t block : {std::size_t{1}, std::size_t{7},
                                      std::size_t{256}, 2 * kLongRun}) {
        SCOPED_TRACE(block);
        const bool threaded = frames >= kMinPrefetchFrames && block < frames;
        TraceSink trace;
        const RunResult batched =
            expect_helper(threaded, [&] { return run_at(block, trace); });
        expect_results_bitequal(scalar, batched);
        ASSERT_EQ(trace.records().size(), frames);
        for (std::size_t i = 0; i < frames; ++i) {
          expect_records_bitequal(scalar_trace.records()[i],
                                  trace.records()[i]);
        }
      }
    }
  }
}

TEST(BatchedEngine, BinTraceBytesAreIdenticalAcrossBlockSizes) {
  // The on-disk form of the same contract: the `.bt` a run writes is
  // byte-identical at every block size.
  constexpr std::size_t kFrames = 150;
  const auto calibration = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_streaming_app(*calibration, kFrames);

  const auto bt_at = [&](std::size_t block_frames, const std::string& path) {
    const auto platform = hw::Platform::odroid_xu3_a15();
    const auto governor = make_governor("rtm");
    const auto sink = make_sink("bintrace(path=" + path + ")");
    RunOptions options;
    options.max_frames = kFrames;
    options.block_frames = block_frames;
    options.sinks = {sink.get()};
    const wl::Application run_app(app);
    (void)run_simulation(*platform, run_app, *governor, options);
    return read_bytes(path);
  };

  const std::string scalar = bt_at(0, temp_path("block-scalar.bt"));
  ASSERT_FALSE(scalar.empty());
  common::Fnv1a64 bytes;
  bytes.bytes(scalar.data(), scalar.size());
  EXPECT_EQ(bytes.value(), 0x0ce3551071f24b9dULL)
      << std::hex << ".bt digest 0x" << bytes.value() << std::dec << " over "
      << scalar.size() << " bytes";
  EXPECT_EQ(bt_at(1, temp_path("block-1.bt")), scalar);
  EXPECT_EQ(bt_at(64, temp_path("block-64.bt")), scalar);
}

TEST(BatchedEngine, KillMidBlockResumeIsBitIdentical) {
  // A checkpoint cut that lands mid-block (173 stops inside the third
  // 64-frame batch): the resumed run must still be bit-identical to the
  // uninterrupted reference — prefetched-but-unexecuted frames must leave no
  // trace in the snapshot. The full run and the resumed one are long enough
  // to engage the prefetch helper, so this also pins the helper's resume
  // path (block 0 skips the stream to frame 173 on the engine thread).
  constexpr std::size_t kFull = 2400;
  constexpr std::size_t kStop = 173;
  constexpr std::size_t kBlock = 64;
  static_assert(kStop % kBlock != 0, "the cut must land mid-block");
  const auto calibration = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_streaming_app(*calibration, kFull);

  for (const std::string& name : governor_names()) {
    SCOPED_TRACE(name);

    const auto platform_full = hw::Platform::odroid_xu3_a15();
    const auto governor_full = make_governor(name);
    TraceSink full_trace;
    RunOptions full_options;
    full_options.max_frames = kFull;
    full_options.block_frames = kBlock;
    full_options.sinks = {&full_trace};
    const wl::Application app_full(app);
    const RunResult full = expect_helper(true, [&] {
      return run_simulation(*platform_full, app_full, *governor_full,
                            full_options);
    });

    const std::string ckpt = temp_path("midblock-" + name + ".ckpt");
    const auto platform_stop = hw::Platform::odroid_xu3_a15();
    const auto governor_stop = make_governor(name);
    RunOptions stop_options;
    stop_options.max_frames = kStop;
    stop_options.block_frames = kBlock;
    stop_options.checkpoint_path = ckpt;
    const wl::Application app_stop(app);
    (void)run_simulation(*platform_stop, app_stop, *governor_stop,
                         stop_options);

    const auto platform_resume = hw::Platform::odroid_xu3_a15();
    const auto governor_resume = make_governor(name);
    TraceSink tail_trace;
    RunOptions resume_options;
    resume_options.max_frames = kFull;
    resume_options.block_frames = kBlock;
    resume_options.resume_from = ckpt;
    resume_options.sinks = {&tail_trace};
    const wl::Application app_resume(app);
    const RunResult resumed = expect_helper(true, [&] {
      return run_simulation(*platform_resume, app_resume, *governor_resume,
                            resume_options);
    });

    expect_results_bitequal(full, resumed);
    ASSERT_EQ(tail_trace.records().size(), kFull - kStop);
    ASSERT_EQ(full_trace.records().size(), kFull);
    for (std::size_t i = 0; i < tail_trace.records().size(); ++i) {
      expect_records_bitequal(full_trace.records()[kStop + i],
                              tail_trace.records()[i]);
    }
  }
}

// --- Block prefetch helper ---------------------------------------------------

wl::Application make_finite_app(std::size_t available) {
  std::vector<wl::FrameDemand> frames;
  for (std::size_t i = 0; i < available; ++i) {
    frames.push_back(wl::FrameDemand{150'000'000 + 10'000 * (i % 97),
                                     wl::FrameKind::kGeneric});
  }
  const wl::WorkloadTrace trace("finite", std::move(frames));
  return wl::Application(
      "finite",
      [trace] { return std::make_unique<wl::TraceFrameSource>(trace); },
      30.0);
}

TEST(BlockPrefetch, HelperServesTheSameBlocksAsTheEngineThread) {
  // The prefetcher driven directly, from the start of a stream and from a
  // resume point mid-block: with and without the helper it must hand out
  // the same blocks, row for row.
  const auto calibration = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_streaming_app(*calibration, kLongRun);
  constexpr std::size_t kCores = 4;
  for (const std::size_t start : {std::size_t{0}, std::size_t{173}}) {
    for (const std::size_t block_frames :
         {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
      SCOPED_TRACE(::testing::Message() << "start " << start << " block "
                                        << block_frames);
      const wl::Application engine_app(app);
      const wl::Application helper_app(app);
      BlockPrefetcher engine({{&engine_app, kCores}}, start, kLongRun,
                             block_frames, false);
      BlockPrefetcher helper({{&helper_app, kCores}}, start, kLongRun,
                             block_frames, true);
      EXPECT_FALSE(engine.threaded());
      EXPECT_EQ(helper.threaded(), helper_can_engage());
      ASSERT_EQ(helper.blocks(), engine.blocks());
      for (std::size_t k = 0; k < engine.blocks(); ++k) {
        const wl::FrameBlock& want = engine.acquire(k)[0];
        const wl::FrameBlock& got = helper.acquire(k)[0];
        ASSERT_EQ(got.start, want.start) << "block " << k;
        ASSERT_EQ(got.count, want.count) << "block " << k;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.mem_fraction),
                  std::bit_cast<std::uint64_t>(want.mem_fraction));
        for (std::size_t b = 0; b < want.count; ++b) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got.periods[b]),
                    std::bit_cast<std::uint64_t>(want.periods[b]))
              << "frame " << want.start + b;
          EXPECT_EQ(got.demand[b], want.demand[b])
              << "frame " << want.start + b;
          EXPECT_TRUE(std::equal(want.row(b), want.row(b) + kCores, got.row(b)))
              << "frame " << want.start + b;
        }
        engine.release(k);
        helper.release(k);
      }
    }
  }
}

TEST(BlockPrefetch, ExhaustedSourceThrowsAtTheSameBlockWithAndWithoutHelper) {
  // A bounded stream that ends at frame 3000 of a 5000-frame run: the helper
  // hits the end while filling ahead, but acquire() must rethrow the same
  // error at the same block as when the engine thread fills every block.
  const wl::Application app = make_finite_app(3000);
  struct Outcome {
    std::string what;
    std::size_t block = 0;
  };
  const auto drain = [&](bool threaded) {
    const wl::Application run_app(app);
    BlockPrefetcher prefetch({{&run_app, 4}}, 0, 5000, 64, threaded);
    Outcome out;
    for (; out.block < prefetch.blocks(); ++out.block) {
      try {
        (void)prefetch.acquire(out.block);
      } catch (const std::out_of_range& e) {
        out.what = e.what();
        break;
      }
      prefetch.release(out.block);
    }
    return out;
  };
  const Outcome engine = drain(false);
  const Outcome helper = drain(true);
  EXPECT_NE(engine.what.find("frame source exhausted at frame 3000"),
            std::string::npos)
      << engine.what;
  EXPECT_EQ(engine.block, 3000u / 64);
  EXPECT_EQ(helper.what, engine.what);
  EXPECT_EQ(helper.block, engine.block);
}

TEST(PrefetchEngine, MultiDomainHelperRunsMatchEngineThreadRuns) {
  // On a multi-domain board block_frames=0 runs one-frame blocks on the
  // engine thread; the default block engages the helper. Every record must
  // agree.
  common::Config cfg;
  cfg.set_int("hw.clusters", 2);
  cfg.set_int("hw.cores", 2);
  const auto calibration = hw::Platform::from_config(cfg);
  const wl::Application app = make_streaming_app(*calibration, kLongRun);
  for (const std::string name : {"ondemand", "rtm"}) {
    SCOPED_TRACE(name);
    const auto run = [&](std::size_t block_frames, TraceSink& trace) {
      const auto platform = hw::Platform::from_config(cfg);
      const auto governor = make_governor(name);
      RunOptions options;
      options.max_frames = kLongRun;
      options.block_frames = block_frames;
      options.placement = "spread";
      options.sinks = {&trace};
      const wl::Application run_app(app);
      return run_simulation(*platform, run_app, *governor, options);
    };
    TraceSink reference_trace;
    const RunResult reference =
        expect_helper(false, [&] { return run(0, reference_trace); });
    const std::uint64_t digest =
        testing_util::run_digest(reference, reference_trace.records());
    EXPECT_EQ(digest, std::string(name) == "ondemand"
                          ? 0xdc9459dc2fca26f3ULL
                          : 0xf52e17a20f5651b4ULL)
        << std::hex << "reference digest 0x" << digest;
    TraceSink trace;
    const RunResult prefetched =
        expect_helper(true, [&] { return run(64, trace); });
    expect_results_bitequal(reference, prefetched);
    ASSERT_EQ(trace.records().size(), kLongRun);
    for (std::size_t i = 0; i < kLongRun; ++i) {
      expect_records_bitequal(reference_trace.records()[i],
                              trace.records()[i]);
    }
  }
}

TEST(PrefetchEngine, ExhaustedSourceThrowsAtTheSameFrameAsWithoutHelper) {
  // A finite stream exhausted mid-run: the error names the first missing
  // frame, and the run has executed exactly the whole blocks before it —
  // whether the engine thread (a run too short for the helper) or the
  // helper (a long one) hit the end.
  for (const auto& [available, frames] :
       {std::pair<std::size_t, std::size_t>{600, 900}, {3000, 5000}}) {
    SCOPED_TRACE(available);
    const wl::Application app = make_finite_app(available);
    std::size_t epochs = 0;
    std::string what;
    expect_helper(frames >= kMinPrefetchFrames, [&] {
      const auto platform = hw::Platform::odroid_xu3_a15();
      const auto governor = make_governor("ondemand");
      CallbackSink count(
          [&](const EpochRecord&, gov::Governor&) { ++epochs; });
      RunOptions options;
      options.max_frames = frames;
      options.sinks = {&count};
      try {
        (void)run_simulation(*platform, app, *governor, options);
      } catch (const std::out_of_range& e) {
        what = e.what();
      }
      return 0;
    });
    EXPECT_NE(what.find("frame source exhausted at frame " +
                        std::to_string(available)),
              std::string::npos)
        << what;
    EXPECT_EQ(epochs, available / 64 * 64);
  }
}

TEST(PrefetchEngine, SinkThrowJoinsHelperAndLeavesTheAppReusable) {
  // A sink that throws mid-run unwinds through the engine: the helper must
  // be stopped and joined (no hang, no std::terminate), and the next run on
  // the same Application — whose cursor the helper left ahead — must rewind
  // and reproduce a fresh run bit for bit.
  const auto calibration = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_streaming_app(*calibration, kLongRun);
  const auto run_on = [&](const wl::Application& target,
                          std::vector<TelemetrySink*> sinks) {
    const auto platform = hw::Platform::odroid_xu3_a15();
    const auto governor = make_governor("rtm");
    RunOptions options;
    options.max_frames = kLongRun;
    options.sinks = std::move(sinks);
    return run_simulation(*platform, target, *governor, options);
  };

  CallbackSink thrower([](const EpochRecord& record, gov::Governor&) {
    if (record.epoch == 1500) throw std::runtime_error("sink failed");
  });
  expect_helper(true, [&] {
    EXPECT_THROW((void)run_on(app, {&thrower}), std::runtime_error);
    return 0;
  });

  TraceSink again_trace;
  const RunResult again = run_on(app, {&again_trace});
  TraceSink fresh_trace;
  const wl::Application fresh_app(app);
  const RunResult fresh = run_on(fresh_app, {&fresh_trace});
  expect_results_bitequal(fresh, again);
  ASSERT_EQ(again_trace.records().size(), kLongRun);
  for (std::size_t i = 0; i < kLongRun; ++i) {
    expect_records_bitequal(fresh_trace.records()[i],
                            again_trace.records()[i]);
  }
}

TEST(PrefetchEngine, RunShorterThanOneBlockMatchesTheScalarLoop) {
  const auto calibration = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_streaming_app(*calibration, 10);
  const auto run_at = [&](std::size_t block_frames, TraceSink& trace) {
    const auto platform = hw::Platform::odroid_xu3_a15();
    const auto governor = make_governor("rtm");
    RunOptions options;
    options.max_frames = 10;
    options.block_frames = block_frames;
    options.sinks = {&trace};
    const wl::Application run_app(app);
    return run_simulation(*platform, run_app, *governor, options);
  };
  TraceSink scalar_trace;
  const RunResult scalar = run_at(0, scalar_trace);
  const std::uint64_t digest =
      testing_util::run_digest(scalar, scalar_trace.records());
  EXPECT_EQ(digest, 0xff757a0a67feef9cULL)
      << std::hex << "reference digest 0x" << digest;
  TraceSink trace;
  const RunResult batched =
      expect_helper(false, [&] { return run_at(64, trace); });
  EXPECT_EQ(batched.epoch_count, 10u);
  expect_results_bitequal(scalar, batched);
  ASSERT_EQ(trace.records().size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    expect_records_bitequal(scalar_trace.records()[i], trace.records()[i]);
  }
}

TEST(PrefetchEngine, RepeatRunsOnOneAppRewindTheCursor) {
  // Runs on one Application in sequence: each starts below where the last
  // left the cursor (the helper may have left it anywhere up to the run's
  // end), so block 0 must rewind the stream on the engine thread.
  const auto calibration = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_streaming_app(*calibration, kLongRun);
  const auto run_on = [&](const wl::Application& target, std::size_t frames) {
    const auto platform = hw::Platform::odroid_xu3_a15();
    const auto governor = make_governor("ondemand");
    RunOptions options;
    options.max_frames = frames;
    return run_simulation(*platform, target, *governor, options);
  };
  for (const std::size_t frames :
       {kLongRun, kLongRun / 2 + 37, kLongRun, std::size_t{3000}}) {
    SCOPED_TRACE(frames);
    const wl::Application fresh(app);
    expect_results_bitequal(run_on(fresh, frames),
                            expect_helper(true, [&] {
                              return run_on(app, frames);
                            }));
  }
}

TEST(PrefetchEngine, ShortRunsKeepTheHelperOff) {
  // Too short to amortise the thread, however idle the host.
  const auto calibration = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_streaming_app(*calibration, kLongRun);
  for (const std::size_t frames :
       {kMinPrefetchFrames - 1, kMinPrefetchFrames}) {
    SCOPED_TRACE(frames);
    const auto platform = hw::Platform::odroid_xu3_a15();
    const auto governor = make_governor("ondemand");
    RunOptions options;
    options.max_frames = frames;
    const wl::Application run_app(app);
    expect_helper(frames >= kMinPrefetchFrames, [&] {
      return run_simulation(*platform, run_app, *governor, options);
    });
  }
}

}  // namespace
}  // namespace prime::sim
