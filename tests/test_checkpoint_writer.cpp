/// \file test_checkpoint_writer.cpp
/// \brief The CheckpointSink's background snapshot write: destroying the
///        sink finishes the write in flight, a failed write surfaces at the
///        next snapshot and at run end, and unbinding waits for the write.
///        The sink is driven through its hooks directly, so a test can hold
///        a write in flight.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "common/log.hpp"
#include "gov/governor.hpp"
#include "hw/platform.hpp"
#include "sim/checkpoint.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/telemetry.hpp"
#include "thread_count.hpp"

namespace prime::sim {
namespace {

std::string fresh_path(const std::string& name) {
  const std::string path = testing::TempDir() + "ckpt-writer-" + name;
  std::filesystem::remove_all(path);
  std::filesystem::remove_all(path + ".tmp");
  return path;
}

using testing_util::settled_thread_count;
using testing_util::thread_count;
using testing_util::thread_count_settling_at;

/// A live run to bind a sink to by hand: board, governor, application,
/// aggregates and pending observation, as run_simulation would lend them.
struct Rig {
  std::unique_ptr<hw::Platform> platform = hw::Platform::odroid_xu3_a15();
  std::unique_ptr<gov::Governor> governor = make_governor("rtm");
  wl::Application app = [this] {
    ExperimentSpec spec;
    spec.workload = "h264";
    spec.fps = 30.0;
    spec.frames = 100;
    return make_application(spec, *platform);
  }();
  RunResult result;
  std::optional<gov::EpochObservation> last;
  RunBinding binding{*platform, *governor, app, result, last, ""};

  /// Bind \p sink, begin a run and emit one epoch at frame position \p at.
  void snapshot_at(CheckpointSink& sink, std::size_t at) {
    if (result.epoch_count == 0) {
      sink.bind(&binding);
      sink.on_run_begin(RunContext{});
    }
    result.epoch_count = at;
    sink.on_epoch(EpochRecord{}, *governor);
  }
};

/// Replace `path.tmp` by a FIFO, so a write to \p path blocks in its open
/// until drain() opens the read end, and then fails at the seal (a FIFO
/// cannot seek).
class BlockingTarget {
 public:
  explicit BlockingTarget(const std::string& path) : fifo_(path + ".tmp") {
    EXPECT_EQ(::mkfifo(fifo_.c_str(), 0600), 0) << fifo_;
  }

  /// Read what the writer sends until it closes its end, then wait for the
  /// failed write to remove the FIFO.
  void drain() {
    std::ifstream in(fifo_, std::ios::binary);
    (void)std::string(std::istreambuf_iterator<char>(in), {});
    while (std::filesystem::exists(fifo_)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

 private:
  std::string fifo_;
};

TEST(CheckpointWriter, DestroyingTheSinkFinishesTheWriteInFlight) {
  const std::string path = fresh_path("destroyed.ckpt");
  const std::size_t threads = settled_thread_count();
  for (std::size_t at = 1; at <= 20; ++at) {
    SCOPED_TRACE(at);
    Rig rig;
    auto sink = std::make_unique<CheckpointSink>(path, 1);
    rig.snapshot_at(*sink, at);
    sink.reset();  // bound, with the write just posted
    EXPECT_EQ(Checkpoint::load_file(path).frame_position, at);
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    EXPECT_EQ(thread_count_settling_at(threads), threads);
  }
}

TEST(CheckpointWriter, FailedWriteSurfacesAtTheNextSnapshot) {
  // The next snapshot waits for the failed one before it is taken; its
  // own write goes to the writer, so a throw here is the earlier failure.
  const std::string path = fresh_path("no-such-dir/next.ckpt");
  Rig rig;
  CheckpointSink sink(path, 1);
  rig.snapshot_at(sink, 1);
  try {
    rig.snapshot_at(sink, 2);
    ADD_FAILURE() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(sink.snapshots_written(), 1u);
  sink.bind(nullptr);
}

TEST(CheckpointWriter, FailedWriteSurfacesAtRunEnd) {
  // The background write fails, then the path becomes writable: run end's
  // own synchronous write would succeed, so only the earlier failure can
  // make it throw.
  const std::string path = fresh_path("run-end.ckpt");
  BlockingTarget target(path);
  Rig rig;
  CheckpointSink sink(path, 1);
  rig.snapshot_at(sink, 3);
  target.drain();
  try {
    sink.on_run_end(rig.result);
    ADD_FAILURE() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("while sealing"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(sink.snapshots_written(), 1u);
  EXPECT_FALSE(std::filesystem::exists(path));
  // The error was delivered once; the next run-end write seals the file.
  sink.on_run_end(rig.result);
  EXPECT_EQ(Checkpoint::load_file(path).frame_position, 3u);
  sink.bind(nullptr);
}

TEST(CheckpointWriter, UnbindingWaitsForTheWrite) {
  const std::string path = fresh_path("unbind.ckpt");
  BlockingTarget target(path);
  Rig rig;
  CheckpointSink sink(path, 1);
  rig.snapshot_at(sink, 4);
  std::ostringstream log;
  common::Log::set_sink(&log);
  std::atomic<bool> unbound{false};
  std::thread unbind([&] {
    sink.bind(nullptr);
    unbound = true;
  });
  // The write is parked in its open until the FIFO is read.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(unbound);
  target.drain();
  unbind.join();
  common::Log::set_sink(nullptr);
  EXPECT_TRUE(unbound);
  // Unbinding logs the failed write instead of throwing it.
  EXPECT_NE(log.str().find("while sealing"), std::string::npos) << log.str();
  EXPECT_THROW(sink.on_run_begin(RunContext{}), std::logic_error);
}

}  // namespace
}  // namespace prime::sim
