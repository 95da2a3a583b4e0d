#include "sim/block_prefetch.hpp"

#include <algorithm>
#include <atomic>
#include <system_error>

namespace prime::sim {

namespace {

/// Frames the ring holds ahead of the engine (ring slots = this over the
/// block size, at least kMinSlots). A helper parked on a full ring is woken
/// once half the ring is free, so at the default 64-frame block it sleeps
/// at most once per 256 frames.
constexpr std::size_t kRingFrames = 512;
constexpr std::size_t kMinSlots = 4;

std::atomic<std::size_t> g_threaded_runs{0};

}  // namespace

bool prefetch_pays_off(std::size_t frames) {
  static const unsigned hardware = std::thread::hardware_concurrency();
  return frames >= kMinPrefetchFrames && hardware >= 2;
}

BlockPrefetcher::BlockPrefetcher(std::vector<Source> sources,
                                 std::size_t start, std::size_t frames,
                                 std::size_t block_frames, bool threaded,
                                 const hw::PowerSensor* sensor)
    : sources_(std::move(sources)), start_(start), frames_(frames),
      block_frames_(block_frames),
      blocks_((frames - start + block_frames - 1) / block_frames),
      sensor_(sensor),
      noise_rng_(sensor != nullptr ? sensor->noise_rng() : common::Rng{}) {
  threaded = threaded && blocks_ > 1;
  const std::size_t ring_slots =
      threaded ? std::min(blocks_,
                          std::max(kMinSlots, kRingFrames / block_frames))
               : 1;
  ring_.assign(ring_slots, std::vector<wl::FrameBlock>(sources_.size()));
  noise_.resize(ring_slots);
  if (sensor_ != nullptr) {
    for (auto& terms : noise_) terms.resize(block_frames);
  }
  if (blocks_ > 0) fill(0);
  if (!threaded) return;
  for (std::size_t s = 1; s < ring_slots; ++s) {
    for (std::size_t j = 0; j < sources_.size(); ++j) {
      ring_[s][j].reshape(block_frames, sources_[j].cores);
    }
  }
  filled_ = 1;
  try {
    helper_ = std::thread([this] { run_helper(); });
    g_threaded_runs.fetch_add(1);
  } catch (const std::system_error&) {
    // No thread to be had (EAGAIN): acquire() fills every block itself.
  }
}

BlockPrefetcher::~BlockPrefetcher() {
  if (!helper_.joinable()) return;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  helper_wake_.notify_one();
  helper_.join();
}

std::span<wl::FrameBlock> BlockPrefetcher::acquire(std::size_t k) {
  if (!helper_.joinable()) {
    if (k > 0) fill(k);
  } else {
    std::unique_lock<std::mutex> lock(mutex_);
    engine_wake_.wait(lock, [&] { return filled_ > k || error_; });
    if (filled_ <= k) std::rethrow_exception(error_);
  }
  return ring_[k % ring_.size()];
}

void BlockPrefetcher::release(std::size_t k) {
  if (!helper_.joinable()) return;
  bool wake = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    released_ = k + 1;
    wake = half_free();
  }
  if (wake) helper_wake_.notify_one();
}

std::size_t BlockPrefetcher::threaded_runs() noexcept {
  return g_threaded_runs.load();
}

/// Fill block k into its ring slot, then draw its noise terms.
void BlockPrefetcher::fill(std::size_t k) {
  const std::size_t slot = k % ring_.size();
  const std::size_t first = start_ + k * block_frames_;
  const std::size_t count = std::min(block_frames_, frames_ - first);
  wl::FrameBlock* blocks = ring_[slot].data();
  for (const Source& source : sources_) {
    source.app->fill_block(first, count, source.cores, *blocks++);
  }
  if (sensor_ == nullptr) return;
  common::NormalDraw* terms = noise_[slot].data();
  for (std::size_t b = 0; b < count; ++b) {
    terms[b] = sensor_->draw_noise(noise_rng_);
  }
}

/// At least half the ring is free: when a parked helper resumes. Called
/// under the mutex.
bool BlockPrefetcher::half_free() const noexcept {
  return filled_ - released_ <= ring_.size() - ring_.size() / 2;
}

void BlockPrefetcher::run_helper() noexcept {
  for (std::size_t k = 1; k < blocks_; ++k) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (k - released_ >= ring_.size()) {
        helper_wake_.wait(lock, [&] { return stop_ || half_free(); });
      }
      if (stop_) return;
    }
    std::exception_ptr error;
    try {
      fill(k);
    } catch (...) {
      error = std::current_exception();
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (error) {
        error_ = error;
      } else {
        filled_ = k + 1;
      }
    }
    engine_wake_.notify_one();
    if (error) return;
  }
}

}  // namespace prime::sim
