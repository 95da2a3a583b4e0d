#include "wl/application.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/rng.hpp"

namespace prime::wl {

Application::Application(std::string name, WorkloadTrace trace, double fps,
                         std::size_t threads, double imbalance)
    : name_(std::move(name)),
      trace_(std::make_shared<const WorkloadTrace>(std::move(trace))),
      threads_(threads == 0 ? 1 : threads),
      imbalance_(std::clamp(imbalance, 0.0, 0.9)),
      source_factory_([stored = trace_] {
        return std::make_unique<TraceFrameSource>(stored);
      }) {
  if (fps <= 0.0) throw std::invalid_argument("Application: fps must be > 0");
  schedule_.emplace_back(0, fps);
}

Application::Application(std::string name, FrameSourceFactory source,
                         double fps, std::size_t threads, double imbalance)
    : name_(std::move(name)), threads_(threads == 0 ? 1 : threads),
      imbalance_(std::clamp(imbalance, 0.0, 0.9)),
      source_factory_(std::move(source)) {
  if (fps <= 0.0) throw std::invalid_argument("Application: fps must be > 0");
  if (!source_factory_) {
    throw std::invalid_argument("Application: frame source factory required");
  }
  schedule_.emplace_back(0, fps);
}

Application::Application(const Application& other)
    : name_(other.name_), trace_(other.trace_), threads_(other.threads_),
      imbalance_(other.imbalance_), mem_fraction_(other.mem_fraction_),
      schedule_(other.schedule_), source_factory_(other.source_factory_) {
  // source_/current_frame_/current_ stay at their defaults: the copy's
  // replay cursor is fresh, independent of how far the original has read.
}

Application& Application::operator=(const Application& other) {
  if (this != &other) {
    name_ = other.name_;
    trace_ = other.trace_;
    threads_ = other.threads_;
    imbalance_ = other.imbalance_;
    mem_fraction_ = other.mem_fraction_;
    schedule_ = other.schedule_;
    source_factory_ = other.source_factory_;
    source_.reset();
    current_frame_ = kNoFrame;
  }
  return *this;
}

void Application::add_requirement_change(std::size_t frame, double fps) {
  if (fps <= 0.0) throw std::invalid_argument("Application: fps must be > 0");
  // Keep the schedule sorted with at most one entry per frame. An unstable
  // sort over duplicate frames would resolve ties arbitrarily; replacing on
  // equal frame makes the last-added change win, deterministically.
  const auto it = std::lower_bound(
      schedule_.begin(), schedule_.end(), frame,
      [](const auto& entry, std::size_t f) { return entry.first < f; });
  if (it != schedule_.end() && it->first == frame) {
    it->second = fps;
  } else {
    schedule_.insert(it, {frame, fps});
  }
}

const WorkloadTrace& Application::trace() const noexcept {
  static const WorkloadTrace kEmpty;
  return trace_ ? *trace_ : kEmpty;
}

const FrameDemand& Application::demand_at(std::size_t frame) const {
  if (frame == current_frame_) return current_;
  skip_to(frame);
  std::optional<FrameDemand> next = source_->next();
  if (!next) {
    throw std::out_of_range("Application '" + name_ +
                            "': frame source exhausted at frame " +
                            std::to_string(frame));
  }
  current_ = *next;
  current_frame_ = frame;
  return current_;
}

void Application::skip_to(std::size_t frame) const {
  if (source_ == nullptr || source_->position() > frame) {
    // Rewind: deterministic sources restart from their seed, so re-creating
    // the source replays the identical sequence (repeat runs start here).
    source_ = source_factory_();
  }
  if (!source_->skip_to(frame)) {
    throw std::out_of_range("Application '" + name_ +
                            "': frame source exhausted at frame " +
                            std::to_string(source_->position()) +
                            " while skipping to " + std::to_string(frame));
  }
}

void Application::set_mem_fraction(double m) noexcept {
  mem_fraction_ = std::clamp(m, 0.0, 0.9);
}

PerformanceRequirement Application::requirement_at(std::size_t frame) const {
  double fps = schedule_.front().second;
  for (const auto& [start, f] : schedule_) {
    if (start <= frame) fps = f;
    else break;
  }
  return PerformanceRequirement{fps};
}

std::vector<common::Cycles> Application::core_work(std::size_t frame,
                                                   std::size_t cores) const {
  std::vector<common::Cycles> work(cores, 0);
  if (cores == 0 || (trace_ && trace_->empty())) return work;
  split_total_into(frame, static_cast<double>(demand_at(frame).cycles), cores,
                   work.data());
  return work;
}

void Application::split_total_into(std::size_t frame, double total,
                                   std::size_t cores,
                                   common::Cycles* out) const {
  const std::size_t workers =
      std::min(threads_, std::max<std::size_t>(1, cores));

  // Deterministic per-(frame, worker) imbalance: hash through SplitMix64 so
  // replays are independent of call order. The share of worker j is a pure
  // function of (frame, j), so the second pass recomputes each share
  // bit-identically instead of keeping a materialised share vector.
  auto share_of = [this, frame](std::size_t j) {
    std::uint64_t h = frame * 0x9E3779B97F4A7C15ULL + j + 1;
    const double u =
        static_cast<double>(common::splitmix64_next(h) >> 11) * 0x1.0p-53;
    return 1.0 + imbalance_ * (2.0 * u - 1.0);
  };
  double sum = 0.0;
  for (std::size_t j = 0; j < workers; ++j) sum += share_of(j);
  for (std::size_t j = 0; j < workers; ++j) {
    out[j] = static_cast<common::Cycles>(total * share_of(j) / sum);
  }
}

void Application::fill_block(std::size_t start, std::size_t frames,
                             std::size_t cores, FrameBlock& block) const {
  block.reshape(frames, cores);
  block.start = start;
  block.mem_fraction = mem_fraction_;
  for (std::size_t i = 0; i < frames; ++i) {
    block.periods[i] = deadline_at(start + i);
  }

  if (cores == 0 || (trace_ && trace_->empty())) {
    std::fill(block.work.begin(), block.work.end(), common::Cycles{0});
  } else {
    skip_to(start);
    const std::size_t got = source_->next_block(block.raw.data(), frames);
    if (got > 0) {
      current_ = block.raw[got - 1];
      current_frame_ = start + got - 1;
    }
    if (got < frames) {
      throw std::out_of_range("Application '" + name_ +
                              "': frame source exhausted at frame " +
                              std::to_string(start + got));
    }
    for (std::size_t i = 0; i < frames; ++i) {
      common::Cycles* row = block.row(i);
      std::fill_n(row, cores, common::Cycles{0});
      split_total_into(start + i, static_cast<double>(block.raw[i].cycles),
                       cores, row);
    }
  }

  // Per-frame demand is the sum of the row's split (not the raw frame
  // cycles): integer truncation in the split makes the sum slightly smaller,
  // and the engine has always reported the split sum.
  for (std::size_t i = 0; i < frames; ++i) {
    const common::Cycles* row = block.row(i);
    common::Cycles d = 0;
    for (std::size_t j = 0; j < cores; ++j) d += row[j];
    block.demand[i] = d;
  }
}

}  // namespace prime::wl
