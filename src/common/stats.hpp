/// \file stats.hpp
/// \brief Streaming statistics used by the metrics collector and tests.
///
/// `RunningStats` implements Welford's numerically-stable online algorithm;
/// `Histogram` is a fixed-bin-count histogram with percentile queries;
/// `MovingAverage` is a sliding-window mean used by reactive governors.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace prime::common {

class StateWriter;
class StateReader;

/// \brief Online mean/variance/min/max accumulator (Welford).
class RunningStats {
 public:
  /// \brief Add one observation.
  void add(double x) noexcept {
    if (n_ == 0) {
      min_ = x;
      max_ = x;
    } else {
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }
  /// \brief Merge another accumulator into this one (parallel-safe combine).
  void merge(const RunningStats& other) noexcept;
  /// \brief Reset to the empty state.
  void reset() noexcept;

  /// \brief Number of observations accumulated.
  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  /// \brief Arithmetic mean (0 if empty).
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// \brief Unbiased sample variance (0 if fewer than two samples).
  [[nodiscard]] double variance() const noexcept;
  /// \brief Sample standard deviation.
  [[nodiscard]] double stddev() const noexcept;
  /// \brief Smallest observation (+inf if empty).
  [[nodiscard]] double min() const noexcept { return min_; }
  /// \brief Largest observation (-inf if empty).
  [[nodiscard]] double max() const noexcept { return max_; }
  /// \brief Sum of all observations.
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(n_); }
  /// \brief Coefficient of variation (stddev/mean; 0 when mean is 0).
  [[nodiscard]] double cv() const noexcept;

  /// \brief Serialise the accumulator (checkpoint/resume).
  void save_state(StateWriter& out) const;
  /// \brief Restore state written by save_state().
  void load_state(StateReader& in);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// \brief Fixed-range, fixed-bin-count histogram with linear interpolation
///        percentile queries. Values outside [lo, hi) clamp to edge bins.
class Histogram {
 public:
  /// \brief Construct covering [lo, hi) with \p bins equal-width bins.
  ///        Requires bins >= 1 and hi > lo.
  Histogram(double lo, double hi, std::size_t bins);

  /// \brief Record one observation.
  void add(double x) noexcept;
  /// \brief Total number of recorded observations.
  [[nodiscard]] std::size_t count() const noexcept { return total_; }
  /// \brief Count in bin \p i.
  [[nodiscard]] std::size_t bin_count(std::size_t i) const;
  /// \brief Number of bins.
  [[nodiscard]] std::size_t bins() const noexcept { return counts_.size(); }
  /// \brief Lower range bound.
  [[nodiscard]] double lo() const noexcept { return lo_; }
  /// \brief Upper range bound (exclusive).
  [[nodiscard]] double hi() const noexcept { return hi_; }
  /// \brief Lower edge of bin \p i.
  [[nodiscard]] double bin_lo(std::size_t i) const;
  /// \brief Approximate value at percentile \p p in [0, 100].
  [[nodiscard]] double percentile(double p) const;

  /// \brief True when \p other covers the same [lo, hi) range with the same
  ///        bin count — the precondition for an exact merge.
  [[nodiscard]] bool bin_compatible(const Histogram& other) const noexcept;
  /// \brief Merge another histogram's counts into this one. Bin counts are
  ///        integers, so merging is exact, associative and order-invariant —
  ///        N shards' histograms fold into the same population histogram in
  ///        any grouping. Throws std::invalid_argument unless bin_compatible.
  void merge(const Histogram& other);
  /// \brief Operator form of merge().
  Histogram& operator+=(const Histogram& other);

  /// \brief Serialise range, bin counts and total (shard summaries).
  void save_state(StateWriter& out) const;
  /// \brief Restore state written by save_state(), replacing the current
  ///        range and counts. Throws SerialError on malformed payloads.
  void load_state(StateReader& in);

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::size_t total_ = 0;
};

/// \brief Exactly-mergeable sum of doubles on a fixed-point grid.
///
/// Floating-point addition is not associative, so folding per-device values
/// into per-shard sums and then merging shards would not be bit-identical to
/// one sequential fold — the property the fleet layer's 1-shard-vs-N-shard
/// differential demands. ExactSum therefore quantises each added value to a
/// 2^-50 grid (deterministic round-half-away, ~9e-16 absolute resolution)
/// and accumulates in a 128-bit integer: integer addition is exact,
/// associative and commutative, so any merge tree over any shard partition
/// yields the same bits. Values must be finite and below ~1.5e23 in
/// magnitude (std::invalid_argument otherwise).
class ExactSum {
 public:
  /// \brief Fractional bits of the fixed-point grid.
  static constexpr int kFracBits = 50;

  /// \brief Add one value (quantised to the grid).
  void add(double x);
  /// \brief Merge another accumulator — exact at any grouping or order.
  ExactSum& operator+=(const ExactSum& other) noexcept {
    acc_ += other.acc_;
    return *this;
  }
  /// \brief The accumulated sum, converted back to double.
  [[nodiscard]] double value() const noexcept;
  /// \brief True when nothing has been accumulated (sum is exactly 0).
  [[nodiscard]] bool zero() const noexcept { return acc_ == 0; }
  /// \brief Exact equality of the underlying fixed-point accumulator.
  [[nodiscard]] bool operator==(const ExactSum& other) const noexcept {
    return acc_ == other.acc_;
  }

  /// \brief Serialise the 128-bit accumulator (two u64 words).
  void save_state(StateWriter& out) const;
  /// \brief Restore state written by save_state().
  void load_state(StateReader& in);

 private:
  __int128 acc_ = 0;
};

/// \brief Sliding-window arithmetic mean over the last N samples.
class MovingAverage {
 public:
  /// \brief Construct with window capacity \p window (>= 1).
  explicit MovingAverage(std::size_t window);

  /// \brief Push a new sample, evicting the oldest once the window is full.
  void add(double x) noexcept;
  /// \brief Current mean over the populated window (0 if empty).
  [[nodiscard]] double mean() const noexcept;
  /// \brief Number of samples currently in the window.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// \brief Window capacity.
  [[nodiscard]] std::size_t capacity() const noexcept { return buf_.size(); }
  /// \brief True once the window holds `capacity()` samples.
  [[nodiscard]] bool full() const noexcept { return size_ == buf_.size(); }
  /// \brief Clear the window.
  void reset() noexcept;

 private:
  std::vector<double> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  double sum_ = 0.0;
};

/// \brief Mean absolute percentage error between two equally-sized series,
///        skipping entries where the reference is zero. Returns 0 if nothing
///        comparable.
[[nodiscard]] double mape(const std::vector<double>& actual,
                          const std::vector<double>& predicted);

}  // namespace prime::common
