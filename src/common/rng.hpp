/// \file rng.hpp
/// \brief Deterministic pseudo-random number generation for reproducible
///        simulation runs.
///
/// Every stochastic component of the simulator (workload generators, sensor
/// noise, exploration policies) draws from an explicitly-seeded `Rng` so that
/// each experiment in EXPERIMENTS.md is bit-reproducible. The generator is
/// xoshiro256** (Blackman & Vigna) seeded through SplitMix64, which is the
/// recommended seeding procedure and avoids correlated low-entropy seeds.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace prime::common {

class StateWriter;
class StateReader;

/// \brief One normal(mean, stddev) deviate drawn ahead on a copy of an Rng,
///        with what Rng::skip_normal() needs to advance the original in
///        lockstep without redoing the Box–Muller math.
struct NormalDraw {
  double value = 0.0;   ///< The deviate normal(mean, stddev) returned.
  double cached = 0.0;  ///< The Box–Muller half the draw left cached.
};

/// \brief SplitMix64 stepping function; used to expand a 64-bit seed into the
///        256-bit xoshiro state. Also usable as a cheap standalone generator.
/// \param state In/out 64-bit state, advanced by one step.
/// \return Next 64-bit output.
[[nodiscard]] std::uint64_t splitmix64_next(std::uint64_t& state) noexcept;

/// \brief Derive the seed of stream \p stream_index from \p base_seed in
///        O(1), independent of any other stream's derivation.
///
/// SplitMix64's k-th output is mix(base + (k+1)*gamma): the state walk is a
/// plain gamma stride, so jumping straight to index k and mixing once yields
/// exactly the output a sequential walk would — derive_seed(base, k) is the
/// (k+1)-th splitmix64_next() output from state=base. The fleet layer seeds
/// each simulated device with its *population-wide* device index, so a
/// device's seed (and therefore its entire simulated trajectory) never
/// depends on how the population was partitioned into shards.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base_seed,
                                        std::uint64_t stream_index) noexcept;

/// \brief Deterministic xoshiro256** generator with convenience samplers.
///
/// Not thread-safe; give each simulated component its own instance (use
/// `fork()` to derive decorrelated child streams).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// \brief Construct from a 64-bit seed (expanded via SplitMix64).
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  /// \brief Smallest value produced (UniformRandomBitGenerator requirement).
  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  /// \brief Largest value produced (UniformRandomBitGenerator requirement).
  [[nodiscard]] static constexpr result_type max() noexcept {
    return ~std::uint64_t{0};
  }

  /// \brief Next raw 64-bit output.
  [[nodiscard]] std::uint64_t next_u64() noexcept;
  /// \brief UniformRandomBitGenerator call operator.
  [[nodiscard]] result_type operator()() noexcept { return next_u64(); }

  /// \brief Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;
  /// \brief Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;
  /// \brief Uniform integer in [lo, hi] (inclusive); requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo,
                                         std::int64_t hi) noexcept;
  /// \brief Standard normal deviate (Box–Muller, cached pair).
  [[nodiscard]] double normal() noexcept;
  /// \brief Normal deviate with the given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) noexcept;
  /// \brief normal(mean, stddev), plus the cached half skip_normal() needs.
  [[nodiscard]] NormalDraw draw_normal(double mean, double stddev) noexcept;
  /// \brief Advance exactly as the normal() call behind \p draw advanced the
  ///        copy it was drawn on — two raw draws and the cached half on a new
  ///        pair, a cache clear otherwise — so this generator's state (and
  ///        save_state() bytes) match. Requires this generator to be in the
  ///        state that copy was in before the draw.
  void skip_normal(const NormalDraw& draw) noexcept;
  /// \brief Exponential deviate with the given rate (lambda > 0).
  [[nodiscard]] double exponential(double rate) noexcept;
  /// \brief Bernoulli trial returning true with probability \p p.
  [[nodiscard]] bool bernoulli(double p) noexcept;
  /// \brief Sample an index from an (unnormalised, non-negative) weight
  ///        vector. Returns weights.size()-1 on degenerate input.
  [[nodiscard]] std::size_t discrete(
      const std::vector<double>& weights) noexcept {
    return discrete(weights.data(), weights.size());
  }
  /// \brief discrete() over the \p count weights at \p weights, so callers
  ///        can sample from a buffer they own.
  [[nodiscard]] std::size_t discrete(const double* weights,
                                     std::size_t count) noexcept;

  /// \brief Derive a decorrelated child generator (splits the stream).
  [[nodiscard]] Rng fork() noexcept;

  /// \brief Serialise the full generator state (xoshiro words plus the
  ///        Box–Muller cache), so a restored generator continues the exact
  ///        output sequence — required for bit-identical checkpoint resume.
  void save_state(StateWriter& out) const;
  /// \brief Restore state written by save_state().
  void load_state(StateReader& in);

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace prime::common
