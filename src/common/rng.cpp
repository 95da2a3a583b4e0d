#include "common/rng.hpp"

#include <cmath>

#include "common/serial.hpp"

namespace prime::common {
namespace {

[[nodiscard]] constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t derive_seed(std::uint64_t base_seed,
                          std::uint64_t stream_index) noexcept {
  // Jump the splitmix64 state walk directly to the stream_index-th step
  // (the walk is a constant-gamma stride), then take one output.
  std::uint64_t state = base_seed + stream_index * 0x9E3779B97F4A7C15ULL;
  return splitmix64_next(state);
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64_next(sm);
  // xoshiro must not start from the all-zero state.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 0x9E3779B97F4A7C15ULL;
  }
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 top bits -> double in [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  if (lo >= hi) return lo;
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  // Rejection-free Lemire-style multiply-shift would bias negligibly for our
  // span sizes; use simple modulo with 64-bit source, bias < 2^-40 here.
  return lo + static_cast<std::int64_t>(next_u64() % span);
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller with guards against log(0).
  double u1 = uniform();
  if (u1 < 1.0e-300) u1 = 1.0e-300;
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  cached_normal_ = radius * std::sin(theta);
  has_cached_normal_ = true;
  return radius * std::cos(theta);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

NormalDraw Rng::draw_normal(double mean, double stddev) noexcept {
  const double value = normal(mean, stddev);
  return {value, cached_normal_};
}

void Rng::skip_normal(const NormalDraw& draw) noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return;
  }
  (void)next_u64();
  (void)next_u64();
  cached_normal_ = draw.cached;
  has_cached_normal_ = true;
}

double Rng::exponential(double rate) noexcept {
  double u = uniform();
  if (u < 1.0e-300) u = 1.0e-300;
  return -std::log(u) / rate;
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

std::size_t Rng::discrete(const double* weights, std::size_t count) noexcept {
  double total = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    total += (weights[i] > 0.0 ? weights[i] : 0.0);
  }
  if (count == 0) return 0;
  if (total <= 0.0) return count - 1;
  double target = uniform() * total;
  for (std::size_t i = 0; i < count; ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (target < w) return i;
    target -= w;
  }
  return count - 1;
}

Rng Rng::fork() noexcept {
  return Rng{next_u64() ^ 0xA3EC647659359ACDULL};
}

void Rng::save_state(StateWriter& out) const {
  for (const std::uint64_t word : state_) out.u64(word);
  out.f64(cached_normal_);
  out.boolean(has_cached_normal_);
}

void Rng::load_state(StateReader& in) {
  for (std::uint64_t& word : state_) word = in.u64();
  cached_normal_ = in.f64();
  has_cached_normal_ = in.boolean();
}

}  // namespace prime::common
