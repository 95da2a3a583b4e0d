/// \file rounding.hpp
/// \brief Exact round-half-away-from-zero of a scaled demand to cycles.
///
/// Calibration scales every frame's cycle demand by a constant factor and
/// rounds to nearest (wl::WorkloadTrace::scaled_to_mean and
/// wl::ScaledFrameSource), so a materialised trace and a streamed source
/// built from the same frames stay frame-for-frame identical. Both round
/// through `round_cycles`, which gives `std::llround`'s value without a libm
/// call on the range demands live in.
#pragma once

#include "common/units.hpp"

namespace prime::common {

/// \brief The out-of-line branch of round_cycles(): `std::llround(x)` when
///        the result is a cycle count llround can represent, otherwise
///        std::out_of_range naming \p x (a negative result, one of 2^63 or
///        more, or NaN).
[[nodiscard]] Cycles round_cycles_fallback(double x);

/// \brief \p x rounded to the nearest integer, halves away from zero: the
///        value `std::llround(x)` returns. For 0 <= x < 2^52 it truncates and
///        compares the fractional part, which the subtraction gives exactly,
///        with 0.5; every other input takes round_cycles_fallback(), so a
///        demand that does not fit Cycles throws std::out_of_range.
[[nodiscard]] inline Cycles round_cycles(double x) {
  if (x >= 0.0 && x < 0x1p52) {
    const auto whole = static_cast<Cycles>(x);
    // Adding the comparison keeps the half-way test free of a branch, which
    // random fractional parts would mispredict half the time.
    return whole + static_cast<Cycles>(x - static_cast<double>(whole) >= 0.5);
  }
  return round_cycles_fallback(x);
}

}  // namespace prime::common
