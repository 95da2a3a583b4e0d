/// \file test_rounding.cpp
/// \brief common::round_cycles against std::llround: the same value on every
///        input llround represents as a cycle count, and std::out_of_range on
///        the rest.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/rounding.hpp"

namespace prime::common {
namespace {

void expect_like_llround(double x) {
  EXPECT_EQ(round_cycles(x), static_cast<Cycles>(std::llround(x)))
      << "x = " << std::hexfloat << x;
}

/// x and both of its nextafter neighbours.
void expect_like_llround_around(double x) {
  expect_like_llround(std::nextafter(x, 0.0));
  expect_like_llround(x);
  expect_like_llround(std::nextafter(x, 0x1p62));
}

TEST(RoundCycles, HalvesRoundAwayFromZeroLikeLlround) {
  for (double k = 0.0; k < 64.0; k += 1.0) expect_like_llround_around(k + 0.5);
  for (const double k : {1e6, 1e9, 123456789.0, 0x1p40, 0x1p51 + 3.0}) {
    expect_like_llround_around(k + 0.5);
  }
  EXPECT_EQ(round_cycles(0.5), 1u);
  EXPECT_EQ(round_cycles(2.5), 3u);
  EXPECT_EQ(round_cycles(std::nextafter(0.5, 0.0)), 0u);
}

TEST(RoundCycles, MatchesLlroundAtTheFastPathsEdge) {
  expect_like_llround_around(0x1p52 - 0.5);
  expect_like_llround_around(0x1p52);
  expect_like_llround_around(0x1p53 + 2.0);
  expect_like_llround_around(0x1p62);
  EXPECT_EQ(round_cycles(0x1p52 - 0.5), Cycles{1} << 52);
  EXPECT_EQ(round_cycles(0x1p53 + 2.0), (Cycles{1} << 53) + 2);
}

TEST(RoundCycles, ZerosAndSubnormalsRoundToZero) {
  expect_like_llround(0.0);
  expect_like_llround(-0.0);
  expect_like_llround(std::numeric_limits<double>::denorm_min());
  expect_like_llround(-std::numeric_limits<double>::denorm_min());
  expect_like_llround(std::numeric_limits<double>::min() / 2.0);
  expect_like_llround(std::nextafter(-0.5, 0.0));
  EXPECT_EQ(round_cycles(-0.0), 0u);
}

TEST(RoundCycles, MatchesLlroundOnSeededDraws) {
  // Log-uniform over [0, 2^53): every binade gets as many draws, so the fast
  // path's fractional compare and the fallback are both exercised.
  Rng rng(20170327);
  std::size_t mismatches = 0;
  for (int i = 0; i < 1000000; ++i) {
    const int exponent = static_cast<int>(rng.uniform_int(0, 52));
    const double x = std::ldexp(rng.uniform(), exponent + 1);
    if (round_cycles(x) != static_cast<Cycles>(std::llround(x))) {
      if (++mismatches <= 5) ADD_FAILURE() << "x = " << std::hexfloat << x;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(RoundCycles, ThrowsWhenTheDemandDoesNotFitCycles) {
  for (const double x : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(), 1e300,
                         0x1p63, -0.5, -1.0}) {
    EXPECT_THROW((void)round_cycles(x), std::out_of_range)
        << "x = " << std::hexfloat << x;
  }
  EXPECT_EQ(round_cycles(std::nextafter(0x1p63, 0.0)),
            static_cast<Cycles>(std::nextafter(0x1p63, 0.0)));
}

}  // namespace
}  // namespace prime::common
