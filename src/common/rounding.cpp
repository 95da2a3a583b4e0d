#include "common/rounding.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace prime::common {

Cycles round_cycles_fallback(double x) {
  // Every double of 2^52 or more is already an integer, so llround is exact
  // on the rest of its range; -0.5 < x < 0 rounds to 0.
  if (!(x > -0.5 && x < 0x1p63)) {
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g", x);
    throw std::out_of_range(std::string("round_cycles: ") + value +
                            " does not fit a cycle count");
  }
  return static_cast<Cycles>(std::llround(x));
}

}  // namespace prime::common
