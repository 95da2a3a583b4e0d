/// \file test_qtable.cpp
/// \brief Unit tests for the Q-table and the eq. (3) Bellman update.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "common/rng.hpp"
#include "common/serial.hpp"
#include "rtm/qtable.hpp"

namespace prime::rtm {
namespace {

TEST(QTable, RejectsZeroDimensions) {
  EXPECT_THROW(QTable(0, 5), std::invalid_argument);
  EXPECT_THROW(QTable(5, 0), std::invalid_argument);
}

TEST(QTable, StartsZeroed) {
  const QTable q(4, 3);
  for (std::size_t s = 0; s < 4; ++s) {
    for (std::size_t a = 0; a < 3; ++a) {
      EXPECT_DOUBLE_EQ(q.q(s, a), 0.0);
      EXPECT_EQ(q.visits(s, a), 0u);
    }
  }
  EXPECT_EQ(q.total_updates(), 0u);
  EXPECT_EQ(q.visited_states(), 0u);
}

TEST(QTable, BoundsChecked) {
  QTable q(2, 2);
  EXPECT_THROW((void)q.q(2, 0), std::out_of_range);
  EXPECT_THROW((void)q.q(0, 2), std::out_of_range);
  EXPECT_THROW(q.set_q(2, 0, 1.0), std::out_of_range);
  EXPECT_THROW(q.update(0, 0, 1.0, 2, 0.5, 0.5), std::out_of_range);
  EXPECT_THROW((void)q.best_action(9), std::out_of_range);
}

TEST(QTable, BellmanUpdateEquation3) {
  QTable q(2, 2);
  q.set_q(1, 0, 4.0);  // max_a Q(s'=1, a) = 4
  q.set_q(0, 0, 2.0);
  // Q <- (1-a) Q + a (r + g max) = 0.75*2 + 0.25*(1 + 0.5*4) = 1.5 + 0.75
  q.update(0, 0, 1.0, 1, 0.25, 0.5);
  EXPECT_NEAR(q.q(0, 0), 2.25, 1e-12);
  EXPECT_EQ(q.visits(0, 0), 1u);
  EXPECT_EQ(q.total_updates(), 1u);
}

TEST(QTable, RepeatedUpdatesConvergeToFixedPoint) {
  QTable q(1, 1);
  // Single state-action with reward 1, discount 0.5: fixed point Q = 2.
  for (int i = 0; i < 500; ++i) q.update(0, 0, 1.0, 0, 0.2, 0.5);
  EXPECT_NEAR(q.q(0, 0), 2.0, 1e-6);
}

TEST(QTable, BestActionTieBreaksTowardSlowerOpp) {
  QTable q(1, 4);
  // All zeros: lowest index (slowest, lowest-energy OPP) wins ties.
  EXPECT_EQ(q.best_action(0), 0u);
  q.set_q(0, 2, 1.0);
  q.set_q(0, 3, 1.0);
  EXPECT_EQ(q.best_action(0), 2u);
}

TEST(QTable, BestValue) {
  QTable q(1, 3);
  q.set_q(0, 1, -1.0);
  q.set_q(0, 2, 3.5);
  EXPECT_DOUBLE_EQ(q.best_value(0), 3.5);
}

TEST(QTable, GreedyPolicy) {
  QTable q(3, 2);
  q.set_q(0, 1, 1.0);
  q.set_q(2, 0, 2.0);
  const auto policy = q.greedy_policy();
  ASSERT_EQ(policy.size(), 3u);
  EXPECT_EQ(policy[0], 1u);
  EXPECT_EQ(policy[1], 0u);
  EXPECT_EQ(policy[2], 0u);
}

TEST(QTable, VisitedStatesCoverage) {
  QTable q(4, 2);
  q.update(0, 0, 0.0, 0, 0.5, 0.5);
  q.update(0, 1, 0.0, 0, 0.5, 0.5);
  q.update(3, 0, 0.0, 0, 0.5, 0.5);
  EXPECT_EQ(q.visited_states(), 2u);
}

TEST(QTable, ResetZeroes) {
  QTable q(2, 2);
  q.update(0, 0, 5.0, 1, 0.5, 0.5);
  q.reset();
  EXPECT_DOUBLE_EQ(q.q(0, 0), 0.0);
  EXPECT_EQ(q.total_updates(), 0u);
  EXPECT_EQ(q.visited_states(), 0u);
}

TEST(QTable, CsvRoundTrip) {
  QTable q(3, 4);
  q.update(1, 2, 1.5, 0, 0.3, 0.5);
  q.set_q(2, 3, -0.75);
  const std::string csv = q.to_csv();
  QTable back(3, 4);
  back.load_csv(csv);
  for (std::size_t s = 0; s < 3; ++s) {
    for (std::size_t a = 0; a < 4; ++a) {
      EXPECT_DOUBLE_EQ(back.q(s, a), q.q(s, a)) << s << "," << a;
      EXPECT_EQ(back.visits(s, a), q.visits(s, a));
    }
  }
}

TEST(QTable, LoadCsvRejectsWrongShape) {
  QTable small(1, 1);
  QTable big(5, 5);
  EXPECT_THROW(small.load_csv(big.to_csv()), std::runtime_error);
  EXPECT_THROW(small.load_csv("foo,bar\n1,2\n"), std::runtime_error);
}

TEST(QTable, LoadCsvRejectsMalformedCells) {
  QTable q(2, 2);
  // strtoull/strtod with a null endptr used to read these as 0 — the corrupt
  // row would silently overwrite entry (0, 0).
  EXPECT_THROW(q.load_csv("state,action,q,visits\nabc,0,1.0,0\n"),
               std::runtime_error);
  EXPECT_THROW(q.load_csv("state,action,q,visits\n0,0,notanumber,0\n"),
               std::runtime_error);
  EXPECT_THROW(q.load_csv("state,action,q,visits\n0,0,1.5x,0\n"),
               std::runtime_error);
  EXPECT_THROW(q.load_csv("state,action,q,visits\n0,0,1.0,-3\n"),
               std::runtime_error);
  // A row too short for the mandatory columns names its width.
  EXPECT_THROW(q.load_csv("state,action,q,visits\n0,0\n"),
               std::runtime_error);
}

TEST(QTable, LoadCsvRejectsDuplicateEntries) {
  QTable q(2, 2);
  try {
    q.load_csv("state,action,q,visits\n0,1,1.0,0\n0,1,2.0,0\n");
    FAIL() << "duplicate (state, action) did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("(0, 1)"), std::string::npos);
  }
}

TEST(QTable, LoadCsvFailureLeavesTableUnchanged) {
  QTable q(2, 2);
  q.set_q(0, 0, 7.0);
  q.set_q(1, 1, -2.0);
  // Row 0 is valid and targets (0, 0); row 1 is corrupt. A partial apply
  // would clobber (0, 0) before throwing — the staged commit must not.
  EXPECT_THROW(q.load_csv("state,action,q,visits\n0,0,99.0,0\n1,1,bad,0\n"),
               std::runtime_error);
  EXPECT_DOUBLE_EQ(q.q(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(q.q(1, 1), -2.0);
}

/// Property: the cached argmax answers exactly what a full first-argmax scan
/// (the `>` test, lowest index on ties) answers, bit for bit, across random
/// update/set_q/load_state/load_csv/reset sequences drawn from a value pool
/// full of ties, signed zeros and NaNs. About half the updates lower the
/// row's current best or runner-up, the cases the cache rescans for.
TEST(QTable, CachedArgmaxMatchesBruteForceScan) {
  constexpr std::size_t kStates = 4;
  constexpr std::size_t kActions = 5;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double pool[] = {0.0, -0.0, 1.0, -1.0, 0.5, 0.5, 2.0, nan, -3.0};
  constexpr std::size_t kPool = std::size(pool);

  const auto scan = [&](const QTable& t, std::size_t s) {
    std::size_t best = 0;
    for (std::size_t a = 1; a < kActions; ++a) {
      if (t.q(s, a) > t.q(s, best)) best = a;
    }
    return best;
  };
  // The same scan over every action but the best.
  const auto runner_up = [&](const QTable& t, std::size_t s) {
    const std::size_t best = scan(t, s);
    std::size_t second = best == 0 ? 1 : 0;
    for (std::size_t a = second + 1; a < kActions; ++a) {
      if (a != best && t.q(s, a) > t.q(s, second)) second = a;
    }
    return second;
  };
  const auto check = [&](const QTable& t, int step) {
    for (std::size_t s = 0; s < kStates; ++s) {
      const std::size_t expect = scan(t, s);
      ASSERT_EQ(t.best_action(s), expect) << "step " << step << " state " << s;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(t.best_value(s)),
                std::bit_cast<std::uint64_t>(t.q(s, expect)))
          << "step " << step << " state " << s;
      ASSERT_EQ(t.greedy_policy()[s], expect);
    }
  };

  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    std::uint64_t rng = seed;
    const auto draw = [&](std::size_t n) {
      return static_cast<std::size_t>(common::splitmix64_next(rng) % n);
    };
    QTable table(kStates, kActions);
    QTable donor(kStates, kActions);
    for (int step = 0; step < 4000; ++step) {
      const std::size_t op = draw(100);
      const std::size_t s = draw(kStates);
      const std::size_t a = draw(kActions);
      if (op < 35) {
        // alpha = 1 and discount = 0 store the pooled reward exactly (up to
        // 0 * q, which keeps NaNs and flips zero signs), so ties are common.
        const bool exact = draw(2) == 0;
        table.update(s, a, pool[draw(kPool)], draw(kStates),
                     exact ? 1.0 : 0.5, exact ? 0.0 : 0.9);
      } else if (op < 70) {
        // Lower the best or the runner-up by a pooled magnitude (0 keeps
        // it, NaN poisons it), landing on or between its neighbours.
        const std::size_t target =
            draw(2) == 0 ? scan(table, s) : runner_up(table, s);
        const double lowered =
            table.q(s, target) - std::abs(pool[draw(kPool)]);
        table.update(s, target, lowered, draw(kStates), 1.0, 0.0);
      } else if (op < 90) {
        table.set_q(s, a, pool[draw(kPool)]);
      } else if (op < 95) {
        donor.set_q(s, a, pool[draw(kPool)]);
        donor.update(draw(kStates), draw(kActions), pool[draw(kPool)],
                     draw(kStates), 0.5, 0.9);
        std::stringstream bytes;
        common::StateWriter out(bytes);
        donor.save_state(out);
        common::StateReader in(bytes);
        table.load_state(in);
      } else if (op < 97) {
        table.reset();
      } else {
        table.load_csv(donor.to_csv());
      }
      check(table, step);
      if (testing::Test::HasFatalFailure()) return;
    }
  }
}

/// Property: the Bellman update is a contraction: Q values remain bounded by
/// r_max / (1 - discount) for bounded rewards.
class QTableContraction : public ::testing::TestWithParam<double> {};

TEST_P(QTableContraction, ValuesStayBounded) {
  const double discount = GetParam();
  QTable q(5, 3);
  const double r_max = 2.0;
  const double bound = r_max / (1.0 - discount) + 1e-9;
  std::uint64_t rngstate = 7;
  for (int i = 0; i < 5000; ++i) {
    const auto s = static_cast<std::size_t>(common::splitmix64_next(rngstate) % 5);
    const auto a = static_cast<std::size_t>(common::splitmix64_next(rngstate) % 3);
    const auto sn = static_cast<std::size_t>(common::splitmix64_next(rngstate) % 5);
    const double r = r_max * (static_cast<double>(common::splitmix64_next(rngstate) % 1000) / 500.0 - 1.0);
    q.update(s, a, r, sn, 0.3, discount);
  }
  for (std::size_t s = 0; s < 5; ++s) {
    for (std::size_t a = 0; a < 3; ++a) {
      EXPECT_LE(std::abs(q.q(s, a)), bound);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Discounts, QTableContraction,
                         ::testing::Values(0.1, 0.5, 0.9));

}  // namespace
}  // namespace prime::rtm
