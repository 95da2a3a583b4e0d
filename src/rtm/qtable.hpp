/// \file qtable.hpp
/// \brief The Q-table: the RTM's learned state-action value store.
///
/// A dense |S| x |A| matrix of action values with the Bellman update of
/// eq. (3), visit counting (used to report coverage), greedy-policy
/// extraction (used for convergence detection in Tables II/III) and CSV
/// persistence, mirroring how the paper's governor kept its look-up table
/// resident in the OS.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace prime::common {
class StateWriter;
class StateReader;
}  // namespace prime::common

namespace prime::rtm {

/// \brief Dense state-action value table with Q-learning update.
class QTable {
 public:
  /// \brief Construct a zero-initialised |states| x |actions| table.
  ///        Throws std::invalid_argument when either dimension is zero.
  QTable(std::size_t states, std::size_t actions);

  /// \brief Number of states |S|.
  [[nodiscard]] std::size_t states() const noexcept { return states_; }
  /// \brief Number of actions |A|.
  [[nodiscard]] std::size_t actions() const noexcept { return actions_; }

  /// \brief Q(s, a). Bounds-checked.
  [[nodiscard]] double q(std::size_t s, std::size_t a) const {
    if (s >= states_ || a >= actions_) throw std::out_of_range("QTable::q");
    return q_[s * actions_ + a];
  }
  /// \brief Directly set Q(s, a) (tests and persistence).
  void set_q(std::size_t s, std::size_t a, double value);

  /// \brief Bellman update, eq. (3):
  ///        Q(s,a) <- (1-alpha) Q(s,a) + alpha (r + discount * max_a' Q(s',a')).
  ///        Also increments the (s, a) visit counter.
  void update(std::size_t s, std::size_t a, double reward, std::size_t s_next,
              double alpha, double discount);

  /// \brief Greedy action argmax_a Q(s, a) (ties break toward lower index,
  ///        i.e. the slower, lower-energy OPP). O(1): read from the row's
  ///        cached first argmax.
  [[nodiscard]] std::size_t best_action(std::size_t s) const {
    if (s >= states_) throw std::out_of_range("QTable::best_action");
    return best_[s];
  }
  /// \brief max_a Q(s, a), always bitwise equal to q(s, best_action(s)).
  ///        O(1).
  [[nodiscard]] double best_value(std::size_t s) const {
    if (s >= states_) throw std::out_of_range("QTable::best_value");
    return q_[s * actions_ + best_[s]];
  }
  /// \brief Greedy action for every state (the exploited policy).
  [[nodiscard]] std::vector<std::size_t> greedy_policy() const;

  /// \brief Times (s, a) has been updated.
  [[nodiscard]] std::size_t visits(std::size_t s, std::size_t a) const;
  /// \brief Directly set the (s, a) visit counter (merge/persistence — a
  ///        merged table's counters are sums over its source tables).
  void set_visits(std::size_t s, std::size_t a, std::size_t count);
  /// \brief Directly set the total-update counter (merge/persistence).
  void set_total_updates(std::size_t updates) noexcept { updates_ = updates; }
  /// \brief Number of distinct states updated at least once (coverage).
  [[nodiscard]] std::size_t visited_states() const;
  /// \brief Total updates performed.
  [[nodiscard]] std::size_t total_updates() const noexcept { return updates_; }

  /// \brief Zero all values and counters.
  void reset();

  /// \brief Serialise as CSV ("state,action,q,visits").
  [[nodiscard]] std::string to_csv() const;
  /// \brief Restore from to_csv() output. Throws std::runtime_error — with
  ///        the offending row and cell — when an entry is outside this
  ///        table's dimensions, a cell is not entirely a number, a row is
  ///        too short, or the same (state, action) pair appears twice. On
  ///        throw the table is unchanged (rows are staged, then committed).
  void load_csv(const std::string& text);

  /// \brief Binary state serialisation (checkpoint/resume): dimensions,
  ///        bit-exact Q values, visit counters, total updates.
  void save_state(common::StateWriter& out) const;
  /// \brief Restore state written by save_state(), adopting its dimensions.
  void load_state(common::StateReader& in);

 private:
  /// \brief Rebuild row \p s's cached best and runner-up by full scans.
  ///        The best is the first argmax: its index moves only to an entry
  ///        `>` the best so far (so a NaN at index 0 wins and NaNs elsewhere
  ///        never do). The runner-up is the same scan over the other actions.
  void scan_row(std::size_t s);
  /// \brief Rebuild row \p s's cached runner-up only.
  void scan_runner_up(std::size_t s);
  /// \brief Rebuild every row's cache.
  void rescan_all();

  std::size_t states_;
  std::size_t actions_;
  std::vector<double> q_;
  std::vector<std::size_t> visits_;
  /// Cached first argmax per row.
  std::vector<std::size_t> best_;
  /// Cached runner-up per row: an action other than the best that no other
  /// non-NaN entry beats — the first argmax over the other actions when
  /// the row holds no NaN (equal to best_ in a one-action table). With it,
  /// update() rescans only when a lowered best falls below the runner-up,
  /// the runner-up itself is lowered, or a NaN is involved (a NaN
  /// runner-up only makes it rescan more often).
  std::vector<std::size_t> runner_up_;
  std::size_t updates_ = 0;
};

}  // namespace prime::rtm
