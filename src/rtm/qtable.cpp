#include "rtm/qtable.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/csv.hpp"
#include "common/serial.hpp"
#include "common/strings.hpp"

namespace prime::rtm {

namespace {

/// Strict unsigned-decimal cell parse for load_csv: whole cell, in range.
/// strtoull with a null endptr reads "abc" as 0 — a corrupt policy file
/// would then silently overwrite entry (0, 0) instead of failing.
std::size_t parse_index_cell(const std::string& raw, const char* column,
                             std::size_t row) {
  const std::string cell = common::trim(raw);
  if (cell.empty() ||
      cell.find_first_not_of("0123456789") != std::string::npos) {
    throw std::runtime_error("QTable::load_csv: malformed " +
                             std::string(column) + " value '" + raw +
                             "' in data row " + std::to_string(row));
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(cell.c_str(), &end, 10);
  if (end != cell.c_str() + cell.size() || errno == ERANGE) {
    throw std::runtime_error("QTable::load_csv: " + std::string(column) +
                             " value '" + raw + "' in data row " +
                             std::to_string(row) + " is out of range");
  }
  return static_cast<std::size_t>(value);
}

/// Strict double cell parse for load_csv, same whole-cell contract.
double parse_q_cell(const std::string& raw, std::size_t row) {
  const std::string cell = common::trim(raw);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(cell.c_str(), &end);
  if (cell.empty() || end != cell.c_str() + cell.size() || errno == ERANGE) {
    throw std::runtime_error("QTable::load_csv: malformed q value '" + raw +
                             "' in data row " + std::to_string(row));
  }
  return value;
}

}  // namespace

QTable::QTable(std::size_t states, std::size_t actions)
    : states_(states), actions_(actions), q_(states * actions, 0.0),
      visits_(states * actions, 0), best_(states, 0),
      runner_up_(states, actions > 1 ? 1 : 0) {
  if (states == 0 || actions == 0) {
    throw std::invalid_argument("QTable: dimensions must be >= 1");
  }
}

void QTable::set_q(std::size_t s, std::size_t a, double value) {
  if (s >= states_ || a >= actions_) throw std::out_of_range("QTable::set_q");
  q_[s * actions_ + a] = value;
  scan_row(s);
}

void QTable::update(std::size_t s, std::size_t a, double reward,
                    std::size_t s_next, double alpha, double discount) {
  if (s >= states_ || a >= actions_ || s_next >= states_) {
    throw std::out_of_range("QTable::update");
  }
  double* row = q_.data() + s * actions_;
  const double old = row[a];
  const double next_best = q_[s_next * actions_ + best_[s_next]];
  const double q =
      (1.0 - alpha) * old + alpha * (reward + discount * next_best);
  row[a] = q;
  ++visits_[s * actions_ + a];
  ++updates_;

  // Keep the row's best and runner-up without a scan where the order
  // allows. An entry takes over a place when it beats its holder, or ties
  // it from a lower index. A NaN on either side (which the `>` scans treat
  // by position) rescans; so does a NaN runner-up below, as every
  // comparison with it is false.
  std::size_t& best = best_[s];
  std::size_t& second = runner_up_[s];
  const auto beats = [row, q, a](std::size_t holder) {
    return a < holder ? !(q < row[holder]) : q > row[holder];
  };
  if (std::isnan(q) || std::isnan(old)) {
    scan_row(s);
  } else if (a == best) {
    // A raised best stays best. A lowered one stays best while the
    // runner-up does not beat it; else both move.
    if (q < old && (second < best ? !(row[second] < q)
                                  : !(row[second] <= q))) {
      scan_row(s);
    }
  } else if (beats(best)) {
    second = best;  // the old best tops every other entry
    best = a;
  } else if (a == second) {
    if (q < old) scan_runner_up(s);
  } else if (beats(second)) {
    second = a;
  }
}

void QTable::scan_row(std::size_t s) {
  const double* row = q_.data() + s * actions_;
  std::size_t best = 0;
  double top = row[0];
  for (std::size_t a = 1; a < actions_; ++a) {
    if (row[a] > top) {
      top = row[a];
      best = a;
    }
  }
  best_[s] = best;
  scan_runner_up(s);
}

void QTable::scan_runner_up(std::size_t s) {
  const double* row = q_.data() + s * actions_;
  const std::size_t best = best_[s];
  std::size_t second = best == 0 && actions_ > 1 ? 1 : 0;
  double top = row[second];
  for (std::size_t a = second + 1; a < actions_; ++a) {
    if (a != best && row[a] > top) {
      top = row[a];
      second = a;
    }
  }
  runner_up_[s] = second;
}

void QTable::rescan_all() {
  best_.resize(states_);
  runner_up_.resize(states_);
  for (std::size_t s = 0; s < states_; ++s) scan_row(s);
}

std::vector<std::size_t> QTable::greedy_policy() const { return best_; }

std::size_t QTable::visits(std::size_t s, std::size_t a) const {
  if (s >= states_ || a >= actions_) throw std::out_of_range("QTable::visits");
  return visits_[s * actions_ + a];
}

void QTable::set_visits(std::size_t s, std::size_t a, std::size_t count) {
  if (s >= states_ || a >= actions_) {
    throw std::out_of_range("QTable::set_visits");
  }
  visits_[s * actions_ + a] = count;
}

std::size_t QTable::visited_states() const {
  std::size_t count = 0;
  for (std::size_t s = 0; s < states_; ++s) {
    for (std::size_t a = 0; a < actions_; ++a) {
      if (visits_[s * actions_ + a] > 0) {
        ++count;
        break;
      }
    }
  }
  return count;
}

void QTable::reset() {
  std::fill(q_.begin(), q_.end(), 0.0);
  std::fill(visits_.begin(), visits_.end(), 0);
  std::fill(best_.begin(), best_.end(), 0);
  std::fill(runner_up_.begin(), runner_up_.end(), actions_ > 1 ? 1 : 0);
  updates_ = 0;
}

std::string QTable::to_csv() const {
  std::ostringstream out;
  common::CsvWriter writer(out);
  writer.header({"state", "action", "q", "visits"});
  for (std::size_t s = 0; s < states_; ++s) {
    for (std::size_t a = 0; a < actions_; ++a) {
      writer.row({static_cast<double>(s), static_cast<double>(a),
                  q_[s * actions_ + a],
                  static_cast<double>(visits_[s * actions_ + a])});
    }
  }
  return out.str();
}

void QTable::load_csv(const std::string& text) {
  const common::CsvTable table = common::parse_csv(text);
  const int sc = table.column_index("state");
  const int ac = table.column_index("action");
  const int qc = table.column_index("q");
  const int vc = table.column_index("visits");
  if (sc < 0 || ac < 0 || qc < 0) {
    throw std::runtime_error("QTable::load_csv: missing columns");
  }
  // Widest mandatory column: every data row must reach at least this far.
  const std::size_t min_width =
      static_cast<std::size_t>(std::max({sc, ac, qc})) + 1;
  // Stage into copies and commit only after the whole text parses: a throw
  // from any row leaves the table exactly as it was.
  std::vector<double> q_new = q_;
  std::vector<std::size_t> visits_new = visits_;
  std::vector<bool> seen(states_ * actions_, false);
  for (std::size_t i = 0; i < table.rows.size(); ++i) {
    const auto& row = table.rows[i];
    if (row.size() < min_width) {
      throw std::runtime_error(
          "QTable::load_csv: data row " + std::to_string(i) + " has " +
          std::to_string(row.size()) + " cell(s), expected at least " +
          std::to_string(min_width));
    }
    const std::size_t s =
        parse_index_cell(row[static_cast<std::size_t>(sc)], "state", i);
    const std::size_t a =
        parse_index_cell(row[static_cast<std::size_t>(ac)], "action", i);
    if (s >= states_ || a >= actions_) {
      throw std::runtime_error(
          "QTable::load_csv: entry (" + std::to_string(s) + ", " +
          std::to_string(a) + ") in data row " + std::to_string(i) +
          " is outside the " + std::to_string(states_) + "x" +
          std::to_string(actions_) + " table");
    }
    if (seen[s * actions_ + a]) {
      throw std::runtime_error(
          "QTable::load_csv: duplicate entry (" + std::to_string(s) + ", " +
          std::to_string(a) + ") in data row " + std::to_string(i));
    }
    seen[s * actions_ + a] = true;
    q_new[s * actions_ + a] =
        parse_q_cell(row[static_cast<std::size_t>(qc)], i);
    if (vc >= 0 && static_cast<std::size_t>(vc) < row.size()) {
      visits_new[s * actions_ + a] =
          parse_index_cell(row[static_cast<std::size_t>(vc)], "visits", i);
    }
  }
  q_ = std::move(q_new);
  visits_ = std::move(visits_new);
  rescan_all();
}

void QTable::save_state(common::StateWriter& out) const {
  out.size(states_);
  out.size(actions_);
  out.vec_f64(q_);
  std::vector<std::uint64_t> visits(visits_.begin(), visits_.end());
  out.vec_u64(visits);
  out.size(updates_);
}

void QTable::load_state(common::StateReader& in) {
  const std::size_t states = in.size();
  const std::size_t actions = in.size();
  if (states == 0 || actions == 0) {
    throw common::SerialError("QTable state: zero dimension");
  }
  std::vector<double> q = in.vec_f64();
  const std::vector<std::uint64_t> visits = in.vec_u64();
  if (q.size() != states * actions || visits.size() != states * actions) {
    throw common::SerialError("QTable state: value/visit vector size does "
                              "not match the stored dimensions");
  }
  const std::size_t updates = in.size();
  states_ = states;
  actions_ = actions;
  q_ = std::move(q);
  visits_.assign(visits.begin(), visits.end());
  updates_ = updates;
  rescan_all();
}

}  // namespace prime::rtm
