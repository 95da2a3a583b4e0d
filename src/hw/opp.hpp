/// \file opp.hpp
/// \brief Operating performance points (V-F pairs) and OPP tables.
///
/// The ODROID-XU3's Cortex-A15 cluster exposes 19 DVFS operating points from
/// 200 MHz to 2000 MHz in 100 MHz steps, each with an associated supply
/// voltage from the board's ASV (adaptive supply voltage) table. The paper's
/// action space is exactly this table; `OppTable::odroid_xu3_a15()` builds the
/// canonical 19-entry table used by every experiment.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace prime::hw {

/// \brief The frequency at which a workload's memory fraction holds: the
///        board-epoch kernel runs every domain's epoch at it
///        (Platform::run_epoch_into), and the Oracle solves for its minimum
///        frequency with it, so the two agree on a frame's stall time.
inline constexpr common::Hertz kMemRefFrequency = 1.0e9;

/// \brief A single operating performance point: an index plus its V-F pair.
struct Opp {
  std::size_t index = 0;          ///< Position in the owning table (0 = slowest).
  common::Hertz frequency = 0.0;  ///< Core clock frequency.
  common::Volt voltage = 0.0;     ///< Supply voltage at this frequency.

  /// \brief Equality on all fields (used by tests).
  [[nodiscard]] bool operator==(const Opp& other) const noexcept = default;
};

/// \brief Immutable, frequency-ascending table of operating points.
class OppTable {
 public:
  /// \brief Build from a voltage-per-frequency list; entries are sorted by
  ///        frequency and re-indexed. Throws std::invalid_argument when empty
  ///        or containing non-positive frequencies/voltages.
  explicit OppTable(std::vector<Opp> points);

  /// \brief The canonical ODROID-XU3 A15 cluster table: 200–2000 MHz in
  ///        100 MHz steps with an ASV-like voltage curve (0.9 V – 1.3625 V).
  [[nodiscard]] static OppTable odroid_xu3_a15();

  /// \brief A reduced table (used by tests/ablation): \p n points evenly
  ///        spanning [f_lo, f_hi] with linearly interpolated voltages.
  [[nodiscard]] static OppTable linear(std::size_t n, common::Hertz f_lo,
                                       common::Hertz f_hi, common::Volt v_lo,
                                       common::Volt v_hi);

  /// \brief Number of operating points (the RL action-space size |A|).
  [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }
  /// \brief Point by index; throws std::out_of_range.
  [[nodiscard]] const Opp& at(std::size_t index) const;
  /// \brief Slowest point.
  [[nodiscard]] const Opp& min() const noexcept { return points_.front(); }
  /// \brief Fastest point.
  [[nodiscard]] const Opp& max() const noexcept { return points_.back(); }
  /// \brief All points, ascending frequency.
  [[nodiscard]] const std::vector<Opp>& points() const noexcept { return points_; }

  /// \brief Index of the slowest point with frequency >= \p f_min; returns the
  ///        fastest point's index when none qualifies. This is the Oracle's
  ///        "minimum V-F meeting the deadline" lookup.
  [[nodiscard]] std::size_t lowest_at_least(common::Hertz f_min) const noexcept;

  /// \brief Index of the fastest point with frequency <= \p f_max; returns 0
  ///        when none qualifies (ondemand's proportional down-scaling lookup).
  [[nodiscard]] std::size_t highest_at_most(common::Hertz f_max) const noexcept;

  /// \brief Index of the point whose frequency is closest to \p f.
  [[nodiscard]] std::size_t nearest(common::Hertz f) const noexcept;

  /// \brief Clamp an index into the valid range.
  [[nodiscard]] std::size_t clamp_index(long long index) const noexcept;

  /// \brief Human-readable summary ("19 OPPs, 200-2000 MHz").
  [[nodiscard]] std::string describe() const;

 private:
  std::vector<Opp> points_;
};

}  // namespace prime::hw
