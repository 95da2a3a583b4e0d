/// \file oracle.hpp
/// \brief Offline-optimal oracle governor (the paper's normalisation baseline).
///
/// Table I normalises energy "with respect to Oracle (through offline
/// determination of optimized V-F for the observed CPU workloads)". The
/// oracle is clairvoyant: each decision's context carries the frame it is for
/// (DecisionContext::work, ::slots, ::mem_fraction), and the oracle picks the
/// *slowest* frequency at which the busiest of the decision's own slots still
/// meets the deadline (lowest V-F = minimum energy under a deadline for a
/// convex power curve). A decision is per DVFS domain in the engine and per
/// application in run_multi_simulation, so each domain or application runs
/// at the V-F its own work needs. It is unrealisable at run time — it exists
/// purely as the lower-bound denominator — and stateless: nothing carries
/// from one decision to the next.
#pragma once

#include "gov/governor.hpp"

namespace prime::gov {

/// \brief Oracle tunables.
struct OracleParams {
  /// Fraction of the period reserved for DVFS stall and OS jitter when
  /// solving for the minimum frequency (0 = razor-thin deadlines).
  double guard_band = 0.02;
};

/// \brief The minimum-frequency-meeting-deadline governor that sees the frame.
class OracleGovernor final : public Governor {
 public:
  /// \brief Construct with the given guard band.
  explicit OracleGovernor(const OracleParams& params = {}) noexcept
      : params_(params) {}

  [[nodiscard]] std::string name() const override { return "oracle"; }
  /// \brief The lowest OPP that fits the largest `work[s]` over the
  ///        context's slots into the guarded period; the top OPP when the
  ///        context carries no frame or no positive period.
  [[nodiscard]] std::size_t decide(
      const DecisionContext& ctx,
      const std::optional<EpochObservation>& last) override;
  /// \brief The oracle performs no run-time learning.
  [[nodiscard]] common::Seconds epoch_overhead() const override { return 0.0; }
  void reset() override {}

 private:
  OracleParams params_;
};

}  // namespace prime::gov
