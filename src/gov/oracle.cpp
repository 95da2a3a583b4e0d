#include "gov/oracle.hpp"

#include <algorithm>
#include <memory>

#include "gov/registry.hpp"

namespace prime::gov {

std::size_t OracleGovernor::decide(const DecisionContext& ctx,
                                   const std::optional<EpochObservation>&) {
  const hw::OppTable& opps = *ctx.opps;
  if (ctx.work == nullptr || ctx.period <= 0.0) return opps.size() - 1;

  common::Cycles busiest = 0;
  for (const std::size_t s : ctx.slots) busiest = std::max(busiest, ctx.work[s]);

  // Frame time at frequency f: T(f) = (1-m) * c / f + m * c / f_ref, where
  // the memory-stall portion m*c/f_ref does not shrink with frequency. The
  // slowest f whose T(f) fits the guarded period is the energy-optimal OPP
  // (energy is monotone in V, hence in the OPP index).
  const double c = static_cast<double>(busiest);
  const double stall_time = ctx.mem_fraction * c / hw::kMemRefFrequency;
  const double usable =
      ctx.period * (1.0 - params_.guard_band) - stall_time;
  if (usable <= 0.0) return opps.size() - 1;
  const double f_min = (1.0 - ctx.mem_fraction) * c / usable;
  return opps.lowest_at_least(f_min);
}

namespace {

const GovernorRegistrar kRegisterOracle{
    governor_registry(), "oracle",
    "clairvoyant minimum-frequency baseline (Table I denominator); "
    "keys: guard",
    [](const common::Spec& spec, std::uint64_t) {
      OracleParams p;
      p.guard_band = spec.get_double("guard", p.guard_band);
      return std::make_unique<OracleGovernor>(p);
    }};

}  // namespace

}  // namespace prime::gov
