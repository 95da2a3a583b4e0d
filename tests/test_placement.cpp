/// \file test_placement.cpp
/// \brief Multi-cluster platforms and the placement layer: partition-validity
///        property tests over cores x domains x policy, policy structure
///        checks, the single-domain bit-identity differential per registered
///        governor, and the per-domain decision contract.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/hash.hpp"
#include "common/registry.hpp"
#include "hw/platform.hpp"
#include "sim/builder.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/placement.hpp"
#include "sim/telemetry.hpp"

namespace prime::sim {
namespace {

std::unique_ptr<hw::Platform> make_board(std::size_t clusters,
                                         std::size_t cores_each = 4) {
  common::Config cfg;
  cfg.set_int("hw.clusters", static_cast<long long>(clusters));
  cfg.set_int("hw.cores", static_cast<long long>(cores_each));
  return hw::Platform::from_config(cfg);
}

wl::Application make_test_app(const hw::Platform& platform,
                              std::size_t frames, double fps = 30.0) {
  ExperimentSpec spec;
  spec.workload = "h264";
  spec.fps = fps;
  spec.frames = frames;
  spec.seed = 7;
  return make_application(spec, platform);
}

void expect_results_bitequal(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.epoch_count, b.epoch_count);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.total_energy),
            std::bit_cast<std::uint64_t>(b.total_energy));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.measured_energy),
            std::bit_cast<std::uint64_t>(b.measured_energy));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.total_time),
            std::bit_cast<std::uint64_t>(b.total_time));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.performance_sum),
            std::bit_cast<std::uint64_t>(b.performance_sum));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.power_sum),
            std::bit_cast<std::uint64_t>(b.power_sum));
}

// --- Partition-validity properties ------------------------------------------

TEST(Placement, ExactCoverOverCoresDomainsPolicyGrid) {
  // Every registered policy, on every topology of the grid, under several
  // weight shapes, must produce an exact cover: in-bounds, no overlap, full
  // coverage. make_placement validates internally (throwing std::logic_error
  // on violation); the explicit bijection re-check below keeps the property
  // pinned even if that internal gate is ever weakened.
  for (const std::string& policy : placement_names()) {
    for (std::size_t domains = 1; domains <= 4; ++domains) {
      for (std::size_t cores = 1; cores <= 4; ++cores) {
        const std::vector<std::size_t> topo(domains, cores);
        const std::size_t slots = domains * cores;
        std::vector<std::vector<double>> weight_shapes;
        weight_shapes.push_back({});                        // no estimate
        weight_shapes.emplace_back(slots, 1.0);             // uniform
        {
          std::vector<double> skew(slots, 0.0);             // loaded prefix
          for (std::size_t j = 0; j < (slots + 1) / 2; ++j) {
            skew[j] = static_cast<double>(slots - j);
          }
          weight_shapes.push_back(std::move(skew));
        }
        for (const auto& weights : weight_shapes) {
          SCOPED_TRACE(policy + " " + std::to_string(domains) + "x" +
                       std::to_string(cores) + " weights=" +
                       std::to_string(weights.size()));
          const Placement p = make_placement(policy, topo, weights);
          ASSERT_EQ(p.slots(), slots);
          std::vector<std::vector<bool>> hit(domains,
                                             std::vector<bool>(cores, false));
          for (std::size_t j = 0; j < slots; ++j) {
            ASSERT_LT(p.slot_domain[j], domains);
            ASSERT_LT(p.slot_local[j], cores);
            EXPECT_FALSE(hit[p.slot_domain[j]][p.slot_local[j]])
                << "slot " << j << " overlaps";
            hit[p.slot_domain[j]][p.slot_local[j]] = true;
          }
          for (std::size_t d = 0; d < domains; ++d) {
            for (std::size_t l = 0; l < cores; ++l) {
              EXPECT_TRUE(hit[d][l]) << "core (" << d << "," << l
                                     << ") uncovered";
            }
          }
        }
      }
    }
  }
}

TEST(Placement, ValidatorRejectsInvalidPartitions) {
  const std::vector<std::size_t> topo = {2, 2};
  Placement p;
  p.policy = "bad";
  // Short vectors.
  p.slot_domain = {0, 0, 1};
  p.slot_local = {0, 1, 0};
  EXPECT_THROW(validate_placement(p, topo), std::logic_error);
  // Out-of-bounds domain.
  p.slot_domain = {0, 0, 1, 5};
  p.slot_local = {0, 1, 0, 1};
  EXPECT_THROW(validate_placement(p, topo), std::logic_error);
  // Out-of-bounds local core.
  p.slot_domain = {0, 0, 1, 1};
  p.slot_local = {0, 3, 0, 1};
  EXPECT_THROW(validate_placement(p, topo), std::logic_error);
  // Overlap (core (0,0) claimed twice, so (0,1) is also uncovered).
  p.slot_domain = {0, 0, 1, 1};
  p.slot_local = {0, 0, 0, 1};
  EXPECT_THROW(validate_placement(p, topo), std::logic_error);
  // A valid identity mapping passes.
  p.slot_domain = {0, 0, 1, 1};
  p.slot_local = {0, 1, 0, 1};
  EXPECT_NO_THROW(validate_placement(p, topo));
}

TEST(Placement, UnknownPolicyThrowsWithSuggestions) {
  EXPECT_THROW((void)make_placement("packd", {2, 2}),
               common::UnknownNameError);
}

// A single-domain board has nothing to place, but a typo still fails closed.
TEST(Placement, EngineRejectsUnknownPolicyOnASingleDomainBoard) {
  const auto board = hw::Platform::odroid_xu3_a15();
  ASSERT_EQ(board->domain_count(), 1u);
  const wl::Application app = make_test_app(*board, 5);
  const auto governor = make_governor("ondemand");
  RunOptions options;
  options.placement = "packd";
  try {
    (void)run_simulation(*board, app, *governor, options);
    FAIL() << "accepted placement 'packd'";
  } catch (const common::UnknownNameError& e) {
    EXPECT_NE(std::string(e.what()).find("Did you mean 'packed'?"),
              std::string::npos)
        << e.what();
  }
}

// --- Policy structure --------------------------------------------------------

TEST(Placement, PackedFillsDomainsInOrder) {
  const Placement p = make_placement("packed", {2, 3});
  EXPECT_EQ(p.slot_domain, (std::vector<std::size_t>{0, 0, 1, 1, 1}));
  EXPECT_EQ(p.slot_local, (std::vector<std::size_t>{0, 1, 0, 1, 2}));
}

TEST(Placement, SpreadDealsRoundRobin) {
  const Placement p = make_placement("spread", {2, 2});
  EXPECT_EQ(p.slot_domain, (std::vector<std::size_t>{0, 1, 0, 1}));
  EXPECT_EQ(p.slot_local, (std::vector<std::size_t>{0, 0, 1, 1}));
  // Uneven topology: full domains drop out of later rounds.
  const Placement q = make_placement("spread", {1, 3});
  EXPECT_EQ(q.slot_domain, (std::vector<std::size_t>{0, 1, 1, 1}));
  EXPECT_EQ(q.slot_local, (std::vector<std::size_t>{0, 0, 1, 2}));
}

TEST(Placement, RectBalancesLoadedPrefixAcrossDomains) {
  // Two loaded slots (weights 3, 1) on a 2x2 board: splitting them one per
  // domain (max load 3) beats packing both on domain 0 (load 4). Idle slots
  // backfill the remaining capacity in domain order.
  const Placement p = make_placement("rect", {2, 2}, {3.0, 1.0, 0.0, 0.0});
  EXPECT_EQ(p.slot_domain, (std::vector<std::size_t>{0, 1, 0, 1}));
  EXPECT_EQ(p.slot_local, (std::vector<std::size_t>{0, 0, 1, 1}));
}

TEST(Placement, RectWithoutEstimateDegeneratesToPacked) {
  const Placement rect = make_placement("rect", {2, 2});
  const Placement packed = make_placement("packed", {2, 2});
  EXPECT_EQ(rect.slot_domain, packed.slot_domain);
  EXPECT_EQ(rect.slot_local, packed.slot_local);
}

// --- Platform shape ----------------------------------------------------------

TEST(Placement, SingleDomainFingerprintKeepsHistoricalRecipe) {
  // The pre-multi-cluster fingerprint hashed total cores + the OPP table and
  // nothing else; single-domain boards must keep producing exactly that value
  // so existing .ckpt/.qpol artifacts stay valid.
  const auto platform = hw::Platform::odroid_xu3_a15();
  common::Fnv1a64 h;
  h.u64(platform->total_cores());
  h.u64(platform->opp_table().size());
  for (const hw::Opp& opp : platform->opp_table().points()) {
    h.f64(opp.frequency);
    h.f64(opp.voltage);
  }
  EXPECT_EQ(platform->shape_fingerprint(), h.value());
}

TEST(Placement, DomainStructureDistinguishesFingerprints) {
  // 2 domains x 4 cores and 1 domain x 8 cores share the total core count and
  // OPP table but must not share learned-state keys.
  const auto two_by_four = make_board(2, 4);
  const auto one_by_eight = make_board(1, 8);
  EXPECT_EQ(two_by_four->total_cores(), one_by_eight->total_cores());
  EXPECT_NE(two_by_four->shape_fingerprint(),
            one_by_eight->shape_fingerprint());
}

TEST(Placement, PlatformDomainAccessors) {
  const auto board = make_board(3, 2);
  EXPECT_EQ(board->domain_count(), 3u);
  EXPECT_EQ(board->total_cores(), 6u);
  EXPECT_EQ(board->domain_of_core(0), 0u);
  EXPECT_EQ(board->domain_of_core(3), 1u);
  EXPECT_EQ(board->domain_of_core(5), 2u);
  EXPECT_EQ(board->local_of_core(3), 1u);
  EXPECT_EQ(board->local_of_core(4), 0u);
  common::Config bad;
  bad.set_int("hw.clusters", 0);
  EXPECT_THROW((void)hw::Platform::from_config(bad), std::invalid_argument);
}

// --- Per-domain decision contract -------------------------------------------

/// Probe governor recording every DecisionContext it sees.
class DomainProbeGovernor : public gov::Governor {
 public:
  std::string name() const override { return "domain-probe"; }
  std::size_t decide(const gov::DecisionContext& ctx,
                     const std::optional<gov::EpochObservation>& last) override {
    seen_domains.push_back(ctx.domain);
    seen_domain_counts.push_back(ctx.domains);
    seen_cores.push_back(ctx.cores);
    observed_power.push_back(last ? last->avg_power : -1.0);
    return ctx.opps->size() / 2;
  }
  void reset() override {}
  std::vector<std::size_t> seen_domains;
  std::vector<std::size_t> seen_domain_counts;
  std::vector<std::size_t> seen_cores;
  std::vector<double> observed_power;
};

TEST(Placement, EngineDecidesOncePerDomainPerEpoch) {
  const auto board = make_board(3, 2);
  const wl::Application app = make_test_app(*board, 5);
  DomainProbeGovernor probe;
  const RunResult r = run_simulation(*board, app, probe);
  EXPECT_EQ(r.epoch_count, 5u);
  ASSERT_EQ(probe.seen_domains.size(), 15u);  // 3 domains x 5 epochs
  for (std::size_t i = 0; i < probe.seen_domains.size(); ++i) {
    EXPECT_EQ(probe.seen_domains[i], i % 3);
    EXPECT_EQ(probe.seen_domain_counts[i], 3u);
    EXPECT_EQ(probe.seen_cores[i], 2u);  // per-domain core count, not total
  }
  // From the second epoch on, every domain feeds back its own observation.
  for (std::size_t i = 3; i < probe.observed_power.size(); ++i) {
    EXPECT_GE(probe.observed_power[i], 0.0) << "decision " << i;
  }
}

TEST(Placement, SingleDomainContextStaysHistorical) {
  const auto board = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_test_app(*board, 4);
  DomainProbeGovernor probe;
  (void)run_simulation(*board, app, probe);
  ASSERT_EQ(probe.seen_domains.size(), 4u);
  for (std::size_t i = 0; i < probe.seen_domains.size(); ++i) {
    EXPECT_EQ(probe.seen_domains[i], 0u);
    EXPECT_EQ(probe.seen_domain_counts[i], 1u);
    EXPECT_EQ(probe.seen_cores[i], 4u);
  }
}

// --- Single-domain bit-identity & multi-domain determinism -------------------

TEST(Placement, SingleDomainRunsIgnorePlacementBitIdentically) {
  // On a one-domain board every placement policy is the identity mapping, so
  // RunOptions::placement must not perturb a single bit of the result — per
  // registered governor, across the batched and scalar paths.
  const auto calibration = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_test_app(*calibration, 120);
  for (const std::string& name : governor_names()) {
    SCOPED_TRACE(name);
    std::vector<RunResult> runs;
    for (const std::string& placement : {"packed", "spread", "rect"}) {
      for (const std::size_t block : {std::size_t{0}, std::size_t{64}}) {
        // Fresh platform per run: the power sensor's noise stream position is
        // process state, not reset() state.
        const auto board = hw::Platform::odroid_xu3_a15();
        const auto governor = make_governor(name, 42);
        RunOptions opt;
        opt.placement = placement;
        opt.block_frames = block;
        runs.push_back(run_simulation(*board, app, *governor, opt));
      }
    }
    for (std::size_t i = 1; i < runs.size(); ++i) {
      expect_results_bitequal(runs.front(), runs[i]);
    }
  }
}

TEST(Placement, MultiDomainRunsAreDeterministic) {
  for (const std::string& name : governor_names()) {
    SCOPED_TRACE(name);
    const auto run_once = [&name](const std::string& placement) {
      const auto board = make_board(2, 4);
      const wl::Application app = make_test_app(*board, 150);
      const auto governor = make_governor(name, 42);
      RunOptions opt;
      opt.placement = placement;
      return run_simulation(*board, app, *governor, opt);
    };
    expect_results_bitequal(run_once("packed"), run_once("packed"));
    expect_results_bitequal(run_once("spread"), run_once("spread"));
  }
}

TEST(Placement, MultiDomainRunExecutesAllWork) {
  const auto packed_board = make_board(2, 4);
  const auto single_board = make_board(1, 8);
  const wl::Application app = make_test_app(*packed_board, 200);
  const auto g1 = make_governor("ondemand", 1);
  const auto g2 = make_governor("ondemand", 1);
  const RunResult multi = run_simulation(*packed_board, app, *g1);
  const RunResult single = run_simulation(*single_board, app, *g2);
  EXPECT_EQ(multi.epoch_count, single.epoch_count);
  EXPECT_GT(multi.total_energy, 0.0);
  EXPECT_GT(multi.total_time, 0.0);
}

TEST(Placement, MultiDomainCheckpointingRejected) {
  const auto board = make_board(2, 4);
  const wl::Application app = make_test_app(*board, 50);
  const auto governor = make_governor("ondemand", 1);
  // Both ways of attaching a checkpoint fail with the board's domain count.
  const auto expect_rejected = [&](const RunOptions& options,
                                   const std::string& form) {
    SCOPED_TRACE(form);
    try {
      (void)run_simulation(*board, app, *governor, options);
      ADD_FAILURE() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("2 DVFS domains"),
                std::string::npos)
          << e.what();
    }
  };
  RunOptions with_ckpt;
  with_ckpt.checkpoint_path = testing::TempDir() + "md.ckpt";
  expect_rejected(with_ckpt, "checkpoint_path");
  const auto sink =
      make_sink("checkpoint(path=" + testing::TempDir() + "md-sink.ckpt)");
  RunOptions with_sink;
  with_sink.sinks = {sink.get()};
  expect_rejected(with_sink, "checkpoint(path=...) sink");
  RunOptions with_resume;
  with_resume.resume_from = testing::TempDir() + "md.ckpt";
  EXPECT_THROW((void)run_simulation(*board, app, *governor, with_resume),
               std::invalid_argument);
}

// --- Builder axis ------------------------------------------------------------

TEST(Placement, BuilderSweepsDomainsTimesPlacement) {
  const SweepResult sweep = ExperimentBuilder()
                                .clusters(2)
                                .cores(2)
                                .workload("h264")
                                .fps(30.0)
                                .governors({"ondemand", "rtm"})
                                .placements({"packed", "spread"})
                                .frames(80)
                                .parallelism(2)
                                .run();
  // 1 workload x 1 fps x 2 placements x 2 governors, one cell per placement.
  ASSERT_EQ(sweep.results.size(), 4u);
  ASSERT_EQ(sweep.oracle_runs.size(), 2u);
  for (const auto& r : sweep.results) {
    EXPECT_EQ(r.run.epoch_count, 80u);
    EXPECT_GT(r.run.total_energy, 0.0);
    EXPECT_GT(r.row.normalized_energy, 0.0);
  }
  EXPECT_EQ(sweep.results[0].scenario.placement, "packed");
  EXPECT_EQ(sweep.results[2].scenario.placement, "spread");
  EXPECT_NE(sweep.results[0].scenario.cell, sweep.results[2].scenario.cell);
}

TEST(Placement, BuilderPlacementAxisIsByteTransparentOnSingleDomain) {
  const auto run_sweep = [](bool with_axis) {
    ExperimentBuilder b;
    b.workload("h264").fps(30.0).governor("rtm").frames(60).parallelism(1);
    if (with_axis) b.placement("packed");
    return b.run();
  };
  const SweepResult base = run_sweep(false);
  const SweepResult axis = run_sweep(true);
  ASSERT_EQ(base.results.size(), axis.results.size());
  expect_results_bitequal(base.results[0].run, axis.results[0].run);
}

}  // namespace
}  // namespace prime::sim
