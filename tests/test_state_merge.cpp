/// \file test_state_merge.cpp
/// \brief The merge algebra (gov/merge.hpp) for every registered governor
///        with mergeable state, not only the rtm family the policy-library
///        tests train: order and grouping invariance of the accumulator and
///        of the extracted state, and a governor that loads the merged state
///        and runs on.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/config.hpp"
#include "gov/merge.hpp"
#include "hw/platform.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"

namespace prime::sim {
namespace {

/// Every registered governor whose make_state_merger() is non-null.
std::vector<std::string> mergeable_governors() {
  std::vector<std::string> names;
  for (const std::string& name : governor_names()) {
    if (make_governor(name)->make_state_merger() != nullptr) {
      names.push_back(name);
    }
  }
  return names;
}

/// The order the three trained states are folded in.
using FoldOrder = std::array<std::size_t, 3>;
constexpr FoldOrder kForward{0, 1, 2};
constexpr FoldOrder kRotated{2, 0, 1};

using MergeCase = std::tuple<std::string, FoldOrder>;

std::string save(const gov::Governor& governor) {
  std::ostringstream out(std::ios::binary);
  governor.save_state(out);
  return out.str();
}

/// \p name trained for 300 frames with governor seed \p seed on an h264
/// trace of seed \p seed, as its save_state() payload.
std::string trained_state(const std::string& name, std::uint64_t seed) {
  auto platform = hw::Platform::odroid_xu3_a15();
  ExperimentSpec spec;
  spec.frames = 300;
  spec.seed = seed;
  const wl::Application app = make_application(spec, *platform);
  const auto governor = make_governor(name, seed);
  (void)run_simulation(*platform, app, *governor);
  return save(*governor);
}

class StateMerge : public ::testing::TestWithParam<MergeCase> {};

// Three differently seeded leaves folded one by one and through
// accumulators, in this case's order, give the same accumulator and the
// same extracted state as the forward leaf-by-leaf fold; the extracted
// state loads into a fresh governor, which then runs.
TEST_P(StateMerge, FoldsAreOrderAndGroupingInvariantAndTheStateLoads) {
  const auto& [name, order] = GetParam();
  const std::vector<std::string> leaves = {
      trained_state(name, 1), trained_state(name, 2), trained_state(name, 3)};
  const auto prototype = make_governor(name);

  const auto reference = prototype->make_state_merger();
  for (const std::string& leaf : leaves) reference->add_state(leaf);
  ASSERT_EQ(reference->sources(), 3u);

  const auto by_leaf = prototype->make_state_merger();
  for (const std::size_t i : order) by_leaf->add_state(leaves[i]);

  // The first two leaves as one accumulator, the third as another.
  const auto pair = prototype->make_state_merger();
  pair->add_state(leaves[order[0]]);
  pair->add_state(leaves[order[1]]);
  const auto single = prototype->make_state_merger();
  single->add_state(leaves[order[2]]);
  const auto by_accumulator = prototype->make_state_merger();
  by_accumulator->add_accumulator(pair->accumulator());
  by_accumulator->add_accumulator(single->accumulator());

  for (const gov::StateMerger* merger : {by_leaf.get(), by_accumulator.get()}) {
    EXPECT_EQ(merger->accumulator(), reference->accumulator());
    EXPECT_EQ(merger->extract_state(), reference->extract_state());
    EXPECT_EQ(merger->weight(), reference->weight());
    EXPECT_EQ(merger->sources(), 3u);
  }

  auto platform = hw::Platform::odroid_xu3_a15();
  ExperimentSpec spec;
  spec.frames = 50;
  spec.seed = 4;
  const wl::Application app = make_application(spec, *platform);
  const auto fresh = make_governor(name, 4);
  std::istringstream in(by_accumulator->extract_state(), std::ios::binary);
  fresh->load_state(in);
  RunOptions keep;
  keep.reset_governor = false;
  EXPECT_EQ(run_simulation(*platform, app, *fresh, keep).epoch_count, 50u);
}

INSTANTIATE_TEST_SUITE_P(
    MergeableGovernors, StateMerge,
    ::testing::Combine(::testing::ValuesIn(mergeable_governors()),
                       ::testing::Values(kForward, kRotated)),
    [](const ::testing::TestParamInfo<MergeCase>& info) {
      std::string name;
      for (const char c : std::get<0>(info.param)) {
        name += (c == '-') ? '_' : c;
      }
      return name + (std::get<1>(info.param) == kForward ? "_Forward"
                                                         : "_Rotated");
    });

// Payloads of tables with another geometry are refused, naming both shapes:
// rtm trained on the 19-OPP board against rtm trained on a 10-OPP one.
TEST(StateMergeGeometry, MismatchNamesBothTableShapes) {
  EXPECT_EQ(gov::describe_dims({}), "empty");
  EXPECT_EQ(gov::describe_dims({19}), "19");
  EXPECT_EQ(gov::describe_dims({74, 19}), "74x19");

  common::Config cfg;
  cfg.set_int("hw.opps", 10);
  const auto small = hw::Platform::from_config(cfg);
  ExperimentSpec spec;
  spec.frames = 100;
  const wl::Application app = make_application(spec, *small);
  const auto narrow = make_governor("rtm", 1);
  (void)run_simulation(*small, app, *narrow);

  const auto merger = make_governor("rtm")->make_state_merger();
  merger->add_state(trained_state("rtm", 1));
  try {
    merger->add_state(save(*narrow));
    FAIL() << "a 10-OPP payload merged into a 19-OPP accumulator";
  } catch (const gov::StateMergeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("state-space mismatch: "), std::string::npos) << what;
    EXPECT_NE(what.find("x10 vs "), std::string::npos) << what;
    EXPECT_NE(what.find("x19"), std::string::npos) << what;
  }
}

// The registry holds mergeable governors beyond the rtm family: the merge
// traits of mcdvfs and shen-rl, and thermal-cap's forwarding merger.
TEST(StateMergeCoverage, IncludesEveryLearnerFamily) {
  const std::vector<std::string> names = mergeable_governors();
  for (const char* family : {"rtm", "mcdvfs", "shen-rl", "thermal-cap"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), family), names.end())
        << family;
  }
}

}  // namespace
}  // namespace prime::sim
